"""Compare the solver figures of two traced perfbench runs side by side.

Reads the stdout of two ``perfbench/run.py --trace 1`` runs, a base and a
head, and prints one Markdown table row per figure: ``sdp.solve.iterations``
(an exact count), ``sdp.solve.s_per_iteration`` and the untraced ``wall_s``,
with the head/base ratio.  Exits 1 when the head takes more solver
iterations than the base, and 0 otherwise; the times are printed for
reading, since one short run cannot resolve them.  Usage, from anywhere:

    python tools/trace_compare.py BASE.txt HEAD.txt
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

WALL = re.compile(r"tracing overhead: wall_s traced \S+ s - untraced (\S+) s")
FIGURES = ("sdp.solve.iterations", "sdp.solve.s_per_iteration", "wall_s")


def figures(text: str) -> dict[str, float]:
    """The compared figures of one traced run's stdout."""
    metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
    wall = WALL.search(text)
    if wall is None:
        raise ValueError("no untraced wall_s: was the run traced (--trace 1)?")
    return {"sdp.solve.iterations": metrics["sdp.solve.iterations"]["value"],
            "sdp.solve.s_per_iteration": metrics["sdp.solve.s_per_iteration"]["value"],
            "wall_s": float(wall.group(1))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    base, head = (figures(Path(arg).read_text()) for arg in argv)
    print("| figure | base | head | head/base |")
    print("|---|---|---|---|")
    for name in FIGURES:
        ratio = f"{head[name] / base[name]:.3f}" if base[name] else "-"
        print(f"| {name} | {base[name]:.6g} | {head[name]:.6g} | {ratio} |")
    return int(head["sdp.solve.iterations"] > base["sdp.solve.iterations"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
