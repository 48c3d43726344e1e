"""Compare two directories written by ``tools/cli_outputs.py``.

Prints one Markdown table row per run: whether its stdout is byte-identical
and, if not, how many numbers differ and the largest absolute and relative
change among them.  The relative change of a number is |b - a| / max(|a|, |b|).
A number is a decimal or exponent literal, with its sign, that does not
continue a word (so the ``1`` of ``P1`` is text).  Everything else is text.
Exits 1 when the two directories list different runs, when a run's exit
code differs, or when any text token (or the count of numbers) differs;
otherwise 0, also when numbers differ.  Usage, from anywhere:

    python tools/cli_diff.py A B
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def split(data: bytes) -> tuple[list[bytes], list[float]]:
    """(text between the numbers, the numbers) of one output."""
    return NUMBER.split(data), [float(m) for m in NUMBER.findall(data)]


def runs(directory: Path) -> dict[str, tuple[str, str]]:
    """Run number -> (exit code, argv), read from ``runs.txt``."""
    lines = (directory / "runs.txt").read_text(encoding="utf-8").splitlines()
    return {num: (code.removeprefix("exit="), argv)
            for num, code, argv in (line.split(" ", 2) for line in lines)}


def compare(a: bytes, b: bytes) -> tuple[str, bool]:
    """(table cells, whether only numbers differ) of one run's outputs."""
    if a == b:
        return "yes | 0 | 0 | 0", True
    (text_a, nums_a), (text_b, nums_b) = split(a), split(b)
    if text_a != text_b:
        return "no | text differs | - | -", False
    changed = [(x, y) for x, y in zip(nums_a, nums_b) if x != y]
    # equal values spelled differently, such as 1.0 and 1.00, change no number
    largest = max((abs(y - x) for x, y in changed), default=0.0)
    relative = max((abs(y - x) / max(abs(x), abs(y)) for x, y in changed), default=0.0)
    return f"no | {len(changed)} | {largest:.1e} | {relative:.1e}", True


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    left, right = (Path(arg) for arg in argv)
    runs_a, runs_b = runs(left), runs(right)
    ok = runs_a.keys() == runs_b.keys()
    print("| run | argv | exit | byte-identical | numbers changed | max abs | max rel |")
    print("|---|---|---|---|---|---|---|")
    for num in sorted(runs_a.keys() & runs_b.keys()):
        (code_a, args_a), (code_b, args_b) = runs_a[num], runs_b[num]
        cells, same = compare((left / f"{num}.out").read_bytes(),
                              (right / f"{num}.out").read_bytes())
        ok = ok and same and code_a == code_b and args_a == args_b
        exits = code_a if code_a == code_b else f"{code_a} -> {code_b}"
        print(f"| {num} | `{args_a}` | {exits} | {cells} |")
    if not ok:
        print("cli_diff: exit codes, runs or text differ", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
