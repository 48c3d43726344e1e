"""Write the stdout and exit code of a fixed set of CLI runs to a directory.

Each argv runs in a fresh ``python -m dpsqkd.cli`` process in the repository
root, with ``src`` on ``PYTHONPATH``, so a path in an argv is relative to
the root.  Run ``i`` writes its stdout to ``OUTDIR/NN.out``, and
``OUTDIR/runs.txt`` lists each run's number, exit code and argv.  Two
passes, or one on each of two checkouts, are byte-identical exactly when
``diff -r`` of their directories is silent.
Usage, from anywhere:

    python tools/cli_outputs.py OUTDIR
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINITE = "n=1e6,k=1e4,eps=1e-9"
RUNS = [
    *(["med", "--n", str(n)] for n in (3, 4, 5, 6)),
    ["med", "--n", "4", "--format", "csv"],
    *(["clone", "--mode", mode, "--format", fmt]
      for mode in ("optimal", "unitary") for fmt in ("json", "csv")),
    ["keyrate"],
    *(["keyrate", "--n-pulses", str(n)] for n in (4, 5, 6)),
    ["keyrate", "--format", "csv", "--step-km", "5", "--finite-size", FINITE],
    *(["wcs", "--format", fmt] for fmt in ("json", "csv")),
    ["finite-size", "--params", FINITE],
    # QBERs near 1/2, where a rate must stay 0
    ["keyrate", "--attacks", "unconditional,lower-bound", "--start-km", "230", "--stop-km", "245",
     "--step-km", "1"],
    ["keyrate", "--finite-size", "n=1e3,k=50,eps=1e-9", "--start-km", "200", "--stop-km", "300"],
    # past e_b = 3/19, where the lower-bound rate must not revive
    ["keyrate", "--attacks", "lower-bound", "--f-ec", "1", "--start-km", "200",
     "--stop-km", "330"],
    # a channel file, one of whose keys a flag overrides
    ["keyrate", "--attacks", "ir,lower-bound", "--config", "tools/channel.ini",
     "--detector-efficiency", "0.15"],
    # a decimal step, whose grid points are start + i * step rounded to 1e-9 km
    ["keyrate", "--attacks", "ir,lower-bound", "--stop-km", "1", "--step-km", "0.1"],
    # the slice quadrature away from the default mean photon number and slice count
    ["wcs", "--mu", "0.9", "--slices", "4", "--step-km", "25", "--format", "csv"],
    # the channel file read by the weak-coherent-state sweep
    ["wcs", "--attack", "ir,usd", "--config", "tools/channel.ini", "--mu", "0.5",
     "--step-km", "50", "--format", "csv"],
    # a finite-size spec with spaces around its keys and values
    ["finite-size", "--params", " n = 1e5 , k = 1e3 , eps = 1e-6 ", "--e-obs", "0.03"],
    # every attack past the six pulses that the med report stops at
    ["keyrate", "--n-pulses", "8"],
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    lines = []
    for i, run in enumerate(RUNS):
        proc = subprocess.run([sys.executable, "-m", "dpsqkd.cli", *run], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, check=False)
        (out / f"{i:02d}.out").write_bytes(proc.stdout)
        lines.append(f"{i:02d} exit={proc.returncode} {' '.join(run)}\n")
    (out / "runs.txt").write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
