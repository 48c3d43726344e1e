"""Tier-1 gate: the full test suite must fail exactly on the by-design clauses.

Runs ``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH`` and a JUnit XML report, deselecting nothing, and lists the
five slowest tests (``--durations=5``) against the suite's 30 s budget.
Three acceptance clauses fail by design (see README.md): clauses 05 and 07
pin two-decimal reference figures that the exact optima provably miss, and
clause 12 pins a QBER threshold at M = 16 slices that the slice-averaged
QBER meets only for M >= 26.  Exits 0 when the failures are exactly those
three, each with its stored reason as the first line of its failure
message, nothing errors and the JUnit ``testsuite`` time is within the
budget; otherwise prints what differs and exits 1.  Skipped tests are
counted in the tally line but do not fail the gate: the platform skips of
``tests/test_cli.py`` (no ``/dev/full``, no ``resource`` module) are
legitimate.
The exact reason also pins that only the by-design clause failed: an
import error or another clause in one of those tests is not ok.  Usage,
from anywhere:

    python tools/tier1.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 30.0  # of the whole suite, by its JUnit testsuite time
# test id -> the first line of its JUnit failure message
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_05_optimal_cloning":
        "AssertionError: off-diagonal magnitude 0.238095; target 0.23 +- 5e-3 missed by "
        "8.1e-03: the optimum is exactly 5/21 = 0.238095 and 0.23 is its two-decimal "
        "truncation",
    "tests.test_acceptance::test_criterion_07_cloning_ber":
        "AssertionError: key-slot wrong-port probability is 0.095238 = (1 - 17/21)/2 = 2/21, "
        "not 0.13: the clone's degenerate 2/21 error eigenspace carries total wrong-port "
        "weight 1, so the direct rate is 2/21 = 0.0952 in any eigenbasis; the "
        "detection-conditioned variant gives 1/7 = 0.1429, also outside 0.13 +- 5e-3",
    "tests.test_acceptance::test_criterion_12_wcs":
        "AssertionError: slice-averaged QBER at (M=16, mu=0.4) is 0.002549 > 1e-3: the "
        "triangular phase difference over a pi/8-wide slice has E[sin^2(delta/2)] = "
        "(1 - E[cos delta])/2 = 6.4e-3, so the QBER settles near 0.4 * 6.4e-3 = 2.5e-3; "
        "it drops below 1e-3 only for M >= 26",
}


def check(report: Path) -> int:
    """Print what a JUnit report differs in from the expected failures and the
    time budget, and the tally line; 0 when it is ok, 1 otherwise."""
    failed, errored, passed, skipped = {}, set(), 0, 0
    root = ET.parse(report).getroot()
    seconds = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    for case in root.iter("testcase"):
        # a collection error has no class name, only the module
        name = "::".join(filter(None, (case.get("classname"), case.get("name"))))
        failure = case.find("failure")
        if failure is not None:
            failed[name] = (failure.get("message") or "").partition("\n")[0]
        elif case.find("error") is not None:
            errored.add(name)
        elif case.find("skipped") is not None:
            skipped += 1
        else:
            passed += 1
    unexpected = failed.keys() - EXPECTED_FAILURES.keys()
    missing = EXPECTED_FAILURES.keys() - failed.keys()
    wrong = {name for name in failed.keys() - unexpected
             if failed[name] != EXPECTED_FAILURES[name]}
    for label, names in (("unexpected failure", unexpected), ("error", errored),
                         ("expected failure that did not fail", missing),
                         ("expected failure with another reason", wrong)):
        for name in sorted(names):
            reason = f": {failed[name]}" if name in failed else ""
            print(f"tier1: {label}: {name}{reason}", file=sys.stderr)
    over = seconds > BUDGET_S
    if over:
        print(f"tier1: the suite took {seconds:.1f} s, over its {BUDGET_S:g} s budget",
              file=sys.stderr)
    ok = not (unexpected or missing or errored or wrong or over)
    print(f"tier1: {passed} passed, {len(failed)} failed, {len(errored)} errors, "
          f"{skipped} skipped: {'ok' if ok else 'NOT ok'}")
    return 0 if ok else 1


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        "--durations=5", f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        if not report.is_file():
            print("tier1: pytest wrote no report", file=sys.stderr)
            return 1
        return check(report)


if __name__ == "__main__":
    sys.exit(main())
