"""Tier-1 gate: the full test suite must fail exactly on the by-design clauses.

Runs ``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH`` and a JUnit XML report, deselecting nothing.  Three acceptance
clauses pin two-decimal reference figures that the exact optima provably
miss, so they fail by design (see README.md).  Exits 0 when the failures are
exactly those three and nothing errors; otherwise prints what differs and
exits 1.  Usage, from anywhere:

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
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_05_optimal_cloning",
    "tests.test_acceptance::test_criterion_07_cloning_ber",
    "tests.test_acceptance::test_criterion_12_wcs",
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        if not report.is_file():
            print("tier1: pytest wrote no report", file=sys.stderr)
            return 1
        cases = ET.parse(report).getroot().iter("testcase")
        failed, errored, passed = set(), set(), 0
        for case in cases:
            # a collection error has no class name, only the module
            name = "::".join(filter(None, (case.get("classname"), case.get("name"))))
            if case.find("failure") is not None:
                failed.add(name)
            elif case.find("error") is not None:
                errored.add(name)
            elif case.find("skipped") is None:
                passed += 1
    unexpected, missing = failed - EXPECTED_FAILURES, EXPECTED_FAILURES - failed
    for label, names in (("unexpected failure", unexpected), ("error", errored),
                         ("expected failure that did not fail", missing)):
        for name in sorted(names):
            print(f"tier1: {label}: {name}", file=sys.stderr)
    ok = not (unexpected or missing or errored)
    print(f"tier1: {passed} passed, {len(failed)} failed, {len(errored)} errors: "
          f"{'ok' if ok else 'NOT ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
