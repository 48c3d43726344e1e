import importlib.util
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_diff", Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)


def write_runs(root, outputs, codes):
    """A directory laid out as tools/cli_outputs.py writes it."""
    root.mkdir()
    for i, data in enumerate(outputs):
        (root / f"{i:02d}.out").write_bytes(data)
    (root / "runs.txt").write_text(
        "".join(f"{i:02d} exit={code} med --n 3\n" for i, code in enumerate(codes)))
    return root


@pytest.mark.parametrize("a,b,cells,same", [
    (b'{"p": 0.75}', b'{"p": 0.75}', "yes | 0 | 0 | 0 | 0", True),
    (b'{"p": 0.75, "P1": [1e-8]}', b'{"p": 0.7500002, "P1": [3e-8]}',
     "no | 2 | 2 | 2.0e-07 | 6.7e-01", True),
    (b"p=1.0", b"p=1.00", "no | 0 | 0 | 0.0e+00 | 0.0e+00", True),
    # rounding noise of an exact zero, and a last-digit move: within 1e-12 + 1e-9 max
    (b"z=6.3e-16,p=0.423149574098", b"z=-5.7e-16,p=0.423149574099",
     "no | 2 | 0 | 1.0e-12 | 1.9e+00", True),
    # just past the tolerance, absolute at zero and relative at one
    (b"z=0.0,p=1.0", b"z=2e-12,p=1.000000002", "no | 2 | 2 | 2.0e-09 | 1.0e+00", True),
    (b"z=0.0,p=1.0", b"z=1e-12,p=1.000000001", "no | 2 | 0 | 1.0e-09 | 1.0e+00", True),
    (b'{"p": 0.75}', b'{"q": 0.75}', "no | text differs | - | - | -", False),
    (b"0.5,0.5", b"0.5,0.5,0.5", "no | text differs | - | - | -", False),
])
def test_cli_diff_compares_numbers_apart_from_text(a, b, cells, same):
    assert cli_diff.compare(a, b) == (cells, same)


@pytest.mark.parametrize("right,codes,status", [
    ([b'{"p": 0.75}'], [0], 0),
    ([b'{"p": 0.7500001}'], [0], 0),
    ([b'{"q": 0.75}'], [0], 1),
    ([b'{"p": 0.75}'], [3], 1),
    ([b'{"p": 0.75}', b""], [0, 0], 1),
])
def test_cli_diff_exit_status(tmp_path, capsys, right, codes, status):
    left = write_runs(tmp_path / "a", [b'{"p": 0.75}'], [0])
    assert cli_diff.main([str(left), str(write_runs(tmp_path / "b", right, codes))]) == status
    assert capsys.readouterr().out.splitlines()[2].startswith("| 00 | `med --n 3` |")


_TIER1_SPEC = importlib.util.spec_from_file_location(
    "tier1", Path(__file__).resolve().parent.parent / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_TIER1_SPEC)
_TIER1_SPEC.loader.exec_module(tier1)

_IMPORT_ERROR = ("ImportError: cannot import name 'cptp_residuals' from 'dpsqkd.attacks'")


@pytest.mark.parametrize("message,status", [
    (None, 0),
    (_IMPORT_ERROR, 1),
    ("AssertionError: two-copy fidelity 0.700000 = 0.78 within 5e-3 (exact 7/9)", 1),
])
def test_tier1_pins_each_expected_failure_to_its_reason(tmp_path, capsys, message, status):
    """A by-design failure counts only with its stored reason as the first
    line of its JUnit message: an import error in test 05 is not ok.  A
    skipped test is tallied apart and does not fail the gate."""
    suite = ET.Element("testsuite")
    ET.SubElement(suite, "testcase", classname="tests.test_tools", name="test_passes")
    skipped = ET.SubElement(suite, "testcase", classname="tests.test_tools", name="test_skips")
    ET.SubElement(skipped, "skipped", message="needs the /dev/full device")
    for name, reason in tier1.EXPECTED_FAILURES.items():
        module, test = name.split("::")
        if message is not None and test == "test_criterion_05_optimal_cloning":
            reason = message
        case = ET.SubElement(suite, "testcase", classname=module, name=test)
        ET.SubElement(case, "failure", message=reason + "\nassert False")
    report = tmp_path / "tier1.xml"
    ET.ElementTree(suite).write(report)
    assert tier1.check(report) == status
    out, err = capsys.readouterr()
    assert out == ("tier1: 1 passed, 3 failed, 0 errors, 1 skipped: "
                   f"{'NOT ok' if status else 'ok'}\n")
    if status:
        assert err == ("tier1: expected failure with another reason: "
                       f"tests.test_acceptance::test_criterion_05_optimal_cloning: {message}\n")


@pytest.mark.parametrize("seconds,status", [(None, 0), ("29.9", 0), ("30.5", 1)])
def test_tier1_holds_the_suite_to_its_time_budget(tmp_path, capsys, seconds, status):
    """The by-design failures alone are not ok when the suite's JUnit time,
    as pytest nests it under ``testsuites``, is over the 30 s budget."""
    root = ET.Element("testsuites")
    suite = ET.SubElement(root, "testsuite", {} if seconds is None else {"time": seconds})
    ET.SubElement(suite, "testcase", classname="tests.test_tools", name="test_passes")
    for name, reason in tier1.EXPECTED_FAILURES.items():
        module, test = name.split("::")
        case = ET.SubElement(suite, "testcase", classname=module, name=test)
        ET.SubElement(case, "failure", message=reason)
    report = tmp_path / "tier1.xml"
    ET.ElementTree(root).write(report)
    assert tier1.check(report) == status
    out, err = capsys.readouterr()
    assert out == ("tier1: 1 passed, 3 failed, 0 errors, 0 skipped: "
                   f"{'NOT ok' if status else 'ok'}\n")
    assert err == ("tier1: the suite took 30.5 s, over its 30 s budget\n" if status else "")
