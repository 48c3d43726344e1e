import importlib.util
import json
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
    (b'{"p": 0.75}', b'{"p": 0.75}', "yes | 0 | 0 | 0", True),
    (b'{"p": 0.75, "P1": [1e-8]}', b'{"p": 0.7500002, "P1": [3e-8]}',
     "no | 2 | 2.0e-07 | 6.7e-01", True),
    (b"p=1.0", b"p=1.00", "no | 0 | 0.0e+00 | 0.0e+00", True),
    (b'{"p": 0.75}', b'{"q": 0.75}', "no | text differs | - | -", False),
    (b"0.5,0.5", b"0.5,0.5,0.5", "no | text differs | - | -", False),
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


_TRACE_SPEC = importlib.util.spec_from_file_location(
    "trace_compare", Path(__file__).resolve().parent.parent / "tools" / "trace_compare.py")
trace_compare = importlib.util.module_from_spec(_TRACE_SPEC)
_TRACE_SPEC.loader.exec_module(trace_compare)


def traced_run(path, iterations, per_iteration, wall):
    """The tail of a ``perfbench/run.py --trace 1`` stdout, as the comparison reads it."""
    metrics = {"sdp.solve.iterations": {"value": iterations, "unit": "count"},
               "sdp.solve.s_per_iteration": {"value": per_iteration, "unit": "s"}}
    path.write_text(
        f"  tracing overhead: wall_s traced {wall + 1e-3:.6g} s - untraced {wall:.6g} s "
        f"= 0.001 s (3 traced, 3 untraced rounds)\n"
        + json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}) + "\n")
    return str(path)


@pytest.mark.parametrize("head_iterations,status", [(14, 0), (13, 0), (15, 1)])
def test_trace_compare_flags_only_more_iterations(tmp_path, capsys, head_iterations, status):
    base = traced_run(tmp_path / "base.txt", 14, 9e-4, 0.027)
    head = traced_run(tmp_path / "head.txt", head_iterations, 5e-4, 0.018)
    assert trace_compare.main([base, head]) == status
    rows = capsys.readouterr().out.splitlines()
    ratio = head_iterations / 14
    assert rows[2] == f"| sdp.solve.iterations | 14 | {head_iterations} | {ratio:.3f} |"
    assert rows[3] == "| sdp.solve.s_per_iteration | 0.0009 | 0.0005 | 0.556 |"
    assert rows[4] == "| wall_s | 0.027 | 0.018 | 0.667 |"


def test_trace_compare_needs_a_traced_run(tmp_path):
    untraced = tmp_path / "untraced.txt"
    untraced.write_text(json.dumps({"metrics": {}}) + "\n")
    with pytest.raises(ValueError, match="--trace 1"):
        trace_compare.figures(untraced.read_text())


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
    line of its JUnit message: an import error in test 05 is not ok."""
    suite = ET.Element("testsuite")
    ET.SubElement(suite, "testcase", classname="tests.test_tools", name="test_passes")
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
    assert out == f"tier1: 1 passed, 3 failed, 0 errors: {'NOT ok' if status else 'ok'}\n"
    if status:
        assert err == ("tier1: expected failure with another reason: "
                       f"tests.test_acceptance::test_criterion_05_optimal_cloning: {message}\n")
