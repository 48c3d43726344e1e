import errno
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsqkd
from dpsqkd import attacks, sdp
from dpsqkd.cli import _fmt, main
from dpsqkd.keyrate import EXPLICIT_ATTACKS
from dpsqkd.sdp import KktReport, SdpError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(args, **kwargs):
    """Run ``python *args`` in a fresh interpreter on this suite's ``dpsqkd``."""
    src = str(Path(dpsqkd.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def test_med_json(capsys):
    code, out, _ = run_cli(capsys, "med", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_success"] == pytest.approx(0.75, abs=1e-6)
    assert doc["collision_probability"] == pytest.approx(13 / 18, abs=1e-5)
    assert doc["config"] == {"command": "med", "n": 3}
    assert len(doc["povm"]) == 4 and doc["kkt_passed"] is True


def test_med_csv(capsys):
    code, out, _ = run_cli(capsys, "med", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    success = next(c for c in comments if c.startswith("# p_success="))
    assert float(success.partition("=")[2]) == pytest.approx(0.75, abs=1e-6)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[0] == "state"
    assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4 states


def test_med_out_of_range(capsys):
    code, _, err = run_cli(capsys, "med", "--n", "7")
    assert code == 2
    assert "configuration error" in err


def test_solver_failure_reports_last_iterate(monkeypatch, capsys):
    # a DPS attack reaches its optimum without a solve; this forces the
    # fallback solve, which two iterations cannot finish
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    monkeypatch.setattr(attacks, "_top_eigenspace_solution", lambda *reduced: None)
    code, out, err = run_cli(capsys, "med", "--n", "3")
    assert code == 3 and out == ""
    assert err.startswith("solver failure: ")
    assert "last iterate: gap " in err


@pytest.mark.parametrize("argv,attack", [
    (("keyrate",), "med"),
    (("clone", "--mode", "optimal"), "optimal cloner"),
    (("clone", "--mode", "unitary"), "MED after unitary cloning"),
    (("med", "--n", "3"), "med"),
])
def test_solver_failure_names_the_attack(monkeypatch, capsys, argv, attack):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    monkeypatch.setattr(attacks, "_top_eigenspace_solution", lambda *reduced: None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"solver failure: {attack}: ")
    assert "last iterate: gap " in err


def test_med_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "med", "--n", "3")
    _, out2, _ = run_cli(capsys, "med", "--n", "3")
    assert out1 == out2


def test_clone_optimal(capsys):
    code, out, _ = run_cli(capsys, "clone", "--mode", "optimal")
    assert code == 0
    doc = json.loads(out)
    assert doc["avg_two_copy_fidelity"] == pytest.approx(7 / 9, abs=1e-5)
    assert doc["per_state_clone_fidelity"][0] == pytest.approx(17 / 21, abs=1e-5)
    assert doc["depolarizing_p"][0] == pytest.approx(2 / 7, abs=1e-5)
    assert doc["ber"][0] == pytest.approx(2 / 21, abs=1e-5)
    assert doc["ber_conditional"][0] == pytest.approx(1 / 7, abs=1e-5)
    assert doc["med_after"]["p_success"] == pytest.approx(0.75 - 1 / 7, abs=1e-4)


def test_clone_unitary(capsys):
    code, out, _ = run_cli(capsys, "clone", "--mode", "unitary")
    assert code == 0
    doc = json.loads(out)
    assert doc["q_opt"] == pytest.approx(0.2328, abs=1e-3)
    assert doc["avg_clone_fidelity"] == pytest.approx(0.7816, abs=1e-3)
    assert doc["unitarity_residual"] <= 1e-12
    assert doc["med_after"]["p_success"] == pytest.approx(0.6031, abs=1e-3)


def test_keyrate_json_and_determinism(capsys):
    args = ("keyrate", "--start-km", "0", "--stop-km", "40", "--step-km", "20")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert [r["distance_km"] for r in doc["rows"]] == [0.0, 20.0, 40.0]
    row = doc["rows"][0]
    for name in ("ir", "med", "cloning", "unitary"):
        assert 0.0 <= row[f"tau_{name}"] <= 1.0
        assert row[f"r_{name}"] >= 0.0
    assert row["tau_lower-bound"] <= min(row[f"tau_{n}"] for n in ("ir", "med"))
    assert doc["config"]["detector_efficiency"] == 0.1
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_keyrate_csv(capsys):
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir,med",
                           "--start-km", "0", "--stop-km", "10", "--step-km", "10",
                           "--format", "csv")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:3] == ["distance_km", "e_b", "p_click"]
    assert "tau_ir" in header and "r_med" in header
    assert len(lines) == 3


def test_keyrate_finite_size_flag(capsys):
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir",
                           "--start-km", "0", "--stop-km", "0", "--step-km", "10",
                           "--finite-size", "n=1e6,k=1e4,eps=1e-9")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["e_b_finite"] > row["e_b"]


def test_keyrate_unknown_attack(capsys):
    code, _, err = run_cli(capsys, "keyrate", "--attacks", "pns")
    assert code == 2
    assert "unknown attacks" in err


def test_keyrate_checks_its_configuration_before_any_solve(monkeypatch, capsys):
    def failing_solve(*args, **kwargs):
        raise SdpError("solver must not run")

    monkeypatch.setattr(attacks.sdp, "solve", failing_solve)
    for argv, message in [(("--attacks", "pns"), "unknown attacks"),
                          (("--finite-size", "n=1e6"), "missing"),
                          (("--start-km", "10", "--stop-km", "0"), "grid")]:
        code, _, err = run_cli(capsys, "keyrate", *argv)
        assert code == 2, argv
        assert message in err
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir,lower-bound", "--stop-km", "0")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert "tau_ir" in row and "r_lower-bound" in row


@pytest.mark.parametrize("bounds,columns", [
    ("lower-bound", ["tau_lower-bound", "r_lower-bound"]),
    ("unconditional", ["r_unconditional"]),
])
def test_keyrate_selects_each_bound_by_name(capsys, bounds, columns):
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", f"ir,{bounds}", "--stop-km", "0",
                           "--format", "csv")
    assert code == 0
    header = next(l for l in out.splitlines() if not l.startswith("#"))
    assert header.split(",") == ["distance_km", "e_b", "p_click", "tau_ir", "r_ir", *columns]


def test_keyrate_bad_grid(capsys):
    for argv, message in [
        (("--start-km", "10", "--stop-km", "0"), "grid"),
        (("--start-km", "-50", "--stop-km", "0"), "distance"),
        (("--loss-db-per-km", "-1"), "fibre loss"),
        (("--baseline-error", "0", "--dark-count-prob", "0",
          "--finite-size", "n=1e6,k=1e4,eps=1e-9"), "observed error rate"),
        (("--finite-size", "n=1e6,k=1e4,eps=2"), "confidence parameter"),
        (("--n-pulses", "7"), "pulse count"),
        (("--n-pulses", "13"), "pulse count"),
        (("--stop-km", "inf"), "finite"),
        (("--step-km", "1e-9"), "points"),
        # the 1e-9 km end slack counts: 1e-9 / 1e-14 = 1e5 points
        (("--start-km", "5", "--stop-km", "5", "--step-km", "1e-14"), "points"),
        (("--step-km", "0"), "distance step must be positive"),
        (("--step-km", "-5"), "distance step must be positive"),
        (("--dark-count-prob", "0", "--loss-db-per-km", "100", "--start-km", "40",
          "--stop-km", "40"), "click probability is zero"),
        (("--f-ec", "nan"), "error correction"),
        (("--f-ec", "inf"), "error correction"),
        (("--loss-db-per-km", "inf"), "fibre loss"),
        (("--loss-db-per-km", "nan"), "fibre loss"),
        (("--dark-count-prob", "1", "--detector-efficiency", "1", "--stop-km", "0"),
         "click probability 2 exceeds 1"),
        (("--dark-count-prob", "0.5", "--detector-efficiency", "1"),
         "click probability 1.5 exceeds 1"),
        # a step below the float spacing of the distances (16 km at 1e17)
        (("--attacks", "ir", "--start-km", "1e17", "--stop-km", "1.0000000000000003e17",
          "--step-km", "1"), "distance step 1 km is below the float resolution at 1e+17 km"),
        # the spacing doubles at 2^53, where d + 1 ties and rounds back to d
        (("--attacks", "ir", "--start-km", "9007199254740988",
          "--stop-km", "9007199254740996", "--step-km", "1"), "below the float resolution"),
        # distinct points that repeat only once rounded to the reported 1e-9 km
        (("--attacks", "ir", "--stop-km", "1e-8", "--step-km", "1e-10"),
         "distance step 1e-10 km is below the 1e-9 km rounding of the distances at 0 km"),
        (("--attacks", "ir", "--start-km", "5", "--stop-km", "5.000000001", "--step-km", "4e-10"),
         "distance step 4e-10 km is below the 1e-9 km rounding of the distances at 5 km"),
    ]:
        code, _, err = run_cli(capsys, "keyrate", *argv)
        assert code == 2, argv
        assert "configuration error" in err and message in err


@pytest.mark.parametrize("command", [["keyrate", "--attacks", "lower-bound"], ["wcs"]],
                         ids=["keyrate", "wcs"])
def test_grid_is_counted_before_it_is_built(command):
    """A step far below the float spacing at stop is rejected by its point
    count before any point exists.  The process runs under a 2 GiB address
    space, so a grid built first fails the test instead of exhausting memory."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = fresh_python(["-m", "dpsqkd.cli", *command, "--stop-km", "0", "--step-km", "1e-300"],
                        capture_output=True, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "configuration error: distance grid has more than 100000 points\n"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line\n[channel]\ndetector_efficiency = 0.2\n"
                   "baseline_error = 0.02\n")
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(cfg),
                           "--start-km", "0", "--stop-km", "0", "--step-km", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["detector_efficiency"] == 0.2
    assert doc["config"]["baseline_error"] == 0.02
    # flags override the file
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(cfg),
                           "--detector-efficiency", "0.3",
                           "--start-km", "0", "--stop-km", "0", "--step-km", "1")
    doc = json.loads(out)
    assert doc["config"]["detector_efficiency"] == 0.3


def test_config_env_var(tmp_path, capsys, monkeypatch):
    """A channel file is named only by ``--config``: ``DPSQKD_CONFIG``, naming
    a file or an absent path, leaves the default channel."""
    cfg = tmp_path / "env.cfg"
    cfg.write_text("[channel]\ndark_count_prob = 2e-6\n")
    for path in (cfg, tmp_path / "absent.cfg"):
        monkeypatch.setenv("DPSQKD_CONFIG", str(path))
        code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir", "--stop-km", "0")
        assert code == 0, path
        assert json.loads(out)["config"]["dark_count_prob"] == 1e-6


def test_config_env_var_is_read_only_by_the_sweeps(tmp_path, capsys, monkeypatch):
    """No subcommand reads ``DPSQKD_CONFIG``: ``med``, which takes no channel,
    reports only its argv."""
    monkeypatch.setenv("DPSQKD_CONFIG", str(tmp_path / "absent.cfg"))
    code, out, _ = run_cli(capsys, "med", "--n", "3")
    assert code == 0 and json.loads(out)["config"] == {"command": "med", "n": 3}


def test_empty_config_env_var_is_unset(capsys, monkeypatch):
    monkeypatch.setenv("DPSQKD_CONFIG", "")
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir", "--stop-km", "0")
    assert code == 0 and json.loads(out)["config"]["f_ec"] == 1.16


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[channel]\nfibre_colour = blue\n")
    code, _, err = run_cli(capsys, "keyrate", "--config", str(cfg))
    assert code == 2
    assert "unknown channel key" in err


@pytest.mark.parametrize("text", ["[run]\nstop_km = 0\n", "[output]\n"], ids=["run", "output"])
def test_config_rejects_unknown_section(tmp_path, capsys, text):
    """A section the CLI does not read is an error, not a silently dropped setting."""
    cfg = tmp_path / "sections.cfg"
    cfg.write_text(f"[channel]\nf_ec = 1.2\n{text}")
    code, out, err = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("configuration error: unknown config sections")


def test_config_keys_before_a_header_and_a_repeated_header_are_one_section(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("f_ec = 1.25\n[channel]\nbaseline_error = 0.02\n[ channel ]\n"
                   "detector_efficiency = 0.3\n")
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(cfg),
                           "--stop-km", "0")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["f_ec"], config["baseline_error"], config["detector_efficiency"]) == (
        1.25, 0.02, 0.3)


@pytest.mark.parametrize("text,lineno", [
    ("[channel]\nf_ec = 1.5\nf_ec = 1.2\n", 3),
    ("f_ec = 1.3\n[channel]\nf_ec=1.3\n", 3),  # one section, so the same key
    ("[channel]\nf_ec = 1.5\n[channel]\n f_ec = 1.5\n", 4),
], ids=["one-section", "before-the-header", "repeated-header"])
def test_config_rejects_a_key_given_twice(tmp_path, capsys, text, lineno):
    """A repeated channel key is an error, as in ``--finite-size``, not a
    silent override; the flag still overrides the file's one value."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    for command in ("keyrate", "wcs"):
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--f-ec", "1.1")
        assert code == 2 and out == ""
        assert err == f"configuration error: {cfg}:{lineno}: channel key 'f_ec' is given twice\n"


def test_config_names_the_first_unknown_section(tmp_path, capsys):
    """The first header other than ``[channel]`` is reported, before any
    line after it is read."""
    cfg = tmp_path / "sections.cfg"
    cfg.write_text("[channel]\nf_ec = 1.2\n[run]\nnot a pair\n[output]\n")
    code, out, err = run_cli(capsys, "wcs", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "configuration error: unknown config sections: ['run']\n"


@pytest.mark.parametrize("argv", [["med", "--n", "3"], ["clone"],
                                  ["finite-size", "--params", "n=1e6,k=1e4,eps=1e-9"]],
                         ids=["med", "clone", "finite-size"])
def test_commands_without_a_channel_reject_config(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--config", "x"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err
    proc = fresh_python(["-m", "dpsqkd.cli", *argv, "--config", "x"], capture_output=True)
    assert proc.returncode == 2 and proc.stdout == ""


def test_finite_size_command(capsys):
    code, out, _ = run_cli(capsys, "finite-size", "--params", "n=1e6,k=1e4,eps=1e-9",
                           "--e-obs", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["deviation"] == pytest.approx(0.0082449248, abs=1e-9)
    assert doc["e_key_bound"] == pytest.approx(0.02 + doc["deviation"], abs=1e-12)


def test_finite_size_command_bad_spec(capsys):
    """A bad finite-size spec exits 2, also an unknown or a repeated key."""
    for argv, message in [
        (("finite-size", "--params", "n=1e6"), "missing"),
        (("finite-size", "--params", "n=abc,k=1e4,eps=1e-9"),
         "finite-size key 'n' needs float, got 'abc'"),
        (("finite-size", "--params", "n=1e6,k=1e4,eps=0.999", "--e-obs", "0.4"), "log argument"),
        (("finite-size", "--params", "n=1e6,k=1e4,eps=1e-9,typo=3"), "unknown finite-size key"),
        (("keyrate", "--finite-size", "n=1e6,k=1e4,eps=1e-9,n=5"), "'n' is given twice"),
        (("keyrate", "--finite-size", "n=1e6,k=1e4,epsilon=1e-9"), "unknown finite-size key"),
        # a subnormal eps overflows the log argument
        (("finite-size", "--params", "n=1e6,k=1e4,eps=5e-324"), "eps=5e-324 is too small"),
        (("keyrate", "--stop-km", "0", "--finite-size", "n=1e6,k=1e4,eps=5e-324"),
         "eps=5e-324 is too small"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err


def test_finite_size_rejects_fractional_block_sizes(capsys):
    for spec in ("n=1000.7,k=10,eps=1e-3", "n=1000,k=10.2,eps=1e-3"):
        code, out, err = run_cli(capsys, "finite-size", "--params", spec)
        assert code == 2 and out == ""
        assert "whole number" in err, spec
    code, out, _ = run_cli(capsys, "finite-size", "--params", "n=1e3,k=10,eps=1e-3")
    assert code == 0
    assert json.loads(out)["config"]["n"] == 1000


def test_wcs_command(capsys):
    code, out, _ = run_cli(capsys, "wcs", "--mu", "0.4", "--slices", "16",
                           "--start-km", "0", "--stop-km", "20", "--step-km", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["usd_success"] == pytest.approx(0.5507, abs=1e-4)
    assert doc["slice_averaged_qber"] == pytest.approx(0.00254924, abs=1e-6)
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert row["r_phase_randomized"] <= row["r_usd"] + 1e-15


def test_output_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "med.json"
    code, out, _ = run_cli(capsys, "med", "--n", "3", "--output", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["p_success"] == pytest.approx(0.75, abs=1e-6)
    # a failed run leaves an existing report byte for byte as it was
    before = path.read_bytes()
    code, out, _ = run_cli(capsys, "keyrate", "--f-ec", "nan", "--output", str(path))
    assert code == 2 and out == ""
    assert path.read_bytes() == before
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    monkeypatch.setattr(attacks, "_top_eigenspace_solution", lambda *reduced: None)
    code, out, _ = run_cli(capsys, "med", "--n", "3", "--output", str(path))
    assert code == 3 and out == ""
    assert path.read_bytes() == before


@pytest.mark.parametrize("where", ["missing-dir/out.json", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "finite-size", "--params", "n=1e6,k=1e4,eps=1e-9",
                             "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and str(target) in err
    assert sorted(tmp_path.iterdir()) == []


FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullStdout(io.StringIO):
    """A stdout on a full disk: ``flush`` fails, and so does ``write`` when
    ``failing == "write"``."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise FULL
        return super().write(text)

    def flush(self):
        raise FULL


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_exits_2(monkeypatch, capsys, failing):
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    code = main(["finite-size", "--params", "n=1e6,k=1e4,eps=1e-9"])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {FULL}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["finite-size", "--params", "n=1e6,k=1e4,eps=1e-9"],  # fits the stdout buffer
    ["keyrate", "--attacks", "ir", "--step-km", "0.01"],  # overflows it
])
def test_full_stdout_exits_2_in_a_fresh_process(argv):
    """Nothing is left to fail at interpreter exit, which would exit 120."""
    with open("/dev/full", "w") as full:
        proc = fresh_python(["-m", "dpsqkd.cli", *argv], stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: {FULL}\n"


def test_unreadable_config_exits_2(tmp_path, capsys):
    # an explicit empty path names no file
    for path in (tmp_path / "absent.cfg", tmp_path, ""):
        code, out, err = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"configuration error: cannot read config file {str(path)!r}")
    code, out, err = run_cli(capsys, "wcs", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot read config file")


@pytest.mark.parametrize("line,message", [
    ("n_pulses", "expected key=value, got 'n_pulses'"),
    ("n_pulses = abc", "channel key 'n_pulses' needs int, got 'abc'"),
    ("n_pulses = 4.0", "channel key 'n_pulses' needs int, got '4.0'"),
    ("f_ec = high", "channel key 'f_ec' needs float, got 'high'"),
])
def test_config_value_that_does_not_parse_exits_2(tmp_path, capsys, line, message):
    """Every fault of a config line is named after its path:lineno."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[channel]\n{line}\n")
    code, out, err = run_cli(capsys, "keyrate", "--attacks", "ir", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"configuration error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("items,message", [
    (["{key}"], lambda what, key, at: f"{at(2)}expected key=value, got {key!r}"),
    (["typo = 3"], lambda what, key, at: f"{at(2)}unknown {what} key 'typo'"),
    (["{key} = {value}", " {key}={value} "],
     lambda what, key, at: f"{at(3)}{what} key {key!r} is given twice"),
    (["{key} = high"],
     lambda what, key, at: f"{at(2)}{what} key {key!r} needs float, got 'high'"),
    # the first faulty item is reported, not the first kind of fault
    (["typo = 3", "{key}", "{key} = high"],
     lambda what, key, at: f"{at(2)}unknown {what} key 'typo'"),
    # a trailing comma leaves an empty spec item, which has no "="; a file
    # skips its blank lines (None: the run succeeds)
    (["{key} = {value}", ""],
     lambda what, key, at: None if what == "channel" else "expected key=value, got ''"),
], ids=["missing-equals", "unknown-key", "repeated-key", "bad-value", "first-fault",
        "empty-item"])
def test_config_and_finite_size_share_one_grammar(tmp_path, capsys, items, message):
    """The same items, as the lines of a ``--config`` file and as the
    comma-separated items of a finite-size spec, exit 2 with one message
    shape; only a file line names its position, and it does for every fault."""
    cfg = tmp_path / "items.cfg"
    cfg.write_text("[channel]\n" + "\n".join(i.format(key="f_ec", value="1.2") for i in items))
    spec = ",".join(i.format(key="n", value="1e6") for i in items)
    for argv, what, key, at in [
        (("keyrate", "--attacks", "ir", "--stop-km", "0", "--config", str(cfg)), "channel",
         "f_ec", lambda lineno: f"{cfg}:{lineno}: "),
        (("finite-size", "--params", spec), "finite-size", "n", lambda lineno: ""),
        (("keyrate", "--attacks", "ir", "--finite-size", spec), "finite-size", "n",
         lambda lineno: ""),
    ]:
        code, out, err = run_cli(capsys, *argv)
        expected = message(what, key, at)
        if expected is None:
            assert code == 0 and json.loads(out)["config"][key] == 1.2
            continue
        assert code == 2 and out == "", argv
        assert err == f"configuration error: {expected}\n"


def test_wcs_bad_source_and_channel(capsys):
    for argv, message in [
        (("--mu", "nan"), "mean photon number"),
        (("--mu", "inf"), "mean photon number"),
        (("--f-ec", "nan"), "error correction"),
        (("--loss-db-per-km", "inf"), "fibre loss"),
        (("--mu", "0.9", "--detector-efficiency", "1", "--dark-count-prob", "0.2"),
         "click probability 1.1 exceeds 1"),
        (("--n-pulses", "6"), "three-pulse only (n_pulses = 6)"),
        (("--n-pulses", "4", "--stop-km", "0"), "three-pulse only (n_pulses = 4)"),
        (("--start-km", "1e17", "--stop-km", "1.0000000000000003e17", "--step-km", "1"),
         "step"),
        (("--start-km", "5", "--stop-km", "5", "--step-km", "1e-14"), "points"),
    ]:
        code, _, err = run_cli(capsys, "wcs", *argv)
        assert code == 2, argv
        assert "configuration error" in err and message in err


def test_wcs_click_bound_uses_the_source_intensity(capsys):
    # eta + p_dark = 1.5, but the clicks scale with mu: 0.4 * 1 + 0.5 <= 1
    code, out, _ = run_cli(capsys, "wcs", "--detector-efficiency", "1",
                           "--dark-count-prob", "0.5", "--stop-km", "0")
    assert code == 0
    assert json.loads(out)["rows"][0]["p_click"] == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("argv,attack", [
    (("keyrate",), "med"),
    (("clone", "--mode", "optimal"), "optimal cloner"),
    (("clone", "--mode", "unitary"), "MED after unitary cloning"),
    (("med", "--n", "3"), "med"),
])
def test_uncertified_optimum_exits_3(monkeypatch, capsys, argv, attack):
    failing = KktReport(equality_residual=0.0, primal_min_eigenvalue=0.0,
                        dual_min_eigenvalue=-1.0, complementary_slackness=0.0,
                        duality_gap=0.0, tol=1e-6,
                        conditions={"primal_psd": True, "dual_psd": False})
    monkeypatch.setattr(attacks.sdp, "verify_kkt", lambda *args, **kwargs: failing)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert f"solver failure: {attack}: KKT certificate failed (dual_psd)" in err


def test_fmt_renders_numpy_values_as_plain_json():
    doc = _fmt({"array": np.array([[0.5, -0.0]]), "float": np.float64(0.1),
                "complex": np.complex128(1 - 2j), "int": np.int64(3), "bool": np.bool_(True)})
    assert doc == {"array": [[0.5, 0.0]], "float": 0.1, "complex": [1.0, -2.0],
                   "int": 3, "bool": True}
    assert [type(doc[k]) for k in ("float", "int", "bool")] == [float, int, bool]
    assert json.loads(json.dumps(doc)) == doc


def test_explicit_attack_names_have_one_owner(capsys):
    assert tuple(attacks.ATTACK_PROFILES) == EXPLICIT_ATTACKS
    code, out, _ = run_cli(capsys, "keyrate", "--stop-km", "0")
    assert code == 0
    assert json.loads(out)["config"]["attacks"] == \
        "ir,med,cloning,unitary,lower-bound,unconditional"


# Run a snippet, then print the numpy and dpsqkd modules it loaded as the last line.
LOADED = """{code}
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "dpsqkd"))))
"""
NO_NUMPY = {"numpy", "dpsqkd.attacks", "dpsqkd.dps", "dpsqkd.linalg", "dpsqkd.sdp", "dpsqkd.wcs"}


@pytest.mark.parametrize("code,present,absent", [
    ("import dpsqkd", {"dpsqkd"}, NO_NUMPY),
    ("import dpsqkd.cli", {"dpsqkd.cli", "dpsqkd.keyrate"}, NO_NUMPY),
    ("from dpsqkd.cli import main; "
     "assert main(['finite-size', '--params', 'n=1e6,k=1e4,eps=1e-9']) == 0",
     {"dpsqkd.cli"}, NO_NUMPY),
    ("from dpsqkd.cli import main; assert main(['wcs']) == 0", {"dpsqkd.wcs"},
     NO_NUMPY - {"dpsqkd.wcs"}),
    ("from dpsqkd.cli import main; assert main(['med', '--n', '3']) == 0",
     {"dpsqkd.attacks", "dpsqkd.sdp"}, {"dpsqkd.wcs"}),
    ("from dpsqkd.cli import main; assert main(['keyrate', '--attacks', "
     "'lower-bound,unconditional', '--stop-km', '0']) == 0", {"dpsqkd.cli"}, NO_NUMPY),
], ids=["import-package", "import-cli", "finite-size", "wcs", "med", "keyrate-bounds"])
def test_each_command_loads_only_the_layers_it_runs(code, present, absent):
    proc = fresh_python(["-c", LOADED.format(code=code)], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert present <= loaded and not loaded & absent, sorted(loaded)


def test_importtime_reports_each_layer_loaded_on_first_use():
    proc = fresh_python(["-X", "importtime", "-c", "import dpsqkd; dpsqkd.med_attack"],
                        capture_output=True)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"dpsqkd.attacks", "dpsqkd.sdp", "dpsqkd.dps", "numpy"} <= timed


NAMESPACE = [
    "AttackProfile", "ChannelModel", "CloningResult", "DpsEnsemble",
    "FiniteSizeParams", "KktReport", "MedResult", "Povm", "SdpProblem", "SdpSolution",
    "UnitaryClonerParams", "WcsParams", "aligned_cloning_basis",
    "apply_unitary_cloner", "attacks", "binary_entropy",
    "collision_probability", "depolarizing_fit", "dps", "dps_ensemble",
    "finite_size_deviation", "ir_attack_profile", "keyrate", "keyrate_sweep", "linalg",
    "med_attack", "med_on_cloned", "mzi_click_distribution", "mzi_transfer",
    "optimal_cloner", "optimize_unitary_q", "partial_trace",
    "phase_mismatch_qber", "sdp", "secure_key_rate", "shrinking_factor",
    "slice_averaged_qber", "solve", "spectral_error_terms", "standard_attack_profiles",
    "tau_lower_bound", "unconditional_rate", "usd_block_identification", "usd_success",
    "verify_kkt", "wcs", "wcs_ir_fraction", "wcs_key_rates",
]


def test_package_namespace_lists_and_binds_every_name():
    assert sorted(dpsqkd.__all__) == NAMESPACE
    # before any name is resolved, in a fresh interpreter
    proc = fresh_python(["-c", "import dpsqkd, json; listed = dir(dpsqkd); star = {}; "
                               "exec('from dpsqkd import *', star); "
                               "print(json.dumps([listed, sorted(set(star) - {'__builtins__'})]))"],
                        capture_output=True)
    assert proc.returncode == 0, proc.stderr
    listed, star = json.loads(proc.stdout)
    assert set(NAMESPACE) <= set(listed)
    assert star == NAMESPACE


def test_package_names_are_their_layers_objects():
    assert dpsqkd.med_attack is dpsqkd.attacks.med_attack
    for name in NAMESPACE:
        value = getattr(dpsqkd, name)
        if inspect.ismodule(value):
            assert value is sys.modules[f"dpsqkd.{name}"], name
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
        assert value is vars(dpsqkd)[name], name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dpsqkd.no_such_name
