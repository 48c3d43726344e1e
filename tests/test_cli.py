import json

import pytest

from dpsqkd import attacks, sdp
from dpsqkd.cli import main
from dpsqkd.sdp import KktReport, SdpError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    code, out, err = run_cli(capsys, "med", "--n", "3")
    assert code == 3 and out == ""
    assert err.startswith("solver failure: ")
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
    ]:
        code, _, err = run_cli(capsys, "keyrate", *argv)
        assert code == 2, argv
        assert "configuration error" in err and message in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[channel]\ndetector_efficiency = 0.2\nbaseline_error = 0.02\n")
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
    cfg = tmp_path / "env.cfg"
    cfg.write_text("[channel]\ndark_count_prob = 2e-6\n")
    monkeypatch.setenv("DPSQKD_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "keyrate", "--attacks", "ir",
                           "--start-km", "0", "--stop-km", "0", "--step-km", "1")
    assert code == 0
    assert json.loads(out)["config"]["dark_count_prob"] == 2e-6


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[channel]\nfibre_colour = blue\n")
    code, _, err = run_cli(capsys, "keyrate", "--config", str(cfg))
    assert code == 2
    assert "unknown channel key" in err


def test_finite_size_command(capsys):
    code, out, _ = run_cli(capsys, "finite-size", "--params", "n=1e6,k=1e4,eps=1e-9",
                           "--e-obs", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["deviation"] == pytest.approx(0.0082449248, abs=1e-9)
    assert doc["e_key_bound"] == pytest.approx(0.02 + doc["deviation"], abs=1e-12)


def test_finite_size_command_bad_spec(capsys):
    for argv, message in [
        (("--params", "n=1e6"), "missing"),
        (("--params", "n=abc,k=1e4,eps=1e-9"), "not a number"),
        (("--params", "n=1e6,k=1e4,eps=0.999", "--e-obs", "0.4"), "log argument"),
    ]:
        code, _, err = run_cli(capsys, "finite-size", *argv)
        assert code == 2, argv
        assert message in err


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


def test_output_file(tmp_path, capsys):
    path = tmp_path / "med.json"
    code = main(["med", "--n", "3", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["p_success"] == pytest.approx(0.75, abs=1e-6)


def test_wcs_bad_source_and_channel(capsys):
    for argv, message in [
        (("--mu", "nan"), "mean photon number"),
        (("--mu", "inf"), "mean photon number"),
        (("--f-ec", "nan"), "error correction"),
        (("--loss-db-per-km", "inf"), "fibre loss"),
        (("--mu", "0.9", "--detector-efficiency", "1", "--dark-count-prob", "0.2"),
         "click probability 1.1 exceeds 1"),
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
