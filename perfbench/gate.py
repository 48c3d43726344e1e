"""Correctness gate: checks every benchmark output against a reference.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; a reason counts the task as failed.  References are closed
forms where the paper gives one, and values stored at commit 2c54073
(``references.json``) where it does not.  Checks take the reference table
as an argument so a deliberately wrong table can be shown to fail.

Only the standard library is used, so the driver can check CLI output
without importing numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-6
Q_OPT_TOL = 1e-3

REFERENCES = {
    "med_collision_n3": 13 / 18,
    "clone_avg_two_copy_fidelity": 7 / 9,
    "clone_per_state_fidelity": 17 / 21,
    "clone_med_after_p_success": 17 / 28,
    "unitary_q_opt": 0.233,
    **json.loads((Path(__file__).with_name("references.json")).read_text()),
}


def med_p_success(n: int) -> float:
    """Closed-form MED success probability of the n-pulse ensemble."""
    return n / 2 ** (n - 1)


def _off(name: str, got: float, want: float, tol: float = TOL) -> str | None:
    if not math.isfinite(got) or abs(got - want) > tol:
        return f"{name} = {got!r}, reference {want!r} (tol {tol:g})"
    return None


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def check_med(n: int, p_success: float, collision: float, kkt_passed: bool,
              refs: dict = REFERENCES) -> str | None:
    """MED of the n-pulse ensemble: p_success = n/2^(n-1); n=3 collision 13/18."""
    return _first(
        None if kkt_passed else f"MED n={n}: KKT certificate failed",
        _off(f"MED n={n} p_success", p_success, med_p_success(n)),
        _off("MED n=3 collision", collision, refs["med_collision_n3"]) if n == 3 else None,
    )


def check_dossier(n: int, profiles: dict[str, tuple[float, float]],
                  refs: dict = REFERENCES) -> str | None:
    """Four attack profiles against stored values; MED error is 1 - n/2^(n-1)."""
    stored = refs["dossier"][str(n)]
    if set(profiles) != set(stored):
        return f"dossier n={n}: attacks {sorted(profiles)} != {sorted(stored)}"
    reasons = [_off(f"dossier n={n} med per_intercept_error",
                    profiles["med"][0], 1.0 - med_p_success(n))]
    for name, (err, p_co) in profiles.items():
        reasons.append(_off(f"dossier n={n} {name} per_intercept_error", err, stored[name][0]))
        reasons.append(_off(f"dossier n={n} {name} collision", p_co, stored[name][1]))
    return _first(*reasons)


def _check_rows(what: str, rows: list[dict[str, float]], expected_rows: int) -> str | None:
    if len(rows) != expected_rows:
        return f"{what}: {len(rows)} rows, expected {expected_rows}"
    for row in rows:
        for key, val in row.items():
            if key.startswith("r_") and not val >= 0.0:
                return f"{what}: {key} = {val!r} < 0 at {row['distance_km']} km"
            if key.startswith("tau_") and not 0.0 <= val <= 1.0:
                return f"{what}: {key} = {val!r} outside [0, 1] at {row['distance_km']} km"
    return None


def _csv_rows(text: str) -> list[dict[str, float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def grid_size(start: float, stop: float, step: float) -> int:
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def check_cli(argv: list[str], stdout: str, refs: dict = REFERENCES) -> str | None:
    """Check one ``dpsqkd`` CLI report by its subcommand."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if opts.get("--format") == "csv":
        rows = _csv_rows(stdout)
        doc = rows[0] if len(rows) == 1 else {}
    else:
        doc = json.loads(stdout)
        rows = doc.get("rows", [])
    if command == "med":
        return check_med(int(opts["--n"]), doc["p_success"], doc["collision_probability"],
                         doc["kkt_passed"], refs)
    if command == "clone" and opts["--mode"] == "optimal":
        after = doc["med_after"]
        return _first(
            _off("avg_two_copy_fidelity", doc["avg_two_copy_fidelity"],
                 refs["clone_avg_two_copy_fidelity"]),
            *(_off("per_state_clone_fidelity", f, refs["clone_per_state_fidelity"])
              for f in doc["per_state_clone_fidelity"]),
            _off("med_after p_success", after["p_success"], refs["clone_med_after_p_success"]),
            *(_off("med_after confusion diagonal", p, refs["clone_med_after_p_success"])
              for p in after["confusion_diagonal"]),
        )
    if command == "clone":
        return _off("q_opt", doc["q_opt"], refs["unitary_q_opt"], Q_OPT_TOL)
    if command in ("keyrate", "wcs"):
        expected = grid_size(float(opts.get("--start-km", 0.0)),
                             float(opts.get("--stop-km", 150.0 if command == "keyrate" else 100.0)),
                             float(opts.get("--step-km", 10.0)))
        return _check_rows(command, rows, expected)
    if command == "finite-size":
        e_obs = float(opts.get("--e-obs", 0.02))
        return _first(
            _off("finite-size deviation", doc["deviation"], refs["finite_size_deviation"]),
            _off("finite-size e_key_bound", doc["e_key_bound"],
                 e_obs + refs["finite_size_deviation"]),
        )
    return f"no check for subcommand {command!r}"
