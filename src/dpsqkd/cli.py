"""Command-line front end.

Subcommands mirror the analyses: ``med``, ``clone``, ``keyrate``,
``finite-size`` and ``wcs``.  Every report embeds the fully resolved
configuration, floats are rendered with 12 significant digits, and identical
configurations produce byte-identical output.

Configuration may come from a flat key=value file with ``[section]`` headers
(channel keys in ``[channel]``), selected with ``--config`` or the
``DPSQKD_CONFIG`` environment variable; command-line flags override file
values.  Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Mapping, Sequence

import numpy as np

from . import attacks, wcs
from .dps import ber_of_state, dps_ensemble, spectral_error_terms
from .keyrate import (MAX_ATTACK_PULSES, ChannelModel, FiniteSizeParams,
                      finite_size_deviation, keyrate_sweep)
from .sdp import SdpError

CONFIG_ENV = "DPSQKD_CONFIG"
EXIT_CONFIG = 2
EXIT_SOLVER = 3
MAX_GRID_POINTS = 100_000

_CHANNEL_KEYS = {
    "loss_db_per_km": float,
    "dark_count_prob": float,
    "detector_efficiency": float,
    "baseline_error": float,
    "f_ec": float,
    "n_pulses": int,
}


class ConfigError(Exception):
    pass


def _fmt(value: Any) -> Any:
    """12-significant-digit float rendering for deterministic output."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, complex):
        return [_fmt(value.real), _fmt(value.imag)]
    return value


def _emit_json(doc: dict, out) -> None:
    json.dump(_fmt(doc), out, sort_keys=True, indent=1)
    out.write("\n")


def _emit_csv(rows: Sequence[Mapping[str, float]], config: Mapping[str, Any], out) -> None:
    for key in sorted(config):
        out.write(f"# {key}={config[key]}\n")
    if not rows:
        return
    header = list(rows[0].keys())
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(format(float(row[h]), ".12g") for h in header) + "\n")


def _parse_config_file(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = "channel"
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            sections.setdefault(current, {})[key.strip()] = value.strip()
    return sections


def _channel_from_config(args: argparse.Namespace) -> tuple[ChannelModel, dict[str, Any]]:
    values: dict[str, Any] = {}
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        sections = _parse_config_file(path)
        unknown_sections = set(sections) - {"channel", "run"}
        if unknown_sections:
            raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
        for key, raw in sections.get("channel", {}).items():
            if key not in _CHANNEL_KEYS:
                raise ConfigError(f"unknown channel key {key!r}")
            values[key] = _CHANNEL_KEYS[key](raw)
    for key in _CHANNEL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        model = ChannelModel(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {k: getattr(model, k) for k in _CHANNEL_KEYS}
    return model, resolved


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss-db-per-km", dest="loss_db_per_km", type=float)
    p.add_argument("--dark-count-prob", dest="dark_count_prob", type=float)
    p.add_argument("--detector-efficiency", dest="detector_efficiency", type=float)
    p.add_argument("--baseline-error", dest="baseline_error", type=float)
    p.add_argument("--f-ec", dest="f_ec", type=float)
    p.add_argument("--n-pulses", dest="n_pulses", type=int)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None, help="key=value configuration file")


def _distances(args: argparse.Namespace) -> list[float]:
    if not all(math.isfinite(v) for v in (args.start_km, args.stop_km, args.step_km)):
        raise ConfigError("distance grid bounds and step must be finite")
    if args.stop_km < args.start_km:
        raise ConfigError("distance grid is empty (stop < start)")
    if args.step_km <= 0:
        raise ConfigError("distance step must be positive")
    if (args.stop_km - args.start_km) / args.step_km >= MAX_GRID_POINTS:
        raise ConfigError(f"distance grid has more than {MAX_GRID_POINTS} points")
    out, d = [], args.start_km
    while d <= args.stop_km + 1e-9:
        out.append(round(d, 9))
        d += args.step_km
    return out


def _finite_size(spec: str | None) -> FiniteSizeParams | None:
    if spec is None:
        return None
    fields: dict[str, float] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"finite-size spec needs n=..,k=..,eps=.. (got {part!r})")
        key, _, value = part.partition("=")
        try:
            fields[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"finite-size value for {key.strip()!r} is not a number") from exc
    missing = {"n", "k", "eps"} - set(fields)
    if missing:
        raise ConfigError(f"finite-size spec is missing {sorted(missing)}")
    try:
        return FiniteSizeParams(n_key=int(fields["n"]), k_pe=int(fields["k"]),
                                eps_prime=fields["eps"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_med(args: argparse.Namespace, out) -> int:
    if not 3 <= args.n <= MAX_ATTACK_PULSES:
        raise ConfigError(f"pulse count for med must lie in [3, {MAX_ATTACK_PULSES}]")
    ens = dps_ensemble(args.n)
    result = attacks.med_attack(ens)
    doc = {"config": {"command": "med", "n": args.n}, **attacks.med_result_doc(result)}
    if args.format == "json":
        _emit_json(doc, out)
    else:
        rows = [{"state": float(i), **{f"p_outcome_{j + 1}": result.confusion[i, j]
                                       for j in range(result.confusion.shape[1])}}
                for i in range(result.confusion.shape[0])]
        _emit_csv(rows, {"command": "med", "n": args.n,
                         "p_success": format(result.p_success, ".12g"),
                         "collision_probability": format(result.collision_probability, ".12g")},
                  out)
    return 0


def _cmd_clone(args: argparse.Namespace, out) -> int:
    ens = dps_ensemble(3)
    doc: dict[str, Any] = {"config": {"command": "clone", "mode": args.mode}}
    if args.mode == "optimal":
        result = attacks.optimal_cloner(ens)
        med_after = attacks.med_on_cloned(result.eve_states, ens.priors, ens.bit_map)
        fits = [attacks.depolarizing_fit(ens.density(i), result.bob_states[i])
                for i in range(len(ens.states))]
        doc.update({
            "avg_two_copy_fidelity": result.avg_two_copy_fidelity,
            "per_state_clone_fidelity": result.per_state_clone_fidelity,
            "bob_states": [attacks._complex_matrix_json(b) for b in result.bob_states],
            "depolarizing_p": [p for p, _ in fits],
            "depolarizing_residual": [r for _, r in fits],
            "ber": [ber_of_state(result.bob_states[i], i, ens)
                    for i in range(len(ens.states))],
            "ber_conditional": [ber_of_state(result.bob_states[i], i, ens, conditional=True)
                                for i in range(len(ens.states))],
            "spectral_error_terms": spectral_error_terms(result.bob_states[0], 0, ens),
            "med_after": {
                "p_success": med_after.p_success,
                "collision_probability": med_after.collision_probability,
                "confusion_diagonal": [float(med_after.confusion[i, i])
                                       for i in range(len(ens.states))],
            },
        })
    else:
        basis = attacks.aligned_cloning_basis(ens)
        q_opt, avg_fid = attacks.optimize_unitary_q(ens, basis)
        params = attacks.UnitaryClonerParams(d=3, q=q_opt, basis=basis)
        bobs = [attacks.apply_unitary_cloner(params, s)[0] for s in ens.states]
        med_after = attacks.med_on_cloned(bobs, ens.priors, ens.bit_map)
        doc.update({
            "q_opt": q_opt,
            "p_coefficient": params.p,
            "unitarity_residual": params.unitarity_residual(),
            "avg_clone_fidelity": avg_fid,
            "bob_states": [attacks._complex_matrix_json(b) for b in bobs],
            "ber": [ber_of_state(bobs[i], i, ens) for i in range(len(ens.states))],
            "ber_conditional": [ber_of_state(bobs[i], i, ens, conditional=True)
                                for i in range(len(ens.states))],
            "med_after": {
                "p_success": med_after.p_success,
                "collision_probability": med_after.collision_probability,
                "confusion_diagonal": [float(med_after.confusion[i, i])
                                       for i in range(len(ens.states))],
            },
        })
    if args.format == "json":
        _emit_json(doc, out)
    else:
        flat: dict[str, float] = {}
        for key, val in doc.items():
            if isinstance(val, float):
                flat[key] = val
            elif isinstance(val, list) and val and isinstance(val[0], float):
                for i, v in enumerate(val):
                    flat[f"{key}_{i}"] = v
        _emit_csv([flat], doc["config"], out)
    return 0


def _cmd_keyrate(args: argparse.Namespace, out) -> int:
    model, resolved = _channel_from_config(args)
    wanted = [a.strip() for a in args.attacks.split(",") if a.strip()]
    profiles = attacks.standard_attack_profiles(model.n_pulses)
    unknown = set(wanted) - (set(profiles) | {"lower-bound", "unconditional"})
    if unknown:
        raise ConfigError(f"unknown attacks: {sorted(unknown)}")
    selected = [profiles[name] for name in wanted if name in profiles]
    include_bounds = bool({"lower-bound", "unconditional"} & set(wanted))
    fs = _finite_size(args.finite_size)
    try:
        rows = keyrate_sweep(model, selected, _distances(args), finite_size=fs,
                             include_bounds=include_bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = {"command": "keyrate", **resolved,
              "attacks": ",".join(wanted),
              "start_km": args.start_km, "stop_km": args.stop_km,
              "step_km": args.step_km, "finite_size": args.finite_size or ""}
    if args.format == "json":
        _emit_json({"config": config, "rows": rows}, out)
    else:
        _emit_csv(rows, config, out)
    return 0


def _cmd_finite_size(args: argparse.Namespace, out) -> int:
    fs = _finite_size(args.params)
    if fs is None:
        raise ConfigError("finite-size needs --params n=..,k=..,eps=..")
    try:
        t = finite_size_deviation(fs, args.e_obs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    doc = {
        "config": {"command": "finite-size", "n": fs.n_key, "k": fs.k_pe,
                   "eps": fs.eps_prime, "e_obs": args.e_obs},
        "deviation": t,
        "e_key_bound": args.e_obs + t,
    }
    if args.format == "json":
        _emit_json(doc, out)
    else:
        _emit_csv([{"deviation": t, "e_key_bound": args.e_obs + t}],
                  doc["config"], out)
    return 0


def _cmd_wcs(args: argparse.Namespace, out) -> int:
    model, resolved = _channel_from_config(args)
    wanted = tuple(a.strip() for a in args.attack.split(",") if a.strip())
    try:
        params = wcs.WcsParams(mean_photon_number=args.mu, slices=args.slices)
        rows = wcs.wcs_key_rates(params, model, _distances(args), attacks=wanted)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = {"command": "wcs", **resolved, "mu": args.mu, "slices": args.slices,
              "attack": ",".join(wanted), "start_km": args.start_km,
              "stop_km": args.stop_km, "step_km": args.step_km}
    if args.format == "json":
        _emit_json({"config": config, "rows": rows,
                    "slice_averaged_qber": wcs.slice_averaged_qber(params),
                    "usd_success": wcs.usd_success(args.mu)}, out)
    else:
        _emit_csv(rows, config, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsqkd",
        description="Security of differential-phase-shift QKD against explicit "
                    "individual attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_med = sub.add_parser("med", help="minimum-error discrimination of the signal states")
    p_med.add_argument("--n", type=int, default=3)
    _add_common(p_med)

    p_clone = sub.add_parser("clone", help="optimal or unitary cloning attack dossier")
    p_clone.add_argument("--mode", choices=("optimal", "unitary"), default="optimal")
    _add_common(p_clone)

    p_key = sub.add_parser("keyrate", help="secure key rate and shrinking factors vs distance")
    p_key.add_argument("--attacks", default="ir,med,cloning,unitary,lower-bound,unconditional")
    p_key.add_argument("--start-km", dest="start_km", type=float, default=0.0)
    p_key.add_argument("--stop-km", dest="stop_km", type=float, default=150.0)
    p_key.add_argument("--step-km", dest="step_km", type=float, default=10.0)
    p_key.add_argument("--finite-size", dest="finite_size", default=None,
                       help="n=..,k=..,eps=..")
    _add_channel_flags(p_key)
    _add_common(p_key)

    p_fs = sub.add_parser("finite-size", help="parameter-estimation deviation")
    p_fs.add_argument("--params", required=True, help="n=..,k=..,eps=..")
    p_fs.add_argument("--e-obs", dest="e_obs", type=float, default=0.02)
    _add_common(p_fs)

    p_wcs = sub.add_parser("wcs", help="weak-coherent-state analysis")
    p_wcs.add_argument("--mu", type=float, default=0.4)
    p_wcs.add_argument("--slices", type=int, default=16)
    p_wcs.add_argument("--attack", default="ir,usd,phase-randomized")
    p_wcs.add_argument("--start-km", dest="start_km", type=float, default=0.0)
    p_wcs.add_argument("--stop-km", dest="stop_km", type=float, default=100.0)
    p_wcs.add_argument("--step-km", dest="step_km", type=float, default=10.0)
    _add_channel_flags(p_wcs)
    _add_common(p_wcs)

    return parser


_HANDLERS = {
    "med": _cmd_med,
    "clone": _cmd_clone,
    "keyrate": _cmd_keyrate,
    "finite-size": _cmd_finite_size,
    "wcs": _cmd_wcs,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                return handler(args, out)
        return handler(args, sys.stdout)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SdpError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
