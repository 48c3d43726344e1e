"""Command-line front end.

Subcommands mirror the analyses: ``med``, ``clone``, ``keyrate``,
``finite-size`` and ``wcs``.  Every report embeds the fully resolved
configuration, floats are rendered with 12 significant digits, and identical
configurations produce byte-identical output.  Each subcommand returns its
report as data; :func:`main` alone renders it as JSON or CSV and writes it,
to ``--output`` only once the run has succeeded.  At start-up the module
loads only :mod:`dpsqkd.keyrate`; each handler imports the layers it runs,
so ``finite-size`` and ``wcs`` run without numpy or the SDP solver.

The channel sweeps ``keyrate`` and ``wcs`` may read their channel from a
key=value file whose one section is ``[channel]``, each key given at most
once, named only by ``--config``; command-line flags override file values.
The other subcommands read no channel and reject ``--config``.  Exit codes:
0 success, 2 configuration error (including an unreadable configuration
file and an ``--output`` or stdout that cannot take the report), 3 solver
failure or an uncertified optimum.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Iterator, Mapping, Sequence

from .keyrate import (EXPLICIT_ATTACKS, LOWER_BOUND, MAX_ATTACK_PULSES, UNCONDITIONAL,
                      ChannelModel, FiniteSizeParams, finite_size_deviation, keyrate_sweep)

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


# A subcommand's report: the JSON document, the CSV rows and the CSV header.
Report = tuple[dict, list[Mapping[str, float]], Mapping[str, Any]]


class ConfigError(Exception):
    pass


def _fmt(value: Any) -> Any:
    """12-significant-digit float rendering for deterministic output; a
    negative zero renders as 0.0, an array or a numpy scalar as the plain
    values of its ``tolist``, and a complex number as its [real, imag] pair."""
    if isinstance(value, float):
        return float(format(value, ".12g")) + 0.0
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if hasattr(value, "tolist"):
        return _fmt(value.tolist())
    if isinstance(value, complex):
        return [_fmt(value.real), _fmt(value.imag)]
    return value


def _render(report: Report, fmt: str) -> Iterator[str]:
    """The report as JSON, or as CSV: sorted ``# key=value`` header lines,
    then the rows under their column names.  Yielded piece by piece, so a
    long sweep is written as it is encoded rather than held whole."""
    doc, rows, header = report
    if fmt == "json":
        yield from json.JSONEncoder(sort_keys=True, indent=1).iterencode(_fmt(doc))
        yield "\n"
        return
    for key in sorted(header):
        yield f"# {key}={header[key]}\n"
    columns = list(rows[0])  # every subcommand reports at least one row
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(format(float(row[c]), ".12g") for c in columns) + "\n"


def _configured(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with a library ``ValueError`` (an input
    outside its physical domain) reported as a configuration error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _channel_from_config(args: argparse.Namespace,
                         signal_scale: float = 1.0) -> tuple[ChannelModel, dict[str, Any]]:
    """The channel of a sweep: the ``[channel]`` keys of ``--config``,
    overridden by flags."""
    path = args.config
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        for lineno, text in enumerate(lines, 1):
            line = text.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                if line[1:-1].strip() != "channel":
                    raise ConfigError(f"unknown config sections: {[line[1:-1].strip()]}")
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = (t.strip() for t in line.partition("="))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: channel key {key!r} is given twice")
            raw[key] = value
    values: dict[str, Any] = {}
    for key, text in raw.items():
        kind = _CHANNEL_KEYS.get(key)
        if kind is None:
            raise ConfigError(f"unknown channel key {key!r}")
        try:
            values[key] = kind(text)
        except ValueError as exc:
            raise ConfigError(f"channel key {key!r} needs {kind.__name__}, got {text!r}") from exc
    for key in _CHANNEL_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    model = _configured(ChannelModel, **values, signal_scale=signal_scale)
    return model, {k: getattr(model, k) for k in _CHANNEL_KEYS}


def _add_common(p: argparse.ArgumentParser, handler: Callable[..., Report]) -> None:
    p.set_defaults(handler=handler)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _add_sweep(p: argparse.ArgumentParser, stop_km: float) -> None:
    """The distance grid and the channel of ``keyrate`` and ``wcs``, the two
    subcommands that read a channel and so the only ones with ``--config``."""
    p.add_argument("--start-km", type=float, default=0.0)
    p.add_argument("--stop-km", type=float, default=stop_km)
    p.add_argument("--step-km", type=float, default=10.0)
    for key, kind in _CHANNEL_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--config", default=None, help="key=value configuration file")


def _distances(args: argparse.Namespace) -> list[float]:
    """start + i step, rounded to 1e-9 km, up to stop + 1e-9 km: counted
    before any point is made, and rejected if a rounded point repeats, with
    the message naming the rounding when the unrounded points differ and
    the float resolution when they do not."""
    start, stop, step = args.start_km, args.stop_km, args.step_km
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError("distance grid bounds and step must be finite")
    if stop < start:
        raise ConfigError("distance grid is empty (stop < start)")
    if step <= 0:
        raise ConfigError("distance step must be positive")
    span = (stop - start + 1e-9) / step
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"distance grid has more than {MAX_GRID_POINTS} points")
    raw = [start + i * step for i in range(int(span) + 1)]
    out = [round(d, 9) for d in raw]
    for i, (d, following) in enumerate(zip(out, out[1:])):
        if following == d:
            limit = ("the 1e-9 km rounding of the distances" if raw[i + 1] != raw[i]
                     else "the float resolution")
            raise ConfigError(f"distance step {step:g} km is below {limit} at {d:g} km")
    return out


def _finite_size(spec: str | None) -> FiniteSizeParams | None:
    if spec is None:
        return None
    fields: dict[str, float] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"finite-size spec needs n=..,k=..,eps=.. (got {part!r})")
        key, _, value = (t.strip() for t in part.partition("="))
        if key not in ("n", "k", "eps"):
            raise ConfigError(f"unknown finite-size key {key!r} (expected n, k, eps)")
        if key in fields:
            raise ConfigError(f"finite-size key {key!r} is given twice")
        try:
            fields[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"finite-size value for {key!r} is not a number") from exc
    missing = {"n", "k", "eps"} - set(fields)
    if missing:
        raise ConfigError(f"finite-size spec is missing {sorted(missing)}")
    return _configured(FiniteSizeParams, n_key=fields["n"], k_pe=fields["k"],
                       eps_prime=fields["eps"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_med(args: argparse.Namespace) -> Report:
    from . import attacks
    from .dps import dps_ensemble
    if not 3 <= args.n <= MAX_ATTACK_PULSES:
        raise ConfigError(f"pulse count for med must lie in [3, {MAX_ATTACK_PULSES}]")
    result = attacks.certified("med", attacks.med_attack, dps_ensemble(args.n))
    doc = {"config": {"command": "med", "n": args.n}, "p_success": result.p_success,
           "collision_probability": result.collision_probability,
           "confusion": result.confusion, "povm": result.povm.elements,
           "kkt_passed": result.kkt.passed}
    rows = [{"state": float(i), **{f"p_outcome_{j + 1}": p for j, p in enumerate(row)}}
            for i, row in enumerate(result.confusion)]
    return doc, rows, {"command": "med", "n": args.n,
                       "p_success": format(result.p_success, ".12g"),
                       "collision_probability": format(result.collision_probability, ".12g")}


def _cmd_clone(args: argparse.Namespace) -> Report:
    from . import attacks
    from .dps import dps_ensemble, spectral_error_terms
    ens = dps_ensemble(3)
    doc: dict[str, Any] = {"config": {"command": "clone", "mode": args.mode}}
    if args.mode == "optimal":
        attack = attacks.optimal_cloning_attack(ens)
        fits = [attacks.depolarizing_fit(ens.densities[i], b)
                for i, b in enumerate(attack.bob_states)]
        doc.update({
            "avg_two_copy_fidelity": attack.fidelity,
            "per_state_clone_fidelity": attack.cloner.per_state_clone_fidelity,
            "depolarizing_p": [p for p, _ in fits],
            "depolarizing_residual": [r for _, r in fits],
            "spectral_error_terms": spectral_error_terms(attack.bob_states[0], 0, ens),
        })
    else:
        attack = attacks.unitary_cloning_attack(ens)
        doc.update({
            "q_opt": attack.cloner.q,
            "p_coefficient": attack.cloner.p,
            "unitarity_residual": attack.cloner.unitarity_residual(),
            "avg_clone_fidelity": attack.fidelity,
        })
    doc.update({
        "bob_states": attack.bob_states,
        "ber": attack.ber(),
        "ber_conditional": attack.ber(conditional=True),
        "med_after": {
            "p_success": attack.med_after.p_success,
            "collision_probability": attack.med_after.collision_probability,
            "confusion_diagonal": attack.med_after.confusion.diagonal(),
        },
    })
    # one CSV row: the float fields, and each list of floats as key_0, key_1, ...
    flat: dict[str, float] = {}
    for key, val in doc.items():
        if isinstance(val, float):
            flat[key] = val
        elif isinstance(val, list) and val and isinstance(val[0], float):
            for i, v in enumerate(val):
                flat[f"{key}_{i}"] = v
    return doc, [flat], doc["config"]


def _cmd_keyrate(args: argparse.Namespace) -> Report:
    model, resolved = _channel_from_config(args)
    wanted = [a.strip() for a in args.attacks.split(",") if a.strip()]
    unknown = set(wanted) - {*EXPLICIT_ATTACKS, LOWER_BOUND, UNCONDITIONAL}
    if unknown:
        raise ConfigError(f"unknown attacks: {sorted(unknown)}")
    fs, distances = _finite_size(args.finite_size), _distances(args)
    explicit = [name for name in dict.fromkeys(wanted) if name in EXPLICIT_ATTACKS]
    profiles = {}
    if explicit:  # the bounds alone need neither the attack layers nor numpy
        from . import attacks, dps
        ens = dps.dps_ensemble(model.n_pulses)
        profiles = {name: attacks.ATTACK_PROFILES[name](ens) for name in explicit}
    rows = _configured(keyrate_sweep, model, list(profiles.values()), distances,
                       finite_size=fs, bounds=set(wanted) - set(profiles))
    config = {"command": "keyrate", **resolved,
              "attacks": ",".join(wanted),
              "start_km": args.start_km, "stop_km": args.stop_km,
              "step_km": args.step_km, "finite_size": args.finite_size or ""}
    return {"config": config, "rows": rows}, rows, config


def _cmd_finite_size(args: argparse.Namespace) -> Report:
    fs = _finite_size(args.params)
    t = _configured(finite_size_deviation, fs, args.e_obs)
    config = {"command": "finite-size", "n": fs.n_key, "k": fs.k_pe,
              "eps": fs.eps_prime, "e_obs": args.e_obs}
    figures = {"deviation": t, "e_key_bound": args.e_obs + t}
    return {"config": config, **figures}, [figures], config


def _cmd_wcs(args: argparse.Namespace) -> Report:
    from . import wcs
    params = _configured(wcs.WcsParams, mean_photon_number=args.mu, slices=args.slices)
    # the channel checks its click probability at the source intensity
    model, resolved = _channel_from_config(args, params.mean_photon_number)
    wanted = tuple(a.strip() for a in args.attack.split(",") if a.strip())
    rows = _configured(wcs.wcs_key_rates, params, model, _distances(args), attacks=wanted)
    config = {"command": "wcs", **resolved, "mu": args.mu, "slices": args.slices,
              "attack": ",".join(wanted), "start_km": args.start_km,
              "stop_km": args.stop_km, "step_km": args.step_km}
    return ({"config": config, "rows": rows,
             "slice_averaged_qber": wcs.slice_averaged_qber(params),
             "usd_success": wcs.usd_success(args.mu)}, rows, config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsqkd",
        description="Security of differential-phase-shift QKD against explicit "
                    "individual attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_med = sub.add_parser("med", help="minimum-error discrimination of the signal states")
    p_med.add_argument("--n", type=int, default=3)
    _add_common(p_med, _cmd_med)

    p_clone = sub.add_parser("clone", help="optimal or unitary cloning attack dossier")
    p_clone.add_argument("--mode", choices=("optimal", "unitary"), default="optimal")
    _add_common(p_clone, _cmd_clone)

    p_key = sub.add_parser("keyrate", help="secure key rate and shrinking factors vs distance")
    p_key.add_argument("--attacks",
                       default=",".join([*EXPLICIT_ATTACKS, LOWER_BOUND, UNCONDITIONAL]))
    p_key.add_argument("--finite-size", dest="finite_size", default=None,
                       help="n=..,k=..,eps=..")
    _add_sweep(p_key, stop_km=150.0)
    _add_common(p_key, _cmd_keyrate)

    p_fs = sub.add_parser("finite-size", help="parameter-estimation deviation")
    p_fs.add_argument("--params", required=True, help="n=..,k=..,eps=..")
    p_fs.add_argument("--e-obs", dest="e_obs", type=float, default=0.02)
    _add_common(p_fs, _cmd_finite_size)

    p_wcs = sub.add_parser("wcs", help="weak-coherent-state analysis")
    p_wcs.add_argument("--mu", type=float, default=0.4)
    p_wcs.add_argument("--slices", type=int, default=16)
    p_wcs.add_argument("--attack", default="ir,usd,phase-randomized")
    _add_sweep(p_wcs, stop_km=100.0)
    _add_common(p_wcs, _cmd_wcs)

    return parser


def _solver_error() -> type[Exception] | tuple[()]:
    """``SdpError`` once the solver is loaded, else no class at all: no solver
    failure can be raised before :mod:`dpsqkd.sdp` is imported."""
    sdp = sys.modules.get("dpsqkd.sdp")
    return sdp.SdpError if sdp is not None else ()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                out.writelines(_render(report, args.format))
        else:
            # flushed here, so a full stdout fails inside the mapping below
            # rather than at interpreter exit
            sys.stdout.writelines(_render(report, args.format))
            sys.stdout.flush()
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _solver_error() as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return 0


if __name__ == "__main__":
    sys.exit(main())
