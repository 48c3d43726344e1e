"""Command-line front end.

Subcommands mirror the analyses: ``med``, ``clone``, ``keyrate``,
``finite-size`` and ``wcs``.  Every report embeds the fully resolved
configuration, floats are rendered with 12 significant digits, and identical
configurations produce byte-identical output.  Each subcommand returns its
report as data; :func:`main` alone renders it as JSON or CSV and writes it,
to ``--output`` only once the run has succeeded.  At start-up the module
loads only :mod:`dpsqkd.keyrate`; each handler imports the layers it runs,
so ``finite-size`` and ``wcs`` run without numpy or the SDP solver.
The library's arrays are float64; the report boundary alone makes complex
ones, the POVM of ``med`` and Bob's states of ``clone``, so each of their
entries renders as a [real, imag] pair, the report format.

One grammar reads both ``key=value`` inputs, the lines of a ``--config``
file and the comma-separated items of a finite-size spec: spaces around a
key or value are dropped, and the first item without ``=``, with a key
given twice or unknown, or with a value of the wrong kind is an error,
and in a config file the message begins with its ``path:lineno:``.  A
config file also allows blank lines, full-line ``#`` comments and
``[channel]`` headers; any other header is an error.  Only ``keyrate`` and
``wcs`` read a channel, whose file values flags override; the others reject
``--config``.  Exit codes: 0 success, 2 configuration error (including an
unreadable configuration file and an ``--output`` or stdout that cannot
take the report), 3 solver failure or an uncertified optimum.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .keyrate import (EXPLICIT_ATTACKS, LOWER_BOUND, UNCONDITIONAL, ChannelModel,
                      FiniteSizeParams, finite_size_deviation, keyrate_sweep)

EXIT_CONFIG = 2
EXIT_SOLVER = 3
MAX_GRID_POINTS = 100_000
# The med report prints all 2**(n-1) POVM elements and the 2**(n-1) x 2**(n-1)
# confusion table: at n = 12, 103 MB of stdout in 20.7 s and 883 MB (2 vCPUs).
MAX_MED_REPORT_PULSES = 6

_CHANNEL_KEYS = {
    "loss_db_per_km": float,
    "dark_count_prob": float,
    "detector_efficiency": float,
    "baseline_error": float,
    "f_ec": float,
    "n_pulses": int,
}
_FINITE_SIZE_KEYS = {"n": float, "k": float, "eps": float}


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


def _key_values(items: Iterable[tuple[str, str]], kinds: Mapping[str, type],
                what: str) -> dict[str, Any]:
    """``{key: kinds[key](value)}`` of ``(position, "key=value")`` items, read
    in order: the first item without ``=``, with a key given before, with a
    key outside ``kinds`` or with a value its kind rejects is an error."""
    values: dict[str, Any] = {}
    for where, item in items:
        key, eq, text = (t.strip() for t in item.partition("="))
        if not eq:
            raise ConfigError(f"{where}expected key=value, got {item!r}")
        if key in values:
            raise ConfigError(f"{where}{what} key {key!r} is given twice")
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"{where}unknown {what} key {key!r}")
        try:
            values[key] = kind(text)
        except ValueError as exc:
            raise ConfigError(
                f"{where}{what} key {key!r} needs {kind.__name__}, got {text!r}") from exc
    return values


def _config_lines(path: str) -> Iterator[tuple[str, str]]:
    """The key=value lines of a config file, each after its ``path:lineno: ``
    position; blank lines, ``#`` comments and ``[channel]`` headers are
    skipped, and any other header is an error where it stands."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, text in enumerate(lines, 1):
        line = text.strip()
        if line.startswith("[") and line.endswith("]"):
            if line[1:-1].strip() != "channel":
                raise ConfigError(f"unknown config sections: {[line[1:-1].strip()]}")
        elif line and not line.startswith("#"):
            yield f"{path}:{lineno}: ", line


def _sweep(args: argparse.Namespace, command: str,
           signal_scale: float = 1.0) -> tuple[ChannelModel, list[float], dict[str, Any]]:
    """The front end of the channel sweeps ``keyrate`` and ``wcs``: the channel
    (the ``[channel]`` keys of ``--config``, overridden by flags), the
    distance grid, and the configuration their reports embed."""
    items = _config_lines(args.config) if args.config is not None else ()
    values = _key_values(items, _CHANNEL_KEYS, "channel")
    values.update({k: getattr(args, k) for k in _CHANNEL_KEYS if getattr(args, k) is not None})
    model = _configured(ChannelModel, **values, signal_scale=signal_scale)
    config = {"command": command, **{k: getattr(model, k) for k in _CHANNEL_KEYS},
              "start_km": args.start_km, "stop_km": args.stop_km, "step_km": args.step_km}
    return model, _distances(args), config


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


def _finite_size(spec: str) -> FiniteSizeParams:
    fields = _key_values([("", part) for part in spec.split(",")], _FINITE_SIZE_KEYS, "finite-size")
    missing = _FINITE_SIZE_KEYS.keys() - fields.keys()
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
    if args.n > MAX_MED_REPORT_PULSES:
        raise ConfigError(f"the med report prints 2**(n-1) POVM elements and a 2**(n-1) x "
                          f"2**(n-1) confusion table, so it stops at n = {MAX_MED_REPORT_PULSES}")
    result = attacks.certified("med", attacks.med_attack, _configured(dps_ensemble, args.n))
    doc = {"config": {"command": "med", "n": args.n}, "p_success": result.p_success,
           "collision_probability": result.collision_probability,
           "confusion": result.confusion, "povm": result.povm.elements.astype(complex),
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
        "bob_states": attack.bob_states.astype(complex),
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
    model, distances, config = _sweep(args, "keyrate")
    wanted = [a.strip() for a in args.attacks.split(",") if a.strip()]
    unknown = set(wanted) - {*EXPLICIT_ATTACKS, LOWER_BOUND, UNCONDITIONAL}
    if unknown:
        raise ConfigError(f"unknown attacks: {sorted(unknown)}")
    fs = _finite_size(args.finite_size) if args.finite_size is not None else None
    explicit = [name for name in dict.fromkeys(wanted) if name in EXPLICIT_ATTACKS]
    profiles = {}
    if explicit:  # the bounds alone need neither the attack layers nor numpy
        from . import attacks, dps
        ens = dps.dps_ensemble(model.n_pulses)
        profiles = {name: attacks.ATTACK_PROFILES[name](ens) for name in explicit}
    rows = _configured(keyrate_sweep, model, list(profiles.values()), distances,
                       finite_size=fs, bounds=set(wanted) - set(profiles))
    config.update(attacks=",".join(wanted), finite_size=args.finite_size or "")
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
    model, distances, config = _sweep(args, "wcs", params.mean_photon_number)
    wanted = tuple(a.strip() for a in args.attack.split(",") if a.strip())
    rows = _configured(wcs.wcs_key_rates, params, model, distances, attacks=wanted)
    config.update(mu=args.mu, slices=args.slices, attack=",".join(wanted))
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
