"""Span tracer that wraps ``dpsqkd``'s public functions from outside.

Every function exported by ``dpsqkd.__all__``, plus ``cli.main`` and the two
SDP builders in ``attacks``, is replaced by a wrapper in every module that
holds a reference to it, so calls through ``from .linalg import
eig_hermitian`` in ``attacks`` are caught as well as calls through
``sdp.solve``.  A wrapper records one span (id, parent id, name, start,
end); self time is a span's duration minus the durations of the spans whose
parent it is.  The program itself is not changed.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time
from collections import defaultdict

LAYERS = ("linalg", "sdp", "dps", "attacks", "keyrate", "wcs", "cli")
EXTRA = (("attacks", "med_problem"), ("attacks", "cloning_problem"), ("cli", "main"))

# Exact counts read off a function's result: span name -> (counter, getter).
RESULT_COUNTERS = {
    "sdp.solve": ("iterations", lambda r: r.iterations),
    "sdp.verify_kkt": ("passed", lambda r: int(r.passed)),
    "keyrate.keyrate_sweep": ("rows", len),
}

# Per-layer metrics: name -> (unit, better).  A derived metric names no span
# of its own; see ``layer_metrics``.
METRICS = {
    "sdp.solve.self_s": ("s", "lower"),
    "sdp.solve.calls": ("count", "lower"),
    "sdp.solve.iterations": ("count", "lower"),
    "sdp.solve.s_per_iteration": ("s", "lower"),
    "sdp.assembly_s": ("s", "lower"),
    "sdp.verify_kkt.self_s": ("s", "lower"),
    "sdp.kkt_pass_ratio": ("ratio", "higher"),
    "linalg.eig_hermitian.self_s": ("s", "lower"),
    "linalg.eig_hermitian.calls": ("count", "lower"),
    "linalg.partial_trace.self_s": ("s", "lower"),
    "attacks.med_attack.self_s": ("s", "lower"),
    "attacks.optimal_cloner.self_s": ("s", "lower"),
    "attacks.optimize_unitary_q.self_s": ("s", "lower"),
    "attacks.med_on_cloned.self_s": ("s", "lower"),
    "attacks.standard_attack_profiles.self_s": ("s", "lower"),
    "attacks.apply_unitary_cloner.calls": ("count", "lower"),
    "attacks.standard_attack_profiles.calls": ("count", "lower"),
    "dps.ber_of_state.self_s": ("s", "lower"),
    "dps.ber_of_state.calls": ("count", "lower"),
    "dps.spectral_error_terms.self_s": ("s", "lower"),
    "keyrate.keyrate_sweep.self_s": ("s", "lower"),
    "keyrate.keyrate_sweep.rows": ("count", "higher"),
    "wcs.wcs_key_rates.self_s": ("s", "lower"),
    "wcs.slice_averaged_qber.self_s": ("s", "lower"),
    "wcs.slice_averaged_qber.calls": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """Installs wrappers, keeps spans in memory and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[object, str]:
        package = importlib.import_module("dpsqkd")
        funcs = {}
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isfunction(obj):
                funcs[obj] = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
        for layer, name in EXTRA:
            funcs[getattr(importlib.import_module(f"dpsqkd.{layer}"), name)] = f"{layer}.{name}"
        return funcs

    def install(self) -> None:
        funcs = self._targets()
        wrappers = {f: self._wrap(f, span) for f, span in funcs.items()}
        modules = [importlib.import_module("dpsqkd")]
        modules += [importlib.import_module(f"dpsqkd.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, func, span: str):
        counter = RESULT_COUNTERS.get(span)
        spans, stack, counters, ids = self.spans, self._stack, self.counters, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, span, start, end))
            if counter is not None:
                counters[span][counter[0]] += counter[1](result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and result counters."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        for name, extra in self.counters.items():
            out[name].update(extra)
        return dict(out)


def merge(aggs) -> dict[str, dict[str, float]]:
    """Sum aggregates of several traced processes or rounds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for agg in aggs:
        for name, entry in agg.items():
            for key, val in entry.items():
                out[name][key] += val
    return {name: dict(entry) for name, entry in out.items()}


def layer_metrics(agg: dict[str, dict[str, float]], import_s: float,
                  output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of ``METRICS`` from one round's aggregate, all
    but ``trace.overhead_s``, which compares traced with untraced rounds."""
    def get(span: str, key: str) -> float:
        return agg.get(span, {}).get(key, 0)

    out = {}
    for name in METRICS:
        span, _, key = name.rpartition(".")
        if key in ("calls", "self_s"):
            out[name] = get(span, key)
    iterations = get("sdp.solve", "iterations")
    kkt_calls = get("sdp.verify_kkt", "calls")
    out.update({
        "sdp.solve.iterations": iterations,
        "sdp.solve.s_per_iteration": get("sdp.solve", "self_s") / iterations if iterations else 0.0,
        "sdp.assembly_s": get("attacks.med_problem", "total_s")
        + get("attacks.cloning_problem", "total_s"),
        "sdp.kkt_pass_ratio": get("sdp.verify_kkt", "passed") / kkt_calls if kkt_calls else 0.0,
        "keyrate.keyrate_sweep.rows": get("keyrate.keyrate_sweep", "rows"),
        "cli.import_s": import_s,
        "cli.output_bytes": output_bytes,
        "trace.spans": sum(entry["calls"] for entry in agg.values()),
    })
    return out

