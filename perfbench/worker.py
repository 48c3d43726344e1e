"""Child process of the benchmark: one fresh interpreter per use.

    python3 perfbench/worker.py meta            versions; compiles the package
    python3 perfbench/worker.py setup           set-up only, reports its time
    python3 perfbench/worker.py run SPEC_JSON   set-up, then timed rounds
    python3 perfbench/worker.py cli ARGV_JSON   one traced ``cli.main(argv)``

Each mode prints one JSON document on its last stdout line.  ``dpsqkd`` is
imported from ``PYTHONPATH``, which the driver points at the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time

import gate
from tracer import Tracer

SPAWN_ENV = "PERFBENCH_SPAWNED_AT"


def import_cli() -> float:
    """Import the whole package through its CLI; returns the seconds taken."""
    start = time.perf_counter()
    import dpsqkd.cli  # noqa: F401
    return time.perf_counter() - start


def setup() -> float:
    """Import, then one untimed n=3 MED warm-up; returns the import time."""
    import_s = import_cli()
    from dpsqkd import attacks, dps
    attacks.med_attack(dps.dps_ensemble(3))
    return import_s


def run_rounds(tasks: list, seconds: float, seed: int, trace: bool, run_round) -> list[dict]:
    """Run the task list in seeded random order, round after round, until
    ``seconds`` have passed; with ``trace``, rounds alternate untraced and
    traced, starting untraced, and at least one of each is run."""
    rng = random.Random(seed)
    rounds: list[dict] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds or (trace and len(rounds) < 2):
        rounds.append(run_round(rng.sample(tasks, len(tasks)), trace and len(rounds) % 2 == 1))
    return rounds


def timed(call, check) -> dict:
    """Time ``call()``; the task fails on an exception or a gate reason."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # any exception counts as a failed task
        return {"seconds": time.perf_counter() - start,
                "failure": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "failure": check(result)}


def run_task(task: list) -> dict:
    from dpsqkd import attacks, dps
    kind, n = task
    if kind == "med":
        return timed(lambda: attacks.med_attack(dps.dps_ensemble(n)),
                     lambda r: gate.check_med(n, r.p_success, r.collision_probability,
                                              r.kkt.passed))
    if kind == "dossier":
        return timed(lambda: attacks.standard_attack_profiles(n),
                     lambda p: gate.check_dossier(n, {
                         name: (prof.per_intercept_error, prof.per_attacked_bit_collision)
                         for name, prof in p.items()}))
    raise ValueError(f"unknown task {task!r}")


def run(spec: dict) -> dict:
    import_s = setup()

    def run_round(order: list, traced: bool) -> dict:
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            results = [dict(run_task(task), task=task) for task in order]
        finally:
            if tracer:
                tracer.uninstall()
        return {"traced": traced, "tasks": results,
                "agg": tracer.aggregate() if tracer else None,
                "import_s": import_s, "output_bytes": 0}

    rounds = run_rounds(spec["tasks"], spec["seconds"], spec["seed"], spec["trace"], run_round)
    return {"rounds": rounds}


def traced_cli(argv: list[str]) -> dict:
    import_s = import_cli()
    from dpsqkd import cli
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed task
                code = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    return {"import_s": import_s, "exit": code, "stdout": out.getvalue(),
            "agg": tracer.aggregate()}


def meta() -> dict:
    import_cli()
    import dpsqkd
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_version, "dpsqkd_file": dpsqkd.__file__}


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "meta":
        doc = meta()
    elif mode == "setup":
        setup()
        doc = {"setup_s": time.monotonic() - float(os.environ[SPAWN_ENV])}
    elif mode == "run":
        doc = run(json.loads(argv[1]))
    elif mode == "cli":
        doc = traced_cli(json.loads(argv[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
