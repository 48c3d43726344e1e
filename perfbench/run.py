"""Benchmark driver for ``dpsqkd``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload med-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``med-ladder``  ``attacks.med_attack(dps_ensemble(n))`` for n = 3..6;
* ``dossier-n4``  ``attacks.standard_attack_profiles(4)``;
* ``cli-batch``   fresh ``python -m dpsqkd.cli`` runs over a fixed argv list.

Every run happens in fresh child processes, one task at a time, and every
output is checked by ``gate``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics of ``tracer.METRICS``, including the
tracing overhead.  The seed sets the task order and, for ``cli-batch``, the
channel parameters of the sweeps; it does not change the amount of work.
The last stdout line is the JSON result; the lines above it are the report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracer
import worker

HERE = Path(__file__).resolve().parent
# Set-up samples taken before and again after the timed rounds, so that
# setup_s, their median, spans the run rather than one moment of it.
SETUPS = 4
TIME_LIMIT_S = 165  # every child is killed after this, counted from start
MED_LADDER = [["med", n] for n in (3, 3, 3, 4, 4, 4, 5, 5, 6, 6)]
FINITE_SIZE = "n=1e6,k=1e4,eps=1e-9"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_s.p50": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def channel_flags(seed: int) -> list[str]:
    """Channel parameters drawn from the seed, inside the physical domain."""
    rng = random.Random(seed)
    values = {
        "--loss-db-per-km": rng.uniform(0.16, 0.24),
        "--dark-count-prob": 10 ** rng.uniform(-7.0, -5.0),
        "--baseline-error": rng.uniform(0.005, 0.03),
        "--detector-efficiency": rng.uniform(0.05, 0.2),
    }
    return [part for flag, val in values.items() for part in (flag, f"{val:.6g}")]


def cli_tasks(seed: int) -> list[list[str]]:
    # An odd count puts task_s.p50 inside one command's samples (clone
    # --mode optimal today) rather than between two commands' samples.
    ch = channel_flags(seed)
    return [
        ["finite-size", "--params", FINITE_SIZE],
        ["med", "--n", "3"],
        ["med", "--n", "6"],
        ["clone", "--mode", "optimal"],
        ["clone", "--mode", "unitary"],
        ["clone", "--mode", "unitary", "--format", "csv"],
        ["keyrate", *ch],
        ["keyrate", "--step-km", "0.5", "--finite-size", FINITE_SIZE, *ch],
        ["keyrate", "--step-km", "0.5", "--format", "csv", *ch],
        ["wcs", *ch],
        ["wcs", "--step-km", "0.5", *ch],
    ]


def workload_tasks(workload: str, seed: int) -> list:
    if workload == "med-ladder":
        return MED_LADDER
    if workload == "dossier-n4":
        return [["dossier", 4]]
    if workload == "cli-batch":
        return cli_tasks(seed)
    raise BenchError(f"unknown workload {workload!r}")


class Runner:
    """Spawns the children of one run under a common deadline."""

    def __init__(self, root: Path, threads: int) -> None:
        self.root = root
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)

    def spawn(self, cmd: list[str]) -> subprocess.CompletedProcess:
        env = dict(self.env, **{worker.SPAWN_ENV: repr(time.monotonic())})
        try:
            return subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cmd[1:3]} exceeded the {TIME_LIMIT_S} s limit") from exc

    def worker(self, *args: str) -> dict:
        proc = self.spawn([sys.executable, str(HERE / "worker.py"), *args])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {args[0]} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])

    def cli(self, argv: list[str]) -> dict:
        start = time.perf_counter()
        proc = self.spawn([sys.executable, "-m", "dpsqkd.cli", *argv])
        return {"seconds": time.perf_counter() - start, "exit": proc.returncode,
                "stdout": proc.stdout}

    def traced_cli(self, argv: list[str]) -> dict:
        start = time.perf_counter()
        doc = self.worker("cli", json.dumps(argv))
        return dict(doc, seconds=time.perf_counter() - start)

    def setup_times(self, workload: str, count: int) -> list[float]:
        if workload != "cli-batch":
            return [self.worker("setup")["setup_s"] for _ in range(count)]
        argv = ["finite-size", "--params", FINITE_SIZE]
        times = []
        for _ in range(count):
            done = self.cli(argv)
            if done["exit"] != 0:
                raise BenchError("set-up invocation `dpsqkd finite-size` failed")
            times.append(done["seconds"])
        return times

    def cli_rounds(self, tasks: list, seconds: float, seed: int, trace: bool) -> list[dict]:
        first_stdout: dict[str, str] = {}

        def run_round(order: list, traced: bool) -> dict:
            results, aggs, imports, out_bytes = [], [], [], 0
            for argv in order:
                done = self.traced_cli(argv) if traced else self.cli(argv)
                key = json.dumps(argv)
                failure = None
                if done["exit"] != 0:
                    failure = f"exit code {done['exit']}"
                elif first_stdout.setdefault(key, done["stdout"]) != done["stdout"]:
                    failure = "stdout differs from an earlier run of the same argv"
                else:
                    try:
                        failure = gate.check_cli(argv, done["stdout"])
                    except (ValueError, KeyError, IndexError) as exc:
                        failure = f"unreadable output: {type(exc).__name__}: {exc}"
                results.append({"task": argv, "seconds": done["seconds"], "failure": failure})
                if traced:
                    aggs.append(done["agg"])
                    imports.append(done["import_s"])
                    out_bytes += len(done["stdout"].encode())
            return {"traced": traced, "tasks": results, "agg": tracer.merge(aggs),
                    "import_s": statistics.median(imports) if imports else 0.0,
                    "output_bytes": out_bytes}

        return worker.run_rounds(tasks, seconds, seed, trace, run_round)

    def rounds(self, workload: str, tasks: list, seconds: float, seed: int,
               trace: bool) -> list[dict]:
        if workload == "cli-batch":
            return self.cli_rounds(tasks, seconds, seed, trace)
        spec = {"tasks": tasks, "seconds": seconds, "seed": seed, "trace": trace}
        return self.worker("run", json.dumps(spec))["rounds"]


def machine_meta(root: Path, runner: Runner, threads: int, seed: int) -> dict:
    meta = runner.worker("meta")
    src = (root / "src").resolve()
    if Path(meta.pop("dpsqkd_file")).resolve().parent.parent != src:
        raise BenchError(f"dpsqkd was not imported from {src}")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **meta,
            "blas_threads": threads, "seed": seed, "commit": git_commit(root)}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def task_times(rounds: list[dict]) -> dict[str, list[float]]:
    """Seconds of each distinct task over the rounds."""
    out: dict[str, list[float]] = {}
    for r in rounds:
        for t in r["tasks"]:
            out.setdefault(" ".join(map(str, t["task"])), []).append(t["seconds"])
    return out


def list_time(rounds: list[dict]) -> float:
    """Time of the fixed task list: the sum of each task's median, which one
    slow round moves less than it moves the median of round totals."""
    medians = {task: statistics.median(ts) for task, ts in task_times(rounds).items()}
    return sum(medians[" ".join(map(str, t["task"]))] for t in rounds[0]["tasks"])


def end_to_end(setups: list[float], rounds: list[dict], lines: list[str]) -> dict:
    times = [t["seconds"] for r in rounds for t in r["tasks"]]
    totals = [sum(t["seconds"] for t in r["tasks"]) for r in rounds]
    values = {
        "setup_s": (statistics.median(setups), quartiles(setups)),
        "wall_s": (list_time(rounds), f"sum of task medians; round totals {quartiles(totals)}"),
        "task_s.p50": (statistics.median(times), quartiles(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "max over child processes"),
    }
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            values["task_s.p90"] = (p90, f"n={len(times)}, {beyond} beyond")
    for name, (value, note) in values.items():
        lines.append(f"  {name:<12} {value:12.6g} {E2E_UNITS.get(name, 's'):<3} {note}")
    lines.append("  median task seconds:")
    lines += [f"    {statistics.median(ts):10.6f}  {task}"
              for task, ts in sorted(task_times(rounds).items(),
                                     key=lambda kv: statistics.median(kv[1]))]
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, (value, _) in values.items() if name in E2E_UNITS}


def per_layer(rounds: list[dict], lines: list[str]) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall = {"untraced": list_time(untraced), "traced": list_time(traced)}
    per_round = [tracer.layer_metrics(r["agg"], r["import_s"], r["output_bytes"])
                 for r in traced]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = wall["traced"] - wall["untraced"]

    total = tracer.merge(r["agg"] for r in traced)
    lines.append(f"  spans over {len(traced)} traced round(s): calls, total_s, self_s")
    for name, entry in sorted(total.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {name:<40} {int(entry['calls']):8d} "
                     f"{entry['total_s']:12.6f} {entry['self_s']:12.6f}")
    lines.append("  per-layer metrics (median over traced rounds)")
    for name, value in values.items():
        lines.append(f"    {name:<40} {value:14.6g} {tracer.METRICS[name][0]}")
    lines.append(f"  tracing overhead: wall_s traced {wall['traced']:.6g} s - "
                 f"untraced {wall['untraced']:.6g} s = {values['trace.overhead_s']:.6g} s "
                 f"({len(traced)} traced, {len(untraced)} untraced rounds)")
    return {name: {"value": value, "unit": tracer.METRICS[name][0]}
            for name, value in values.items()}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            tasks: list | None = None, setups: int = SETUPS) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    threads = len(os.sched_getaffinity(0))
    runner = Runner(root, threads)
    meta = machine_meta(root, runner, threads, seed)
    tasks = workload_tasks(workload, seed) if tasks is None else tasks
    setups = 0 if trace else setups
    setup_samples = runner.setup_times(workload, setups)
    rounds = runner.rounds(workload, tasks, seconds, seed, trace)
    setup_samples += runner.setup_times(workload, setups)

    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
             "  " + " ".join(f"{k}={v}" for k, v in meta.items())]
    all_tasks = [t for r in rounds for t in r["tasks"]]
    failures = [t for t in all_tasks if t["failure"]]
    metrics = per_layer(rounds, lines) if trace else end_to_end(setup_samples, rounds, lines)
    lines.append(f"  fail_ratio   {len(failures) / len(all_tasks):12.6g}     "
                 f"{len(failures)}/{len(all_tasks)} tasks in {len(rounds)} rounds")
    lines += [f"  FAILED {json.dumps(t['task'])}: {t['failure']}" for t in failures[:10]]
    return {"correct": not failures, "attempted": len(all_tasks), "failed": len(failures),
            "metrics": metrics}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("med-ladder", "dossier-n4", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dpsqkd" / "__init__.py").is_file():
        print(f"perfbench: no dpsqkd sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result, lines = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
