"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Each workload runs at a tiny size in both modes and must emit exactly the
metrics ``BENCHMARK.json`` names; the gate must count a wrong reference as a
failure; and the driver must refuse a directory without the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import gate
import run

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "med-ladder": [["med", 3], ["med", 4]],
    "dossier-n4": [["dossier", 3]],
    "cli-batch": [["med", "--n", "3"],
                  ["clone", "--mode", "unitary", "--format", "csv"],
                  ["keyrate", "--stop-km", "20", *run.channel_flags(1)],
                  ["wcs", "--stop-km", "20", "--format", "csv"],
                  ["finite-size", "--params", run.FINITE_SIZE]],
}


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


class TinyWorkloads(unittest.TestCase):
    def check(self, workload: str, trace: bool) -> list[str]:
        result, lines = run.measure(ROOT, workload, seed=1, seconds=0, trace=trace,
                                    tasks=TINY[workload], setups=2)
        self.assertEqual(result["failed"], 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], len(TINY[workload]))
        wanted = names("per_layer" if trace else "end_to_end")
        self.assertEqual(set(result["metrics"]), wanted)
        for metric in SPEC["per_layer" if trace else "end_to_end"]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertTrue(any("fail_ratio" in ln for ln in lines))
        return lines

    def test_med_ladder(self) -> None:
        self.check("med-ladder", trace=False)
        lines = self.check("med-ladder", trace=True)
        self.assertTrue(any("tracing overhead" in ln for ln in lines))

    def test_dossier(self) -> None:
        self.check("dossier-n4", trace=False)
        self.check("dossier-n4", trace=True)

    def test_cli_batch(self) -> None:
        self.check("cli-batch", trace=False)
        self.check("cli-batch", trace=True)

    def test_layer_metrics_match_spec(self) -> None:
        self.assertEqual(set(run.tracer.METRICS), names("per_layer"))
        self.assertEqual(set(run.E2E_UNITS), names("end_to_end"))

    def test_p90_reported_with_ten_samples_beyond(self) -> None:
        tasks = [{"task": ["med", 3], "seconds": 0.01 * (i % 10 + 1), "failure": None}
                 for i in range(100)]
        lines: list[str] = []
        run.end_to_end([0.3, 0.3], [{"tasks": tasks}], lines)
        self.assertTrue(any(ln.split()[0] == "task_s.p90" for ln in lines))
        lines = []
        run.end_to_end([0.3, 0.3], [{"tasks": tasks[:50]}], lines)
        self.assertFalse(any(ln.split()[0] == "task_s.p90" for ln in lines))


class Gate(unittest.TestCase):
    def wrong(self, key: str, value) -> dict:
        refs = copy.deepcopy(gate.REFERENCES)
        refs[key] = value
        return refs

    def test_med(self) -> None:
        self.assertIsNone(gate.check_med(3, 0.75, 13 / 18, True))
        self.assertIsNotNone(gate.check_med(3, 0.75, 13 / 18, True,
                                            self.wrong("med_collision_n3", 0.7)))
        self.assertIsNotNone(gate.check_med(4, 0.5 + 1e-5, 0.625, True))
        self.assertIsNotNone(gate.check_med(4, 0.5, 0.625, False))

    def test_dossier(self) -> None:
        stored = gate.REFERENCES["dossier"]["4"]
        profiles = {name: tuple(vals) for name, vals in stored.items()}
        self.assertIsNone(gate.check_dossier(4, profiles))
        bad = copy.deepcopy(gate.REFERENCES)
        bad["dossier"]["4"]["cloning"][1] += 1e-4
        self.assertIsNotNone(gate.check_dossier(4, profiles, bad))

    def test_cli_rows(self) -> None:
        doc = {"rows": [{"distance_km": 0.0, "tau_med": 1.2, "r_med": 0.1}]}
        reason = gate.check_cli(["keyrate", "--stop-km", "0"], json.dumps(doc))
        self.assertIn("outside [0, 1]", reason)

    def test_wrong_reference_counts_in_fail_ratio(self) -> None:
        with mock.patch.dict(gate.REFERENCES, {"unitary_q_opt": 0.3}):
            result, _ = run.measure(ROOT, "cli-batch", seed=1, seconds=0, trace=False,
                                    tasks=[["clone", "--mode", "unitary"]], setups=1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Refusal(unittest.TestCase):
    def test_refuses_directory_without_program(self) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "med-ladder",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
