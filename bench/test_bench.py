"""Smoke test of the benchmark: one short run per workload, plus a traced run.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_op_passes_its_checks(workload):
    res = _result(_bench("--workload", workload, "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = res["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


def test_traced_run_reports_every_layer_metric():
    res = _result(_bench("--workload", "tictoc", "--trace", "1"))
    assert res["correct"] and res["attempted"] == 2
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["transverse.linearize.chart_inversions"] == 512 * 29
    assert values["transverse.periodic_lqr.sweeps"] == 4
    assert values["sim.run_closed_loop.steps"] == 1885
    assert values["cli.self.s"] > 0
    assert all(values[f"{layer}.errors"] == 0
               for layer in ("mech", "vhc", "singular_solver", "feasibility",
                             "transverse", "sim", "io_utils", "cli"))

    trace = json.loads((ROOT / ".bench" / "trace-tictoc-7.json").read_text())
    spans = trace["spans"]
    (op,) = trace["ops"]
    top = [i for i, s in enumerate(spans) if s[0] == "op" and str(s[4]) == op]
    mains = [i for i, s in enumerate(spans) if s[3] in top]
    layer_children = [s for s in spans if s[3] in mains]
    op_s = sum(spans[i][2] - spans[i][1] for i in top)
    covered = sum(s[2] - s[1] for s in layer_children) + trace["ops"][op]["cli.self.s"]
    assert all(spans[i][0] == "cli.main" for i in mains)
    assert abs(op_s - covered) < 1e-3 * op_s


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tictoc", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
