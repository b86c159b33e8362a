"""Smoke test of the benchmark itself (not part of tier-1; run it with
``python -m pytest benchmarks/e2e/test_smoke.py``): both forms of
``run.py`` finish on tiny data sets with every check passing, and every
metric BENCHMARK.json names comes out, finite and well named."""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "7"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def check_metrics(metrics, wanted):
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        assert NAME.fullmatch(m["name"]), m["name"]
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_full_form_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    subprocess.run(RUN + ["--out", str(out)], check=True, timeout=600, cwd=tmp_path)
    doc = json.loads(out.read_text())
    for key in ("commit", "nproc", "python", "numpy", "seed", "window_s", "clients", "fsync_p50_us"):
        assert key in doc["env"], key
    (run,) = doc["runs"]
    assert list(run["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in run["workloads"].items():
        assert result["failed_ops_share"] == 0, name
        for key in ("end_to_end", "per_layer"):
            assert result[key]["correct"], (name, result[key]["checks"])
            check_metrics(result[key]["metrics"], SPEC[key])
        assert all(v > 0 for v in (
            m["value"] for m in result["end_to_end"]["metrics"].values()
        )), name
        assert os.path.exists(os.path.join(ROOT, result["per_layer"]["trace_file"]))


def test_driver_form_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "txn_commit", "--trace", "0"],
        check=True, timeout=300, cwd=tmp_path, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result["metrics"], SPEC["end_to_end"])
