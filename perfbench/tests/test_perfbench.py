"""Self-test of the benchmark at toy scale (limit 1e5, 1e5 random-walk steps).

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from record_digests import reference_digests  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())

TOY_WALK = Workload(
    name="toy-walk",
    why="every analysis, polar included",
    argv=("walk", "--limit", "1e5", "--rule", "a1", "--threads", "1"),
    steps=9_590,
)
TOY_RW = Workload(
    name="toy-rw-resume",
    why="random walk resumed from a checkpoint",
    argv=("resume", "{parent}", "--limit", "1e5", "--threads", "1"),
    steps=50_000,
    parent_argv=(
        "walk", "--rule", "rw", "--steps", "5e4", "--seed", "{seed}",
        "--analyses", "area,benford", "--threads", "1",
    ),
    reference_argv=(
        "walk", "--rule", "rw", "--steps", "1e5", "--seed", "{seed}",
        "--analyses", "area,benford", "--threads", "1",
    ),
    seeded=True,
)
TOYS = [TOY_WALK, TOY_RW]


@pytest.fixture(scope="module")
def digests():
    out = {}
    for w in TOYS:
        seed = w.program_seed(0)
        out[w.digest_key(seed)] = reference_digests(w, seed, run.WORK / "toy-record")
    return out


def toy_bench(digests, trace):
    return run.bench(TOYS, 0, 0.01, trace, digests, probes=2, parent_runs=1)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    layer_names = {f"{s}_s" for s in run.LAYER_SPANS} | set(run.LAYER_COUNTERS)
    layer_names |= {"primes.primes_per_s", "trace.wall_s", "trace.overhead_s", "trace.unattributed_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names


def test_recorded_digests_cover_every_workload_and_seed():
    recorded = json.loads(run.DIGESTS.read_text())
    for w in WORKLOADS.values():
        for bench_seed in range(10):
            files = recorded[w.digest_key(w.program_seed(bench_seed))]
            assert "summary.txt" in files and "area_series.csv" in files


def test_untraced_run_emits_every_end_to_end_metric(digests):
    for plan in toy_bench(digests, trace=False):
        out, report = run.result(plan, SPEC["end_to_end"], trace=False)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for name, m in out["metrics"].items():
            assert isinstance(m["value"], float) and m["value"] > 0, name
        assert report["ops_failed"] == 0
        assert len(plan.setup["import_s"]) == 2


def test_traced_run_reports_every_layer_and_adds_up(digests):
    plans = {p.workload.name: p for p in toy_bench(digests, trace=True)}
    for plan in plans.values():
        out, _ = run.result(plan, SPEC["per_layer"], trace=True)
        assert out["correct"] and out["failed"] == 0
        values = {k: m["value"] for k, m in out["metrics"].items()}
        assert None not in values.values()
        self_s = sum(values[f"{s}_s"] for s in run.LAYER_SPANS)
        assert math.isclose(self_s + values["trace.unattributed_s"], values["trace.wall_s"])
        # the traced run wrote the same files, byte for byte, as the untraced one
        assert plan.traced[0].files == plan.samples[0].files
    walk = {k: m["value"] for k, m in run.result(plans["toy-walk"], SPEC["per_layer"], True)[0]["metrics"].items()}
    assert walk["primes.primes"] == TOY_WALK.steps and walk["polar.samples"] > 0
    assert walk["checkpoint.write_bytes"] > 0 and walk["checkpoint.read_bytes"] == 0
    rw = {k: m["value"] for k, m in run.result(plans["toy-rw-resume"], SPEC["per_layer"], True)[0]["metrics"].items()}
    assert rw["primes.segments"] == 0 and rw["walk.rng_s"] > 0
    assert rw["checkpoint.read_bytes"] > 0 and rw["grid.cells"] > 0


def test_corrupted_output_counts_as_failed(digests):
    out = run.WORK / "toy-corrupt"
    shutil.rmtree(out, ignore_errors=True)
    rc, *_ = run.run_child(run.cli_cmd(list(TOY_WALK.argv), out), time.monotonic() + 60)
    expected = digests[TOY_WALK.digest_key(None)]
    assert rc == 0 and run.check_outputs(out, expected) == []
    with open(out / "runs.csv", "a") as fh:
        fh.write("1,1,1\n")
    (out / "summary.txt").unlink()
    assert run.check_outputs(out, expected) == [
        "runs.csv differs from the seed commit's output",
        "summary.txt missing",
    ]
    shutil.rmtree(out)

    wrong = dict(digests)
    wrong["toy-walk"] = dict(expected, **{"benford.csv": "0" * 64})
    plan = run.bench([TOY_WALK], 0, 0.01, False, wrong, probes=1)[0]
    result, _ = run.result(plan, SPEC["end_to_end"], trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_nonzero_exit_counts_as_failed(digests):
    bad = Workload(name="toy-bad", why="usage error", argv=("walk", "--limit", "-5"), steps=1)
    plan = run.bench([bad], 0, 0.01, False, {"toy-bad": {}}, probes=1)[0]
    result, _ = run.result(plan, SPEC["end_to_end"], trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert plan.samples[0].problems[0].startswith("exit code 1")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "walk-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
