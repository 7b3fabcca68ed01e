"""Closed-loop benchmark of the primewalk command-line program.

    python3 perfbench/run.py --workload walk-1e9 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, interleaved

One client runs one ``python -m primewalk.cli`` child at a time, taken from
``src/`` of the checkout this file sits in, and starts the next run only when
the previous one has ended.  Each run is timed from outside (wall clock,
user + system CPU and peak RSS from ``os.wait4``), its outputs are checked
against digests recorded from the seed commit (``digests.json``), and its
out dir is measured and deleted.  Runs repeat, at least twice, while the
next one is expected to end within ``--seconds`` of measured run time.
Wall and CPU time are the 90th percentile over the runs (see ``tail``),
memory and disk the median, and set-up time the median of its probes.

With ``--trace 1`` the untraced runs alternate with runs under
``tracer.py``, which records spans around each layer; the per-layer
metrics come from the traced run of median wall time, and every traced
run's output files must be byte-identical to an untraced run's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.  A line before it holds the full
report: every sample, the set-up times and an environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5  # interpreter start + import, per benchmark run
PARENT_RUNS = 3  # set-up runs that write the checkpoint a workload resumes
MIN_RUNS = 2  # untraced runs per workload, however long they take
RUN_LIMIT_S = 170  # per workload: children still running this long after the start are killed

# Spans the tracer records; each gives the per-layer metric "<span>_s".
LAYER_SPANS = (
    "primes.sieve", "walk.cumsum", "walk.rng", "grid.observe", "grid.record_keys",
    "runs.observe", "polar.observe", "polar.finish", "polar.write_csv",
    "benford.table", "grid.recurrence", "fitting.fit", "cli.write_outputs",
    "checkpoint.save", "checkpoint.write", "checkpoint.read", "checkpoint.restore",
)
LAYER_COUNTERS = (
    "primes.segments", "primes.primes", "walk.batches", "grid.record_keys_calls",
    "grid.cells", "polar.samples", "cli.output_bytes", "checkpoint.write_bytes",
    "checkpoint.read_bytes",
)


class BenchError(Exception):
    """The benchmark cannot run here at all (no program, no spec)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    disk_mb: float
    problems: list[str]
    files: dict[str, str] = field(default_factory=dict)  # trace mode: every output digest
    layers: dict[str, float] | None = None  # traced runs only

    def report(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "files" and v is not None}


@dataclass
class Plan:
    """One workload's state across a benchmark run."""

    workload: Workload
    bench_seed: int
    work: Path
    program_seed: int | None
    expected: dict[str, str] | None
    setup: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)

    @property
    def parent_dir(self) -> Path:
        return self.work / "parent"

    def done(self, seconds: float, trace: bool) -> bool:
        """True once another run would end past `seconds` of measured runs,
        given at least MIN_RUNS untraced runs (and one traced, with `trace`)."""
        if len(self.samples) < MIN_RUNS or (trace and not self.traced):
            return False
        walls = [s.wall_s for s in self.samples + self.traced]
        return sum(walls) + statistics.mean(walls) > seconds


# --- child processes ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], deadline: float):
    """Run `cmd` to completion; returns (exit code, wall s, rusage, stderr tail)."""
    WORK.mkdir(exist_ok=True)
    err_path = WORK / f"stderr-{os.getpid()}.txt"
    try:
        with open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=child_env(), cwd=ROOT,
            )
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-600:].decode("utf-8", "replace").strip()
    finally:
        err_path.unlink(missing_ok=True)
    return proc.returncode, wall, usage, tail


def rel(path: Path) -> str:
    """`path` relative to the checkout, the children's working directory.

    Paths reach the program relative, so that its allocations do not depend
    on where the checkout lies: with absolute out paths the peak RSS of
    walk-1e9 moved by 8% between two checkouts of the same commit.
    """
    return str(path.relative_to(ROOT))


def cli_cmd(args: list[str], out: Path) -> list[str]:
    return [sys.executable, "-m", "primewalk.cli", *args, "--out", rel(out)]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(out: Path, expected: dict[str, str] | None) -> list[str]:
    """Problems with the checked outputs in `out`; empty when all match."""
    if expected is None:
        return ["no digests recorded for this workload and seed"]
    problems = []
    for name, digest in expected.items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif sha256(path) != digest:
            problems.append(f"{name} differs from the seed commit's output")
    return problems


# --- one workload ------------------------------------------------------------


def set_up(plan: Plan, probes: int, parent_runs: int, deadline: float) -> None:
    w = plan.workload
    shutil.rmtree(plan.work, ignore_errors=True)
    plan.work.mkdir(parents=True)
    probe_s = []
    for _ in range(probes):
        rc, wall, _, tail = run_child([sys.executable, "-c", "import primewalk.cli"], deadline)
        if rc != 0:
            raise BenchError(f"cannot import primewalk.cli from {SRC}: {tail}")
        probe_s.append(wall)
    parent_s = []
    for _ in range(parent_runs if w.parent_argv else 0):
        args = w.command(w.parent_argv, plan.program_seed)
        rc, wall, _, tail = run_child(cli_cmd(args, plan.parent_dir), deadline)
        if rc != 0:
            plan.problems.append(f"set-up run exit code {rc}: {tail}")
        parent_s.append(wall)
    plan.setup = {"import_s": probe_s, "parent_s": parent_s}


def setup_s(plan: Plan) -> float:
    parent = plan.setup["parent_s"]
    return statistics.median(plan.setup["import_s"]) + (statistics.median(parent) if parent else 0.0)


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Self time per span name, the tracer's counters, and the unattributed rest."""
    spans = trace["spans"]
    own = [end - start for _, start, end, _ in spans]
    for (_, start, end, parent) in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_s = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        if name not in LAYER_SPANS:
            raise ValueError(f"span {name!r} has no per-layer metric")
        self_s[name] += t
    values = {f"{name}_s": self_s[name] for name in LAYER_SPANS}
    values.update({name: trace["counters"].get(name, 0) for name in LAYER_COUNTERS})
    sieve = values["primes.sieve_s"]
    values["primes.primes_per_s"] = values["primes.primes"] / sieve if sieve > 0 else 0.0
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - sum(own)
    return values


def iteration(plan: Plan, traced: bool, trace_mode: bool, deadline: float) -> Sample:
    w = plan.workload
    k = len(plan.samples) + len(plan.traced)
    out = plan.work / f"out-{k}"
    args = w.command(w.argv, plan.program_seed, parent=rel(plan.parent_dir / "checkpoint.pwlk"))
    spans_path = plan.work / f"spans-{k}.json"
    if traced:
        cmd = [sys.executable, rel(TRACER), "--spans", rel(spans_path), "--", *args, "--out", rel(out)]
    else:
        cmd = cli_cmd(args, out)
    rc, wall, usage, tail = run_child(cmd, deadline)
    problems = [] if rc == 0 else [f"exit code {rc}: {tail}"]
    problems += check_outputs(out, plan.expected)
    entries = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
    files = {p.name: sha256(p) for p in entries} if trace_mode else {}
    sample = Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        disk_mb=sum(p.stat().st_size for p in entries) / 1e6,
        problems=problems,
        files=files,
    )
    if traced:
        if spans_path.is_file():
            sample.layers = layer_metrics(json.loads(spans_path.read_text()), wall)
            spans_path.unlink()
        else:
            problems.append("the traced run wrote no spans")
        if plan.samples and files != plan.samples[0].files:
            differ = sorted(set(files.items()) ^ set(plan.samples[0].files.items()))
            problems.append(f"traced outputs differ from untraced: {sorted({n for n, _ in differ})}")
    shutil.rmtree(out, ignore_errors=True)
    return sample


# --- a benchmark run ---------------------------------------------------------


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found next to {HERE.name}/")
    return json.loads(SPEC.read_text())


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_before": list(os.getloadavg()),
    }


def bench(
    workloads: list[Workload],
    bench_seed: int,
    seconds: float,
    trace: bool,
    digests: dict,
    *,
    probes: int = SETUP_PROBES,
    parent_runs: int = PARENT_RUNS,
) -> list[Plan]:
    """Set up every workload, then run them round-robin until each is
    done (see `Plan.done`); with `trace`, untraced and traced runs alternate."""
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    plans = []
    for w in workloads:
        seed = w.program_seed(bench_seed)
        plans.append(Plan(
            workload=w, bench_seed=bench_seed, work=WORK / w.name,
            program_seed=seed, expected=digests.get(w.digest_key(seed)),
        ))
    try:
        for plan in plans:
            set_up(plan, 0 if trace else probes, 1 if trace else parent_runs, deadline)
        while time.monotonic() < deadline:
            pending = [p for p in plans if not p.done(seconds, trace)]
            if not pending:
                break
            for plan in pending:
                traced = trace and len(plan.traced) < len(plan.samples)
                sample = iteration(plan, traced, trace, deadline)
                (plan.traced if traced else plan.samples).append(sample)
    finally:
        for plan in plans:
            shutil.rmtree(plan.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return plans


def tail(values: list[float]) -> float:
    """90th percentile of `values`, interpolated between the closest two.

    On a shared host a run is either slowed by its neighbours or not, and the
    share of runs that are not drifts by the minute: across ten benchmark
    runs in a row the median wall time moved by a quarter and more.  The
    slowed runs' time is what stays put, so wall and CPU time report the
    upper tail.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(plan: Plan) -> dict[str, float]:
    if not plan.samples:
        return {}
    wall = tail([s.wall_s for s in plan.samples])
    return {
        "wall_p90_s": wall,
        "events_per_s": plan.workload.steps / wall,
        "cpu_p90_s": tail([s.cpu_s for s in plan.samples]),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plan.samples),
        "disk_mb": statistics.median(s.disk_mb for s in plan.samples),
        "setup_s": setup_s(plan),
    }


def per_layer(plan: Plan) -> dict[str, float]:
    """Layers of the traced run with median wall time (lower median)."""
    runs = sorted((s for s in plan.traced if s.layers), key=lambda s: s.wall_s)
    if not runs or not plan.samples:
        return {}
    values = dict(runs[(len(runs) - 1) // 2].layers)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        s.wall_s for s in plan.samples
    )
    return values


def result(plan: Plan, declared: list[dict], trace: bool) -> tuple[dict, dict]:
    """(the contract's result object, the full report) for one workload."""
    runs = plan.samples + plan.traced
    failed = sum(1 for s in runs if s.problems)
    values = per_layer(plan) if trace else end_to_end(plan)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    out = {
        "correct": failed == 0 and not plan.problems and bool(runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": plan.workload.name,
        "bench_seed": plan.bench_seed,
        "program_seed": plan.program_seed,
        "setup": plan.setup,
        "problems": plan.problems,
        "samples": [s.report() for s in plan.samples],
        "traced": [s.report() for s in plan.traced],
        "ops_failed": failed / len(runs) if runs else 1.0,
        "wall_median_s": statistics.median(s.wall_s for s in plan.samples) if plan.samples else None,
        "values": values,
    }
    return out, report


def describe(plan: Plan, out: dict) -> str:
    lines = [f"{plan.workload.name}: {out['attempted']} runs, program seed {plan.program_seed}"]
    for name, m in out["metrics"].items():
        v = m["value"]
        shown = "-" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
        lines.append(f"  {name:26s} {shown:>14s} {m['unit']}")
    lines.append(f"  {'ops_failed':26s} {out['failed']:>9d} / {out['attempted']} runs")
    for s in plan.samples + plan.traced:
        for p in s.problems:
            lines.append(f"  failed: {p}")
    lines.extend(f"  set-up: {p}" for p in plan.problems)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (picks the rw seed)")
    parser.add_argument("--seconds", type=float, default=30, help="measured run time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "primewalk" / "cli.py").is_file():
            raise BenchError(f"no primewalk program under {SRC}")
        spec = load_spec()
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        digests = json.loads(DIGESTS.read_text())
        env = environment()
        plans = bench([WORKLOADS[n] for n in names], args.seed, args.seconds, bool(args.trace), digests)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = list(os.getloadavg())
    results = []
    for plan in plans:
        out, report = result(plan, declared, bool(args.trace))
        report["env"] = env
        print(describe(plan, out))
        print(json.dumps({"report": report}))
        results.append(out)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{plan.workload.name}.{k}": v
                for plan, r in zip(plans, results)
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
