"""Command-line orchestration: walks, resume, counting and CSV artifacts."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import benford, fitting, grid, polar, runs
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .primes import count_walk_primes
from .runs import short_run_fraction
from .walk import RULES, WalkState, run_random_walk, run_walk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECKPOINT = 3

ALL_ANALYSES = ("area", "runs", "benford", "polar", "recurrence")


class UsageError(Exception):
    pass


def parse_number(text: str) -> int:
    """Integer with optional underscores or scientific shorthand (1e9)."""
    cleaned = text.replace("_", "")
    try:
        value = Decimal(cleaned)
    except InvalidOperation:
        raise UsageError(f"not a number: {text!r}")
    if value != value.to_integral_value():
        raise UsageError(f"expected an integer, got {text!r}")
    return int(value)


@dataclass
class RunConfig:
    limit: int = 0  # N for the prime rules, the step count for rw
    rule: str = "a1"
    seed: int = 0
    checkpoint_factor: float = 1.25
    out_dir: Path = Path(".")
    analyses: tuple = ALL_ANALYSES
    threads: int = 1
    export_visits: bool = False

    def __post_init__(self):
        self.analyses = tuple(self.analyses)
        if self.limit < 0:
            raise UsageError("limit must be >= 0")
        if self.checkpoint_factor <= 1.0:
            raise UsageError("checkpoint factor must exceed 1")
        if self.rule not in (*RULES, "rw"):
            raise UsageError(f"unknown rule {self.rule!r}")
        bad = set(self.analyses) - set(ALL_ANALYSES)
        if bad:
            raise UsageError(f"unknown analyses: {sorted(bad)}")

    def identity(self) -> bytes:
        """Canonical JSON of the fields a resumed run must agree on."""
        fields = {
            "rule": self.rule,
            "seed": self.seed,
            "checkpoint_factor": self.checkpoint_factor,
            "analyses": sorted(self.analyses),
        }
        return json.dumps(fields, sort_keys=True).encode("utf-8")


@dataclass
class Analyzers:
    grid_obs: grid.GridObserver | None = None
    runs_obs: runs.RunLengthObserver | None = None
    polar_obs: polar.PolarObserver | None = None

    def observers(self):
        return [o for o in (self.grid_obs, self.runs_obs, self.polar_obs) if o]


def _restore(sections: dict, name: str, restore):
    """restore(sections[name]); a missing section or field is a CheckpointError."""
    if name not in sections:
        raise CheckpointError(f"checkpoint has no {name!r} section")
    try:
        return restore(sections[name])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {name!r} section lacks {exc}") from None


def build_analyzers(cfg: RunConfig, sections: dict | None = None) -> Analyzers:
    """Fresh analyzers for cfg, or the ones saved in checkpoint `sections`."""

    def make(name, cls, *args):
        if sections is None:
            return cls(*args)
        return _restore(sections, name, cls.from_state)

    a = Analyzers()
    if {"area", "benford", "recurrence"} & set(cfg.analyses):
        a.grid_obs = make("grid", grid.GridObserver, cfg.checkpoint_factor)
    if "runs" in cfg.analyses and cfg.rule != "rw":
        a.runs_obs = make("runs", runs.RunLengthObserver)
    if "polar" in cfg.analyses:
        a.polar_obs = make("polar", polar.PolarObserver)
    return a


def _fit_series(series: grid.AreaSeries):
    for min_n_p in (10**6, 0):
        try:
            return fitting.fit_area_growth(series, min_n_p=min_n_p), min_n_p
        except ValueError:
            continue
    return None, None


def write_outputs(cfg: RunConfig, analyzers: Analyzers, summary, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    lines.append(("rule", cfg.rule))
    if cfg.rule == "rw":
        lines.append(("seed", cfg.seed))
    lines.append(("n", summary.last_n))
    lines.append(("n_p", summary.steps_taken))
    lines.append(("final_x", summary.x))
    lines.append(("final_y", summary.y))

    g = analyzers.grid_obs
    if g is not None:
        if "area" in cfg.analyses:
            final_row = (summary.last_n, g.steps, g.vmap.area)
            g.series.write_csv(out_dir / "area_series.csv", final_row=final_row)
            lines.append(("area", g.vmap.area))
            fit, window = _fit_series(g.series)
            if fit is not None:
                lines.append(("beta_slope", f"{fit.slope:.6g}"))
                lines.append(("beta_stderr", f"{fit.slope_stderr:.3g}"))
                lines.append(("beta_fit_min_n_p", window))
        if "benford" in cfg.analyses:
            _write_benford(g.vmap, out_dir / "benford.csv", lines)
        if "recurrence" in cfg.analyses and g.vmap.total_visits > 0:
            rep = grid.recurrence_report(g.vmap)
            lines.append(("z_max", rep.z_max))
            lines.append(("z_argmax_x", rep.argmax_x))
            lines.append(("z_argmax_y", rep.argmax_y))
            lines.append(("z_argmax_dist", f"{rep.dist_argmax:.6g}"))
            for q, c in zip(("pp", "mp", "mm", "pm"), rep.quadrant_counts):
                lines.append((f"quadrant_{q}", c))
            lines.append(("axis_x_cells", rep.axis_counts[0]))
            lines.append(("axis_y_cells", rep.axis_counts[1]))
        if cfg.export_visits:
            grid.write_visits_csv(g.vmap, out_dir / "visits.csv")

    r = analyzers.runs_obs
    if r is not None:
        hist = r.finalized_histogram()
        hist.write_csv(out_dir / "runs.csv")
        if hist.total_runs:
            lines.append(("short_run_fraction", f"{short_run_fraction(hist):.6f}"))

    p = analyzers.polar_obs
    if p is not None:
        p.deltas.write_csv(out_dir / "dphi_hist.csv")
        lines.append(("polar_samples", len(p.deltas)))
        lines.append(("polar_skipped", p.deltas.skipped))

    with open(out_dir / "summary.txt", "w") as fh:
        for key, value in lines:
            fh.write(f"{key}={value}\n")


def _write_benford(vmap: grid.VisitMap, path, lines):
    if len(vmap) == 0:
        with open(path, "w", newline="") as fh:
            fh.write("d,observed,expected\n")
            for d in range(1, 10):
                fh.write(f"{d},0.000000,{benford.benford_expected(d):.6f}\n")
        return
    table = benford.benford_table(vmap.z_values())
    benford.write_benford_csv(table, path)
    lines.append(("benford_max_abs_dev", f"{table.max_abs_dev:.6f}"))
    lines.append(("benford_chi_square", f"{table.chi_square:.6g}"))
    lines.append(("benford_sample_size", table.sample_size))


def save_checkpoint(cfg: RunConfig, analyzers: Analyzers, summary, path):
    identity = cfg.identity()
    sections = {
        "config": {"json": identity},
        "walk": {
            "n": summary.last_n,
            "x": summary.x,
            "y": summary.y,
            "steps": summary.steps_taken,
        },
    }
    if analyzers.grid_obs is not None:
        sections["grid"] = analyzers.grid_obs.state()
    if analyzers.runs_obs is not None:
        sections["runs"] = analyzers.runs_obs.state()
    if analyzers.polar_obs is not None:
        sections["polar"] = analyzers.polar_obs.state()
    write_checkpoint(path, hashlib.sha256(identity).digest(), sections)


def execute_walk(
    cfg: RunConfig, sections: dict | None = None, state: WalkState | None = None
) -> int:
    """Run cfg from scratch, or continue from `state` and checkpoint `sections`."""
    analyzers = build_analyzers(cfg, sections)
    observers = analyzers.observers()
    if cfg.rule == "rw":
        summary = run_random_walk(cfg.limit, cfg.seed, observers, state=state)
    else:
        start = state.last_n + 1 if state else 2
        summary = run_walk(
            cfg.limit,
            RULES[cfg.rule],
            observers,
            threads=cfg.threads,
            start=start,
            state=state,
        )
    write_outputs(cfg, analyzers, summary, cfg.out_dir)
    save_checkpoint(cfg, analyzers, summary, cfg.out_dir / "checkpoint.pwlk")
    return EXIT_OK


def _walk_state(s: dict) -> WalkState:
    return WalkState(int(s["x"]), int(s["y"]), int(s["steps"]), int(s["n"]))


def resume_walk(path, target: int, **runtime) -> int:
    """Continue the run saved at `path` up to N = target (steps, for rw)."""
    stored_hash, sections = read_checkpoint(path)
    raw = _restore(sections, "config", lambda s: s["json"])
    if hashlib.sha256(raw).digest() != stored_hash:
        raise CheckpointError("checkpoint config hash mismatch")
    # the checkpoint owns the run identity; a tampered one fails the hash above
    cfg = RunConfig(limit=target, **runtime, **json.loads(raw))
    state = _restore(sections, "walk", _walk_state)
    if target <= state.last_n:
        raise CheckpointError(
            f"new limit {target} must exceed checkpointed progress {state.last_n}"
        )
    return execute_walk(cfg, sections, state)


def _add_walk_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--limit", "--steps", dest="limit", default="0",
        help="scan integers up to this N (for rw: the step count)",
    )
    p.add_argument("--rule", default="a1", choices=(*RULES, "rw"))
    p.add_argument("--seed", default="0", help="random baseline seed")
    p.add_argument("--checkpoint-factor", type=float, default=1.25)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--analyses",
        default=",".join(ALL_ANALYSES),
        help=f"comma list from {{{','.join(ALL_ANALYSES)}}}",
    )
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--export-visits", action="store_true")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        limit=parse_number(args.limit),
        rule=args.rule,
        seed=parse_number(args.seed),
        checkpoint_factor=args.checkpoint_factor,
        out_dir=Path(args.out),
        analyses=tuple(s for s in args.analyses.split(",") if s),
        threads=args.threads,
        export_visits=args.export_visits,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="primewalk",
        description="Prime-digit lattice walks and their statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walk_p = sub.add_parser("walk", help="run a walk and write its analyses")
    _add_walk_flags(walk_p)

    resume_p = sub.add_parser("resume", help="continue a checkpointed run")
    resume_p.add_argument("checkpoint", help="checkpoint file")
    resume_p.add_argument("--limit", required=True, help="new target N (or rw steps)")
    resume_p.add_argument("--out", default=".", help="output directory")
    resume_p.add_argument("--threads", type=int, default=1)
    resume_p.add_argument("--export-visits", action="store_true")

    count_p = sub.add_parser("count", help="count walk primes up to a limit")
    count_p.add_argument("limit")
    count_p.add_argument("--threads", type=int, default=1)

    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError("threads must be >= 1")
        if args.command == "count":
            limit = parse_number(args.limit)
            if limit < 0:
                raise UsageError("limit must be >= 0")
            print(count_walk_primes(limit, threads=args.threads))
            return EXIT_OK
        if args.command == "resume":
            return resume_walk(
                Path(args.checkpoint),
                parse_number(args.limit),
                out_dir=Path(args.out),
                threads=args.threads,
                export_visits=args.export_visits,
            )
        return execute_walk(_config_from_args(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
