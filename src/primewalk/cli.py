"""Command-line orchestration: walks, resume, counting and CSV artifacts."""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import benford, fitting, grid, polar, runs
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .primes import count_walk_primes
from .walk import RULES, WalkState, pack_xy, run_random_walk, run_walk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECKPOINT = 3

ALL_ANALYSES = ("area", "runs", "benford", "polar", "recurrence")
GRID_ANALYSES = {"area", "benford", "recurrence"}  # the analyses read from the visit map


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument the parser refuses is a usage error (exit 1), like any other."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def parse_number(text: str) -> int:
    """Integer with optional underscores or scientific shorthand (1e9)."""
    cleaned = text.replace("_", "")
    try:
        value = Decimal(cleaned)
    except InvalidOperation:
        raise UsageError(f"not a number: {text!r}")
    if not value.is_finite():
        raise UsageError(f"not a finite number: {text!r}")
    if value != value.to_integral_value():
        raise UsageError(f"expected an integer, got {text!r}")
    # every number the CLI reads is below 2^64 < 1e20, and int() of a huge
    # exponent such as 1e1000000 runs for tens of seconds
    if value.adjusted() >= 20:
        raise UsageError(f"number too large: {text!r}")
    return int(value)


def parse_limit(text: str) -> int:
    """A walk or count limit: N (or rw steps) must fit the int64 prime arrays."""
    limit = parse_number(text)
    if not 0 <= limit < 1 << 63:
        raise UsageError(f"limit must lie in [0, 2^63), got {text!r}")
    return limit


@dataclass
class RunConfig:
    limit: int = 0  # N for the prime rules, the step count for rw
    rule: str = "a1"
    seed: int = 0
    out_dir: Path = Path(".")
    analyses: tuple = ALL_ANALYSES
    export_visits: bool = False

    def __post_init__(self):
        self.analyses = tuple(self.analyses)
        # a checkpoint's config JSON can hold any number: a float or a bool
        # would reach the generator as a different offset
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise UsageError(f"--seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.rule not in (*RULES, "rw"):
            raise UsageError(f"unknown rule {self.rule!r}")
        bad = set(self.analyses) - set(ALL_ANALYSES)
        if bad:
            raise UsageError(f"unknown analyses: {sorted(bad)}")
        if self.rule == "rw" and set(self.analyses) == {"runs"}:
            raise UsageError("--rule rw has no digit runs: 'runs' needs a prime rule")
        if self.export_visits and not GRID_ANALYSES & set(self.analyses):
            raise UsageError(f"--export-visits needs one of {sorted(GRID_ANALYSES)} in --analyses")

    def identity(self) -> bytes:
        """Canonical JSON of the fields a resumed run must agree on."""
        fields = {
            "rule": self.rule,
            "seed": self.seed,
            "analyses": sorted(self.analyses),
        }
        return json.dumps(fields, sort_keys=True).encode("utf-8")


def _restore(sections: dict, name: str, restore):
    """restore(sections[name]); a missing or malformed section is a CheckpointError."""
    if name not in sections:
        raise CheckpointError(f"checkpoint has no {name!r} section")
    try:
        return restore(sections[name])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {name!r} section lacks {exc}") from None
    except (ValueError, TypeError, UsageError) as exc:
        raise CheckpointError(f"checkpoint {name!r} section is malformed: {exc}") from None


def build_analyzers(cfg: RunConfig, sections: dict | None = None) -> dict:
    """Observers for cfg by checkpoint section name, in the order the walk
    calls them: fresh, or restored from checkpoint `sections`."""
    wanted = {}
    if GRID_ANALYSES & set(cfg.analyses):
        wanted["grid"] = grid.GridObserver
    if "runs" in cfg.analyses and cfg.rule != "rw":
        wanted["runs"] = runs.RunLengthObserver
    if "polar" in cfg.analyses:
        wanted["polar"] = polar.PolarObserver
    return {
        name: cls() if sections is None else _restore(sections, name, cls.from_state)
        for name, cls in wanted.items()
    }


def _fit_series(series: grid.AreaSeries):
    for min_n_p in (10**6, 0):
        try:
            return fitting.fit_area_growth(series, min_n_p=min_n_p), min_n_p
        except ValueError:
            continue
    return None, None


def write_outputs(cfg: RunConfig, analyzers: dict, summary, out_dir: Path):
    lines = []
    lines.append(("rule", cfg.rule))
    if cfg.rule == "rw":
        lines.append(("seed", cfg.seed))
    lines.append(("n", summary.last_n))
    lines.append(("n_p", summary.steps_taken))
    lines.append(("final_x", summary.x))
    lines.append(("final_y", summary.y))

    g = analyzers.get("grid")
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

    r = analyzers.get("runs")
    if r is not None:
        counts = r.finalized_counts()
        runs.write_runs_csv(counts, out_dir / "runs.csv")
        if counts:
            lines.append(("short_run_fraction", f"{runs.short_run_fraction(counts):.6f}"))

    p = analyzers.get("polar")
    if p is not None:
        p.deltas.write_csv(out_dir / "dphi_hist.csv")
        lines.append(("polar_samples", len(p.deltas)))
        lines.append(("polar_skipped", p.deltas.skipped))

    with open(out_dir / "summary.txt", "w") as fh:
        for key, value in lines:
            fh.write(f"{key}={value}\n")

    # last: a map above the size guard costs no other output
    if g is not None and cfg.export_visits:
        try:
            grid.write_visits_csv(g.vmap, out_dir / "visits.csv")
        except ValueError as exc:
            raise UsageError(f"--export-visits: {exc}") from None


def _write_benford(vmap: grid.VisitMap, path, lines):
    if len(vmap) == 0:  # no visit counts: every observed proportion is 0
        empty = benford.BenfordTable(np.zeros(9), benford.BENFORD_EXPECTED, 0, 0.0, 0.0)
        benford.write_benford_csv(empty, path)
        return
    table = benford.benford_table(vmap.leading_digit_counts())
    benford.write_benford_csv(table, path)
    lines.append(("benford_max_abs_dev", f"{table.max_abs_dev:.6f}"))
    lines.append(("benford_chi_square", f"{table.chi_square:.6g}"))
    lines.append(("benford_sample_size", table.sample_size))


def save_checkpoint(cfg: RunConfig, analyzers: dict, summary, path):
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
    sections.update({name: obs.state() for name, obs in analyzers.items()})
    write_checkpoint(path, hashlib.sha256(identity).digest(), sections)


def execute_walk(
    cfg: RunConfig, analyzers: dict | None = None, state: WalkState | None = None
) -> int:
    """Run cfg from scratch, or continue from `state` with restored `analyzers`."""
    if analyzers is None:
        analyzers = build_analyzers(cfg)
    # before the walk: an unusable --out fails at once, with its own error
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    observers = list(analyzers.values())
    if cfg.rule == "rw":
        summary = run_random_walk(cfg.limit, cfg.seed, observers, state=state)
    else:
        summary = run_walk(cfg.limit, RULES[cfg.rule], observers, state=state)
    try:
        write_outputs(cfg, analyzers, summary, cfg.out_dir)
    finally:
        # a failed output write must not lose the finished walk
        save_checkpoint(cfg, analyzers, summary, cfg.out_dir / "checkpoint.pwlk")
    return EXIT_OK


def _walk_state(s: dict) -> WalkState:
    state = WalkState(*(operator.index(s[k]) for k in ("x", "y", "steps", "n")))
    pack_xy(state.x, state.y)  # raises for a position outside the packable range
    if state.steps_taken < 0 or state.last_n < 0:
        raise ValueError(f"steps {state.steps_taken} and n {state.last_n} must be >= 0")
    return state


def resume_walk(path, target: int, **runtime) -> int:
    """Continue the run saved at `path` up to N = target (steps, for rw)."""
    stored_hash, sections = read_checkpoint(path)
    digest = _restore(sections, "config", lambda s: hashlib.sha256(s["json"]).digest())
    if digest != stored_hash:
        raise CheckpointError("checkpoint config hash mismatch")
    # the checkpoint owns the run identity; a tampered one fails the hash above
    stored = _restore(sections, "config", lambda s: RunConfig(**json.loads(s["json"])))
    cfg = replace(stored, limit=target, **runtime)
    state = _restore(sections, "walk", _walk_state)
    steps, n = state.steps_taken, state.last_n
    # the baseline takes one step per N, a prime walk at most one
    if steps > n or (cfg.rule == "rw" and steps != n):
        raise CheckpointError(f"checkpoint 'walk' section's {steps} steps do not fit its N {n}")
    if target <= state.last_n:
        raise CheckpointError(
            f"new limit {target} must exceed checkpointed progress {state.last_n}"
        )
    analyzers = build_analyzers(cfg, sections)
    for name, obs in analyzers.items():
        if obs.steps != state.steps_taken:
            raise CheckpointError(f"checkpoint {name!r} section's steps differ from the walk's")
    g = analyzers.get("grid")
    if g is not None:
        s, bounds = g.series, (state.last_n, state.steps_taken, g.vmap.area)
        if s and any(col[-1] > b for col, b in zip((s.n, s.n_p, s.area), bounds)):
            raise CheckpointError("checkpoint 'grid' section's area series runs past the walk")
        if state.steps_taken and not g.vmap.count_at(state.x, state.y):
            xy = f"({state.x}, {state.y})"
            raise CheckpointError(f"checkpoint 'walk' section's position {xy} has no 'grid' visit")
    del sections  # the analyzers hold copies; free the restored arrays
    return execute_walk(cfg, analyzers, state)


def _add_walk_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--limit", "--steps", dest="limit", default="0",
        help="scan integers up to this N (for rw: the step count)",
    )
    p.add_argument("--rule", default="a1", choices=(*RULES, "rw"))
    p.add_argument("--seed", default="0", help="random baseline seed")
    p.add_argument(
        "--analyses",
        default=",".join(ALL_ANALYSES),
        help=f"comma list from {{{','.join(ALL_ANALYSES)}}}",
    )


def _add_run_flags(p: argparse.ArgumentParser):
    """Flags outside the run identity, so walk and resume both take them."""
    p.add_argument("--out", default=".", help="output directory")
    # only 1 is accepted: kept because the benchmark's command lines pass --threads 1
    p.add_argument(
        "--threads", type=int, default=1, choices=(1,),
        help="ignored; the sieve and the rw draw fork their workers when two or more "
        "CPUs are usable",
    )
    p.add_argument("--export-visits", action="store_true")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        limit=parse_limit(args.limit),
        rule=args.rule,
        seed=parse_number(args.seed),
        out_dir=Path(args.out),
        analyses=tuple(s for s in args.analyses.split(",") if s),
        export_visits=args.export_visits,
    )


def main(argv=None) -> int:
    parser = _Parser(
        prog="primewalk",
        description="Prime-digit lattice walks and their statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walk_p = sub.add_parser("walk", help="run a walk and write its analyses")
    _add_walk_flags(walk_p)
    _add_run_flags(walk_p)

    resume_p = sub.add_parser("resume", help="continue a checkpointed run")
    resume_p.add_argument("checkpoint", help="checkpoint file")
    resume_p.add_argument("--limit", required=True, help="new target N (or rw steps)")
    _add_run_flags(resume_p)

    count_p = sub.add_parser("count", help="count walk primes up to a limit")
    count_p.add_argument("limit")

    try:
        args = parser.parse_args(argv)
        if args.command == "count":
            print(count_walk_primes(parse_limit(args.limit)))
            return EXIT_OK
        if args.command == "resume":
            return resume_walk(
                Path(args.checkpoint),
                parse_limit(args.limit),
                out_dir=Path(args.out),
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
