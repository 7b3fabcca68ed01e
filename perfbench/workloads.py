"""The benchmark's workloads: which primewalk CLI commands run, and why.

A workload is a timed CLI command, an optional set-up command whose
checkpoint the timed command resumes, and the uninterrupted reference
command whose outputs the timed command must reproduce byte for byte.
Argument templates may name ``{seed}`` (the random-walk seed) and
``{parent}`` (the set-up run's checkpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the random-walk baseline for bench seed n: RW_SEEDS[n % len].
# The visit map's cell count sets the resume's time, RSS and checkpoint
# size, and across seeds 0..47 it ranges from -11% to +7% of the median.
# These six seeds have cell counts within 2% of the median both at 5e7
# steps (the checkpoint) and at 1e8 steps, so the seed changes the inputs
# but not the working set.
# Reference digests are recorded for each; bench seed 0 (rw seed 25) was
# used while the benchmark was written, the rest are held out.
RW_SEEDS = (25, 33, 22, 35, 44, 46)

# The outputs the paper's results are read from.  The polar files are not
# checked, because their layout is expected to change.
CHECKED_FILES = ("area_series.csv", "runs.csv", "benford.csv", "summary.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    steps: int  # walk steps the timed command takes
    parent_argv: tuple[str, ...] | None = None
    reference_argv: tuple[str, ...] | None = None  # default: argv itself
    seeded: bool = False

    def program_seed(self, bench_seed: int) -> int | None:
        return RW_SEEDS[bench_seed % len(RW_SEEDS)] if self.seeded else None

    def digest_key(self, program_seed: int | None) -> str:
        return self.name if program_seed is None else f"{self.name}/seed={program_seed}"

    def command(self, template, program_seed, parent=None) -> list[str]:
        fill = {"seed": program_seed, "parent": parent}
        return [arg.format(**fill) for arg in template]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="walk-full",
            why=(
                "README default walk with every analysis at limit 1e7; writing the "
                "polar CSV takes ~80% of the time, the sieve and grid barely show"
            ),
            argv=("walk", "--limit", "1e7", "--rule", "a1", "--threads", "1"),
            steps=664_577,
        ),
        Workload(
            name="walk-1e9",
            why=(
                "paper's area-slope scale without polar; sieve, visit map, run "
                "lengths and cumsum dominate, output and checkpoint are under 1%"
            ),
            argv=(
                "walk", "--limit", "1e9", "--rule", "a1",
                "--analyses", "area,runs,benford,recurrence", "--threads", "1",
            ),
            steps=50_847_532,
        ),
        Workload(
            name="rw-resume",
            why=(
                "random-walk resume from a 5e7-step checkpoint to 1e8; bypasses "
                "the sieve, reads a checkpoint and grows a sparse 16M-cell visit map"
            ),
            argv=("resume", "{parent}", "--limit", "1e8", "--threads", "1"),
            steps=50_000_000,
            parent_argv=(
                "walk", "--rule", "rw", "--steps", "5e7", "--seed", "{seed}",
                "--analyses", "area,benford", "--threads", "1",
            ),
            reference_argv=(
                "walk", "--rule", "rw", "--steps", "1e8", "--seed", "{seed}",
                "--analyses", "area,benford", "--threads", "1",
            ),
            seeded=True,
        ),
    )
}
