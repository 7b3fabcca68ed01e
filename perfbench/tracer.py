"""Run the primewalk CLI once with spans recorded around each layer.

    python perfbench/tracer.py --spans SPANS.json -- <primewalk cli arguments>

The program's own files are untouched: before ``primewalk.cli.main`` runs,
the public entry points of each module are rebound in-process to wrappers
that record a span (name, start, end, parent) and the layer's work counters.
Spans stay in memory and are written to SPANS.json when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name=None, after=None):
        """`fn` inside span `name` (if given); `after(result, *args)` counts."""

        def wrapped(*args, **kwargs):
            idx = self._enter(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._exit(idx)
            if after is not None:
                after(result, *args)
            return result

        return wrapped

    def wrap_iter(self, fn, name):
        """Generator function `fn` with one span per `next()`."""

        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    arr = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counters["primes.segments"] += 1
                self.counters["primes.primes"] += len(arr)
                yield arr

        return wrapped

    def install(self) -> None:
        from primewalk import benford, checkpoint, cli, fitting, grid, polar, primes, runs, walk

        c = self.counters

        def count(key):
            def after(*_):
                c[key] += 1
            return after

        def rebind(module, attr, new):
            """Point every primewalk name bound to module.attr at `new`."""
            old = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("primewalk"):
                    for k, v in list(vars(mod).items()):
                        if v is old:
                            setattr(mod, k, new)

        def function(module, attr, name, after=None):
            rebind(module, attr, self.wrap(getattr(module, attr), name, after))

        def method(cls, attr, name=None, after=None):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, after))

        def after_record_keys(_, vmap, keys):
            c["grid.record_keys_calls"] += 1
            c["grid.cells"] = len(vmap)

        def after_polar_csv(_, deltas, path):
            c["polar.samples"] = len(deltas)

        def after_outputs(_, cfg, analyzers, summary, out_dir):
            c["cli.output_bytes"] = sum(e.stat().st_size for e in os.scandir(out_dir))

        def after_write(_, path, *rest):
            c["checkpoint.write_bytes"] = os.path.getsize(path)

        def after_read(_, path):
            c["checkpoint.read_bytes"] = os.path.getsize(path)

        rebind(primes, "iter_walk_prime_arrays",
               self.wrap_iter(primes.iter_walk_prime_arrays, "primes.sieve"))
        function(walk, "run_walk", "walk.cumsum")
        function(walk, "run_random_walk", "walk.cumsum")
        method(walk.WalkSession, "feed", after=count("walk.batches"))
        walk.RandomSource.block_at = staticmethod(
            self.wrap(walk.RandomSource.block_at, "walk.rng", count("walk.batches"))
        )
        method(grid.GridObserver, "observe", "grid.observe")
        method(grid.VisitMap, "record_keys", "grid.record_keys", after_record_keys)
        method(runs.RunLengthObserver, "observe", "runs.observe")
        method(polar.PolarObserver, "observe", "polar.observe")
        method(polar.PolarObserver, "finish", "polar.finish")
        method(polar.PolarDeltas, "write_csv", "polar.write_csv", after_polar_csv)
        function(benford, "benford_table", "benford.table")
        function(grid, "recurrence_report", "grid.recurrence")
        function(fitting, "fit_area_growth", "fitting.fit")
        function(cli, "write_outputs", "cli.write_outputs", after_outputs)
        function(cli, "save_checkpoint", "checkpoint.save")
        function(cli, "build_analyzers", "checkpoint.restore")
        function(checkpoint, "write_checkpoint", "checkpoint.write", after_write)
        function(checkpoint, "read_checkpoint", "checkpoint.read", after_read)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import primewalk.cli

    tracer = Tracer()
    tracer.install()
    try:
        return primewalk.cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
