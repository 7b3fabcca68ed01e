import hashlib
import json
import multiprocessing
import os
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from primewalk import checkpoint, cli, grid
from primewalk.benford import BENFORD_EXPECTED
from primewalk.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from primewalk.cli import (
    EXIT_CHECKPOINT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_number,
    save_checkpoint,
    write_outputs,
)
from primewalk.grid import GridObserver
from primewalk.polar import PolarObserver
from primewalk.runs import RunLengthObserver
from primewalk.walk import A1, WalkState, pack_xy, run_walk

from conftest import rw_batches, rw_pool, sieve_pool, sieve_segments

CSV_FILES = [
    "area_series.csv",
    "runs.csv",
    "benford.csv",
    "dphi_hist.csv",
]


def run_cli(*args):
    return main([str(a) for a in args])


def _first_count(tiles, count, dtype=np.int32):
    """A copy of `tiles` as `dtype`, with its first cell set to `count`."""
    tiles = tiles.astype(dtype)
    tiles.flat[0] = count
    return tiles


def _last_plus(column, k):
    """A copy of `column` with `k` added to its last entry."""
    return np.append(column[:-1], column[-1] + k)


def _config_with(blob, **fields):
    """The config JSON `blob` with `fields` set."""
    return json.dumps({**json.loads(blob), **fields}).encode()


def read_summary(out_dir):
    lines = (Path(out_dir) / "summary.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


class TestParseNumber:
    def test_forms(self):
        assert parse_number("1000000") == 10**6
        assert parse_number("1e9") == 10**9
        assert parse_number("2e10") == 2 * 10**10
        assert parse_number("1_000_000") == 10**6

    def test_rejects_fractions_and_garbage(self):
        from primewalk.cli import UsageError

        with pytest.raises(UsageError):
            parse_number("1.5")
        with pytest.raises(UsageError):
            parse_number("ten")

    @staticmethod
    def refused(tmp_path, capsys, args, text):
        out = tmp_path / "out"
        argv = [str(a) for a in args]
        if args[0] != "count":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert repr(text) in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def limit_args(command, text, tmp_path):
        if command == "count":
            return ("count", text)
        if command == "walk":
            return ("walk", "--limit", text)
        return ("resume", tmp_path / "missing.pwlk", "--limit", text)

    @pytest.mark.parametrize("command", ["count", "walk", "resume"])
    @pytest.mark.parametrize("text", ["inf", "sNaN", "1e400"])
    def test_non_finite_or_huge_limit_is_usage_error(self, tmp_path, capsys, command, text):
        self.refused(tmp_path, capsys, self.limit_args(command, text, tmp_path), text)

    def test_non_finite_seed_is_usage_error(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, ("walk", "--rule", "rw", "--seed", "inf"), "inf")

    @pytest.mark.parametrize("command", ["count", "walk", "resume"])
    @pytest.mark.parametrize("text", [str(1 << 63), "1e1000000"])
    def test_limit_beyond_int64_is_usage_error(self, tmp_path, capsys, command, text):
        # primes and step indices are int64; 2^63 - 1 is the last limit they hold
        self.refused(tmp_path, capsys, self.limit_args(command, text, tmp_path), text)


class TestCount:
    def test_small(self, capsys):
        assert run_cli("count", "100") == EXIT_OK
        assert capsys.readouterr().out.strip() == "23"

    def test_zero(self, capsys):
        assert run_cli("count", "0") == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_scientific(self, capsys):
        assert run_cli("count", "1e6") == EXIT_OK
        assert capsys.readouterr().out.strip() == "78496"

    def test_negative_is_usage_error(self, capsys):
        assert run_cli("count", "-5") == EXIT_USAGE
        assert run_cli("count", "1000", "--threads", "0") == EXIT_USAGE


class TestArguments:
    @pytest.mark.parametrize(
        "args",
        [
            ("walk", "--bogus"),
            ("walk", "--threads", "x"),
            ("walk", "--rule", "a4"),
            ("walk", "--checkpoint-factor", "x"),
            ("resume", "c.pwlk"),
        ],
        ids=["unknown-flag", "threads-not-int", "unknown-rule", "removed-flag",
             "resume-without-limit"],
    )
    def test_parser_error_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("walk", "--help")
        assert info.value.code == 0
        assert "--limit" in capsys.readouterr().out


class TestWalkCommand:
    def test_full_artifacts(self, tmp_path):
        out = tmp_path / "r1"
        assert run_cli("walk", "--limit", "1e6", "--rule", "a1", "--out", out) == EXIT_OK
        for name in CSV_FILES + ["summary.txt", "checkpoint.pwlk"]:
            assert (out / name).exists(), name
        summary = read_summary(out)
        assert summary["n_p"] == "78496"
        assert summary["rule"] == "a1"
        first = (out / "area_series.csv").read_text().splitlines()
        assert first[0] == "n,n_p,area"

    def test_limit_zero(self, tmp_path):
        out = tmp_path / "r0"
        assert run_cli("walk", "--limit", "0", "--rule", "a1", "--out", out) == EXIT_OK
        summary = read_summary(out)
        assert summary["n_p"] == "0"
        assert summary["area"] == "1"
        assert (out / "area_series.csv").read_text() == "n,n_p,area\n0,0,1\n"

    def test_empty_map_benford_csv(self, tmp_path):
        # a zero-step walk: every observed proportion is 0, written like any other CSV
        out = tmp_path / "e"
        assert run_cli("walk", "--limit", "2", "--out", out) == EXIT_OK
        lines = (out / "benford.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"d,observed,expected" and lines[-1] == b""
        rows = [f"{d},0.000000,{BENFORD_EXPECTED[d - 1]:.6f}".encode() for d in range(1, 10)]
        assert lines[1:-1] == rows

    def test_determinism_bytewise(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                run_cli("walk", "--rule", "rw", "--steps", "20000", "--seed", "42",
                        "--out", out)
                == EXIT_OK
            )
        for name in ["area_series.csv", "benford.csv", "dphi_hist.csv",
                     "summary.txt", "checkpoint.pwlk"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_segment_size_invisible(self):
        small = [GridObserver(), RunLengthObserver(), PolarObserver()]
        default = [GridObserver(), RunLengthObserver(), PolarObserver()]
        with sieve_segments(256) as segments:
            run_walk(30000, A1, small)
        assert segments.call_count > 1
        run_walk(30000, A1, default)
        for a, b in zip(small, default):
            sa, sb = a.state(), b.state()
            assert sa.keys() == sb.keys()
            for key in sa:
                assert np.array_equal(sa[key], sb[key]), (type(a).__name__, key)

    def test_analyses_subset(self, tmp_path):
        out = tmp_path / "sub"
        run_cli("walk", "--limit", "10000", "--analyses", "area,runs", "--out", out)
        assert (out / "area_series.csv").exists()
        assert (out / "runs.csv").exists()
        assert not (out / "benford.csv").exists()
        assert not (out / "dphi_hist.csv").exists()

    def test_limit_is_rw_step_count(self, tmp_path):
        out = tmp_path / "rw"
        assert run_cli("walk", "--rule", "rw", "--limit", "1e5", "--out", out) == EXIT_OK
        assert read_summary(out)["n_p"] == "100000"

    def test_steps_is_prime_limit(self, tmp_path):
        out = tmp_path / "a1"
        assert run_cli("walk", "--rule", "a1", "--steps", "1000", "--out", out) == EXIT_OK
        summary = read_summary(out)
        assert (summary["n"], summary["n_p"]) == ("1000", "166")

    def test_negative_steps_is_usage_error(self, tmp_path):
        out = tmp_path / "neg"
        assert run_cli("walk", "--rule", "rw", "--steps", "-5", "--out", out) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--checkpoint-factor", "nan"),
            ("--checkpoint-factor", "inf"),
            ("--seed", "-1"),
            ("--seed", str(1 << 64)),
            ("--threads", "0"),
            ("--threads", "2"),
        ],
    )
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        args = ("walk", "--rule", "rw", "--steps", "100", flag, value, "--out", out)
        assert run_cli(*args) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_two_threads_is_usage_error(self, tmp_path, capsys):
        first, out = tmp_path / "first", tmp_path / "bad"
        assert run_cli("walk", "--limit", "1e4", "--out", first) == EXIT_OK
        capsys.readouterr()
        args = ("resume", first / "checkpoint.pwlk", "--limit", "2e4", "--threads", "2")
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_output_write_keeps_checkpoint(self, tmp_path):
        direct, out, resumed = tmp_path / "d", tmp_path / "o", tmp_path / "r"
        (out / "summary.txt").mkdir(parents=True)
        assert run_cli("walk", "--limit", "1e5", "--out", out) == EXIT_IO
        assert (out / "checkpoint.pwlk").exists()
        run_cli("walk", "--limit", "2e5", "--out", direct)
        assert (
            run_cli("resume", out / "checkpoint.pwlk", "--limit", "2e5", "--out", resumed)
            == EXIT_OK
        )
        for name in CSV_FILES + ["summary.txt", "checkpoint.pwlk"]:
            assert (direct / name).read_bytes() == (resumed / name).read_bytes(), name

    def test_unusable_out_dir_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli("walk", "--limit", "1000", "--out", out) == EXIT_IO
        assert "File exists" in capsys.readouterr().err

    def test_visits_export(self, tmp_path):
        out = tmp_path / "v"
        run_cli("walk", "--limit", "100", "--out", out, "--export-visits")
        lines = (out / "visits.csv").read_text().splitlines()
        assert lines[0] == "x,y,z"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == int(read_summary(out)["n_p"])

    def test_visits_export_above_guard_keeps_every_other_output(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(grid, "_VISITS_MAX_CELLS", 10)
        out = tmp_path / "v"
        assert run_cli("walk", "--limit", "1e4", "--out", out, "--export-visits") == EXIT_USAGE
        g = GridObserver()
        run_walk(10_000, A1, [g])
        guard = f"visit map has {len(g.vmap)} cells, above guard 10"
        assert capsys.readouterr().err == f"error: --export-visits: {guard}\n"
        written = {p.name for p in out.iterdir()}
        assert written == {*CSV_FILES, "summary.txt", "checkpoint.pwlk"}
        assert read_summary(out)["n"] == "10000"

    def test_visits_export_without_a_grid_refused(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "execute_walk", lambda *a, **k: ran.append(a))
        out = tmp_path / "v"
        args = ("walk", "--limit", "1000", "--analyses", "runs,polar", "--export-visits")
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert "--export-visits" in capsys.readouterr().err
        assert not ran and not out.exists()

    def test_rw_with_only_runs_refused(self, tmp_path, capsys):
        # the baseline has no digits, so no digit runs: nothing would be measured
        out = tmp_path / "rw"
        args = ("walk", "--rule", "rw", "--limit", "1000", "--analyses", "runs")
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert "'runs'" in capsys.readouterr().err
        assert not out.exists()
        # the default analysis list still runs, and skips runs
        assert run_cli("walk", "--rule", "rw", "--limit", "1000", "--out", out) == EXIT_OK
        assert (out / "summary.txt").exists() and not (out / "runs.csv").exists()


class TestPooledSieve:
    """A walk's outputs are the same whatever number of workers sieves it."""

    OUTPUTS = CSV_FILES + ["summary.txt", "visits.csv", "checkpoint.pwlk"]

    @staticmethod
    def walk(out, workers, flags, *args):
        with sieve_segments(flags), sieve_pool(workers):
            assert run_cli(*args, "--export-visits", "--out", out) == EXIT_OK
        assert multiprocessing.active_children() == []
        return {name: (out / name).read_bytes() for name in TestPooledSieve.OUTPUTS}

    @pytest.mark.parametrize("flags", [64, 4096])
    def test_outputs_identical_across_widths(self, tmp_path, flags):
        args = ("walk", "--limit", "60000", "--rule", "a2")
        alone = self.walk(tmp_path / "alone", 0, flags, *args)
        for workers in (1, 2, 3):
            assert self.walk(tmp_path / f"pool{workers}", workers, flags, *args) == alone, workers

    @pytest.mark.parametrize("flags", [64, 4096])
    def test_resume_through_the_pool_equals_direct(self, tmp_path, flags):
        direct = self.walk(tmp_path / "d", 0, flags, "walk", "--limit", "60000", "--rule", "a3")
        for workers in (1, 2, 3):
            half, resumed = tmp_path / f"h{workers}", tmp_path / f"r{workers}"
            self.walk(half, workers, flags, "walk", "--limit", "27000", "--rule", "a3")
            args = ("resume", half / "checkpoint.pwlk", "--limit", "60000")
            assert self.walk(resumed, workers, flags, *args) == direct, workers


class TestPooledRandomWalk:
    """An rw run's outputs are the same whether its batches are drawn in a
    forked worker or in-process."""

    OUTPUTS = ["area_series.csv", "benford.csv", "dphi_hist.csv", "summary.txt",
               "visits.csv", "checkpoint.pwlk"]

    @staticmethod
    def walk(out, workers, *args):
        with rw_batches(4096), rw_pool(workers):
            assert run_cli(*args, "--export-visits", "--out", out) == EXIT_OK
        assert multiprocessing.active_children() == []
        return {name: (out / name).read_bytes() for name in TestPooledRandomWalk.OUTPUTS}

    def test_outputs_identical_on_both_paths(self, tmp_path):
        args = ("walk", "--rule", "rw", "--steps", "300000", "--seed", "42")
        assert self.walk(tmp_path / "forked", 1, *args) == self.walk(tmp_path / "alone", 0, *args)

    def test_resume_through_the_worker_equals_direct(self, tmp_path):
        rw = ("walk", "--rule", "rw", "--seed", "7", "--steps")
        direct = self.walk(tmp_path / "d", 0, *rw, "300000")
        for workers in (0, 1):
            half, resumed = tmp_path / f"h{workers}", tmp_path / f"r{workers}"
            self.walk(half, workers, *rw, "130000")
            args = ("resume", half / "checkpoint.pwlk", "--limit", "300000")
            assert self.walk(resumed, 1, *args) == direct, workers


class TestResume:
    def test_resume_equals_direct(self, tmp_path):
        direct, half, resumed = tmp_path / "d", tmp_path / "h", tmp_path / "r"
        run_cli("walk", "--limit", "200000", "--rule", "a2", "--out", direct)
        run_cli("walk", "--limit", "90000", "--rule", "a2", "--out", half)
        assert (
            run_cli("resume", half / "checkpoint.pwlk", "--limit", "200000",
                    "--out", resumed)
            == EXIT_OK
        )
        for name in CSV_FILES + ["summary.txt", "checkpoint.pwlk"]:
            assert (direct / name).read_bytes() == (resumed / name).read_bytes(), name

    def test_resume_rw_equals_direct(self, tmp_path):
        direct, half, resumed = tmp_path / "d", tmp_path / "h", tmp_path / "r"
        run_cli("walk", "--rule", "rw", "--steps", "50000", "--seed", "7", "--out", direct)
        run_cli("walk", "--rule", "rw", "--steps", "20000", "--seed", "7", "--out", half)
        assert (
            run_cli("resume", half / "checkpoint.pwlk", "--limit", "50000",
                    "--out", resumed)
            == EXIT_OK
        )
        for name in ["area_series.csv", "benford.csv", "dphi_hist.csv",
                     "summary.txt", "checkpoint.pwlk"]:
            assert (direct / name).read_bytes() == (resumed / name).read_bytes(), name

    def test_resume_visits_export_without_a_grid_refused(self, tmp_path, capsys, monkeypatch):
        half = tmp_path / "h"
        run_cli("walk", "--limit", "1000", "--analyses", "runs", "--out", half)
        ran = []
        monkeypatch.setattr(cli, "execute_walk", lambda *a, **k: ran.append(a))
        out = tmp_path / "r"
        args = ("resume", half / "checkpoint.pwlk", "--limit", "2000", "--export-visits")
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert "--export-visits" in capsys.readouterr().err
        assert not ran and not out.exists()

    @pytest.mark.parametrize("seed", [7.5, True])
    def test_non_integer_seed_refused(self, tmp_path, capsys, seed):
        # a float or a bool would reach the generator as a different stream
        half, out = tmp_path / "h", tmp_path / "r"
        run_cli("walk", "--rule", "rw", "--steps", "20000", "--seed", "7", "--out", half)
        ckpt = half / "checkpoint.pwlk"
        _, sections = read_checkpoint(ckpt)
        blob = _config_with(sections["config"]["json"], seed=seed)
        sections["config"]["json"] = blob
        write_checkpoint(ckpt, hashlib.sha256(blob).digest(), sections)
        capsys.readouterr()
        assert run_cli("resume", ckpt, "--limit", "50000", "--out", out) == EXIT_CHECKPOINT
        assert "'config' section" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_backwards_refused(self, tmp_path):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "50000", "--out", out)
        assert (
            run_cli("resume", out / "checkpoint.pwlk", "--limit", "40000",
                    "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )

    def test_tampered_config_refused(self, tmp_path):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "50000", "--rule", "a1", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        stored_hash, sections = read_checkpoint(ckpt)
        cfg = json.loads(sections["config"]["json"].decode())
        cfg["rule"] = "a3"
        sections["config"]["json"] = json.dumps(cfg, sort_keys=True).encode()
        write_checkpoint(ckpt, stored_hash, sections)
        assert (
            run_cli("resume", ckpt, "--limit", "100000", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )

    def test_corrupt_payload_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "50000", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        good = ckpt.read_bytes()
        # a flipped payload byte, then an intact file stamped VERSION 1, 2, 3, 4 or 5
        stamps = [(4, struct.pack("<I", v)) for v in (1, 2, 3, 4, 5)]
        for at, patch in [(60, bytes([good[60] ^ 0xFF])), *stamps]:
            blob = bytearray(good)
            blob[at : at + len(patch)] = patch
            ckpt.write_bytes(bytes(blob))
            assert (
                run_cli("resume", ckpt, "--limit", "100000", "--out", tmp_path / "x")
                == EXIT_CHECKPOINT
            )
        assert "unsupported checkpoint version 5" in capsys.readouterr().err

    def test_oversized_array_header_refused(self, tmp_path, capsys):
        # under a valid CRC, the tiles' header declares 4 PiB, more than any
        # address space holds: refused before anything that size is allocated
        out = tmp_path / "o"
        run_cli("walk", "--limit", "1e5", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        blob = bytearray(ckpt.read_bytes())
        at = blob.index(b"'shape': (", blob.index(b"grid/map_tiles.npy"))
        end = blob.index(b"\n", at)  # the header's padding ends at its newline
        shape = f"'shape': ({1 << 40}, 4096), }}".encode()
        assert len(shape) <= end - at
        blob[at:end] = shape.ljust(end - at)
        head = checkpoint._HEAD
        magic, version, config_hash, length, _ = head.unpack_from(blob)
        crc = zlib.crc32(blob[head.size :])
        blob[: head.size] = head.pack(magic, version, config_hash, length, crc)
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert (
            run_cli("resume", ckpt, "--limit", "2e5", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )
        assert "undecodable checkpoint payload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section", ["config", "walk", "grid", "runs", "polar", "polar/counts"]
    )
    def test_missing_section_refused(self, tmp_path, section):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "50000", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        stored_hash, sections = read_checkpoint(ckpt)
        if section == "polar/counts":  # the per-sample layout of earlier releases
            sections["polar"] = {"steps": np.arange(3), "d_r": np.zeros(3),
                                 "d_phi": np.zeros(3), "skipped": 0, "steps_done": 3}
        else:
            del sections[section]
        write_checkpoint(ckpt, stored_hash, sections)
        assert (
            run_cli("resume", ckpt, "--limit", "100000", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )

    @pytest.mark.parametrize(
        "section, field, damage",
        [
            ("grid", "map_tile_ids", lambda a: np.concatenate((a[:1], a[:-1]))),
            ("grid", "map_tile_ids", lambda a: a[::-1].copy()),
            ("grid", "map_tile_ids", lambda a: a | (np.arange(len(a)) == 1).astype(np.uint64)),
            ("grid", "map_tiles", lambda a: a[:-1]),
            ("grid", "map_tiles", lambda a: _first_count(a, 1 << 31, np.int64)),
            ("grid", "map_tiles", lambda a: _first_count(a, -1)),
            ("grid", "map_tiles", lambda a: _first_count(a, a.flat[0] + 1)),
            ("grid", "series_area", lambda a: a[:-3]),
            ("runs", "lengths", lambda a: a[:-1]),
            ("polar", "counts", lambda a: a[:50]),
            ("config", "json", lambda a: 5),
            ("config", "json", lambda a: b"[1]"),
            ("config", "json", lambda a: _config_with(a, bogus=1)),
            ("config", "json", lambda a: _config_with(a, rule="a4")),
            ("config", "json", lambda a: _config_with(a, checkpoint_factor="x")),
            ("polar", "counts", lambda a: -a),
            ("polar", "counts", lambda a: a + 0.5),
            ("polar", "skipped", lambda a: -5),
            ("runs", "acc_digit", lambda a: 4),
            ("runs", "occurrences", lambda a: -a),
            ("walk", "x", lambda a: 2**40),
            ("walk", "x", lambda a: a + 10**4),  # past the 9,592 steps of the walk
            ("runs", "lengths", lambda a: a + 0.5),
            ("runs", "acc_length", lambda a: a + 0.5),
            ("walk", "x", lambda a: a + 0.25),
            ("grid", "series_n", lambda a: a + 0.5),
            ("runs", "occurrences", lambda a: a + (np.arange(len(a)) == 0)),
            ("polar", "counts", lambda a: a + 5),
            ("polar", "skipped", lambda a: a + 1),
            ("grid", "series_n", lambda a: _last_plus(a, 10**6)),
            ("grid", "series_n_p", lambda a: _last_plus(a, 10**6)),
            ("grid", "series_area", lambda a: _last_plus(a, 10**6)),
        ],
        ids=["duplicate-tile-id", "unsorted-tile-ids", "tile-id-not-first-cell",
             "tiles-row-short", "count-past-int32",
             "negative-count", "tiles-past-walk-steps", "series-short", "lengths-short",
             "50-bins", "config-json-not-bytes", "config-json-list", "config-unknown-field",
             "config-bad-rule", "config-factor-not-number", "polar-negative-counts",
             "polar-fractional-counts", "polar-negative-skipped", "runs-open-digit-4",
             "runs-negative-occurrences", "walk-x-unpackable", "walk-x-off-path",
             "runs-fractional-lengths", "runs-fractional-open-run", "walk-fractional-x",
             "grid-fractional-series", "runs-past-walk-steps", "polar-past-walk-steps",
             "polar-skips-past-walk-steps", "series-past-walk-n", "series-past-walk-steps",
             "series-past-map-area"],
    )
    def test_malformed_section_refused(self, tmp_path, capsys, section, field, damage):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "1e5", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        stored_hash, sections = read_checkpoint(ckpt)
        sections[section][field] = damage(sections[section][field])
        if isinstance(sections[section][field], bytes):
            # a damaged config that passes the hash check
            stored_hash = hashlib.sha256(sections[section][field]).digest()
        write_checkpoint(ckpt, stored_hash, sections)
        capsys.readouterr()
        assert (
            run_cli("resume", ckpt, "--limit", "2e5", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )
        assert f"{section!r} section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "walk_args, last_n, target",
        [
            # primes 5,001-6,000 would be walked a second time
            (("--limit", "1e5", "--analyses", "runs"), lambda s: 5_000, "6000"),
            # rw's N is its step count: 1e5 steps stored with the area series' last N
            (("--rule", "rw", "--steps", "1e5", "--seed", "7"),
             lambda s: s["grid"]["series_n"][-1], "99000"),
        ],
        ids=["prime-steps-past-n", "rw-steps-not-n"],
    )
    def test_walk_steps_that_do_not_fit_n_refused(
        self, tmp_path, capsys, walk_args, last_n, target
    ):
        out = tmp_path / "o"
        run_cli("walk", *walk_args, "--out", out)
        ckpt = out / "checkpoint.pwlk"
        stored_hash, sections = read_checkpoint(ckpt)
        sections["walk"]["n"] = np.int64(last_n(sections))
        write_checkpoint(ckpt, stored_hash, sections)
        capsys.readouterr()
        args = ("resume", ckpt, "--limit", target, "--out", tmp_path / "x")
        assert run_cli(*args) == EXIT_CHECKPOINT
        assert "'walk' section" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_not_a_checkpoint(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a checkpoint at all")
        assert (
            run_cli("resume", bogus, "--limit", "100000", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )


class TestCheckpointFormat:
    def test_synced_before_rename(self, tmp_path, monkeypatch):
        # a crash after the rename must find the whole file on disk, not an empty one
        calls, real_fsync, real_replace = [], os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": np.arange(10)}})
        ino = path.stat().st_ino
        assert calls == [("fsync", ino), ("replace", ino)]
        assert read_checkpoint(path)[1]["s"]["v"].tolist() == list(range(10))

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.pwlk"
        sections = {
            "a": {"x": 7, "f": 2.5, "blob": b"bytes", "arr": np.arange(5, dtype=np.int64),
                  "nul": b"ab\x00", "empty": b"", "neg": -3,
                  "u8": np.array([0, 7, 255], dtype=np.uint8)},
            "b": {"u": np.array([1, 2], dtype=np.uint64),
                  "d": np.array([0.5, -0.5], dtype=np.float64)},
        }
        write_checkpoint(path, b"\x01" * 32, sections)
        h, loaded = read_checkpoint(path)
        assert h == b"\x01" * 32
        assert loaded["a"]["x"] == 7
        assert loaded["a"]["f"] == 2.5
        assert loaded["a"]["blob"] == b"bytes"
        assert loaded["a"]["nul"] == b"ab\x00"
        assert loaded["a"]["empty"] == b""
        assert loaded["a"]["neg"] == -3
        assert loaded["a"]["arr"].tolist() == [0, 1, 2, 3, 4]
        assert loaded["b"]["u"].dtype == np.uint64
        assert loaded["b"]["d"].tolist() == [0.5, -0.5]
        # bytes travel as void: a uint8 array reads back as an array, a void one is refused
        assert loaded["a"]["u8"].dtype == np.uint8
        assert loaded["a"]["u8"].tolist() == [0, 7, 255]
        with pytest.raises(TypeError, match="a/raw"):
            write_checkpoint(path, b"\x01" * 32, {"a": {"raw": np.array(np.void(b"xy"))}})

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": 1}})
        good = path.read_bytes()
        encode = checkpoint._encode

        def failing(name, v):
            if name == "s/b":
                raise RuntimeError("disk full")
            return encode(name, v)

        monkeypatch.setattr(checkpoint, "_encode", failing)
        with pytest.raises(RuntimeError, match="disk full"):
            write_checkpoint(path, b"\x00" * 32, {"s": {"a": np.arange(4), "b": 2}})
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["c.pwlk"]

    def test_missing_directory_error_is_not_masked(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            write_checkpoint(tmp_path / "no" / "c.pwlk", b"\x00" * 32, {"s": {"v": 1}})
        assert info.value.__context__ is None

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": 1}})
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_bytes_after_the_archive_refused(self, tmp_path):
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": 1}})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="size does not match"):
            read_checkpoint(path)

    def test_tiles_stored_one_byte_per_cell(self, tmp_path):
        # z_max at 1e5 fits a uint8: every other section and the npz framing take under 8 KB
        run_cli("walk", "--limit", "1e5", "--out", tmp_path)
        ckpt = tmp_path / "checkpoint.pwlk"
        tiles = len(read_checkpoint(ckpt)[1]["grid"]["map_tile_ids"])
        assert tiles == 3
        assert ckpt.stat().st_size <= checkpoint._HEAD.size + 64 * 64 * tiles + 8192

    def test_header_crc_checked(self, tmp_path):
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": 1}})
        blob = bytearray(path.read_bytes())
        assert blob[:4] == b"PWLK" and blob[4:8] == struct.pack("<I", 6)
        blob[48] ^= 0x01  # the first byte of the payload CRC, after the length
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity check failed"):
            read_checkpoint(path)


class TestOutputMemory:
    def test_output_and_save_read_the_map_in_chunks(self, tmp_path):
        # one cell in each of 64 x 64 tiles around the origin, axis tiles included
        coords = [64 * i for i in range(-32, 32)]
        g = GridObserver()
        for x in coords:
            g.vmap.record_keys(np.array([pack_xy(x, y) for y in coords], dtype=np.uint64))
        tiles = len(g.vmap.state()["tile_ids"])
        assert tiles == 4096
        tile = 64 * 64 * 4  # bytes of one int32 tile
        cfg = RunConfig(
            analyses=("area", "benford", "recurrence"), out_dir=tmp_path, export_visits=True
        )
        summary = WalkState(coords[-1], coords[-1], g.steps, g.steps)
        analyzers = {"grid": g}
        phases = {
            # a quarter of the store's tiles
            "write_outputs": (
                lambda: write_outputs(cfg, analyzers, summary, tmp_path),
                tiles * tile // 4,
            ),
            # one read of uint8 tiles, the tile ids and 32 KB
            "save_checkpoint": (
                lambda: save_checkpoint(cfg, analyzers, summary, tmp_path / "checkpoint.pwlk"),
                grid._CELL_TILES * tile // 4 + tiles * 8 + (32 << 10),
            ),
        }
        for name, (phase, budget) in phases.items():
            tracemalloc.start()
            try:
                phase()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < budget, (name, peak, budget)
        assert read_summary(tmp_path)["benford_sample_size"] == "4096"
