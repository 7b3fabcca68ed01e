import json
import struct
from pathlib import Path

import numpy as np
import pytest

from primewalk.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from primewalk.cli import EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, main, parse_number
from primewalk.grid import GridObserver
from primewalk.polar import PolarObserver
from primewalk.runs import RunLengthObserver
from primewalk.walk import A1, run_walk

CSV_FILES = [
    "area_series.csv",
    "runs.csv",
    "benford.csv",
    "dphi_hist.csv",
]


def run_cli(*args):
    return main([str(a) for a in args])


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
        run_walk(30000, A1, small, segment_flags=256)
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

    def test_visits_export(self, tmp_path):
        out = tmp_path / "v"
        run_cli("walk", "--limit", "100", "--out", out, "--export-visits")
        lines = (out / "visits.csv").read_text().splitlines()
        assert lines[0] == "x,y,z"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == int(read_summary(out)["n_p"])


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

    def test_corrupt_payload_refused(self, tmp_path):
        out = tmp_path / "o"
        run_cli("walk", "--limit", "50000", "--out", out)
        ckpt = out / "checkpoint.pwlk"
        good = ckpt.read_bytes()
        # a flipped payload byte, then an intact file stamped VERSION 1
        for at, patch in ((60, bytes([good[60] ^ 0xFF])), (4, struct.pack("<I", 1))):
            blob = bytearray(good)
            blob[at : at + len(patch)] = patch
            ckpt.write_bytes(bytes(blob))
            assert (
                run_cli("resume", ckpt, "--limit", "100000", "--out", tmp_path / "x")
                == EXIT_CHECKPOINT
            )

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

    def test_not_a_checkpoint(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a checkpoint at all")
        assert (
            run_cli("resume", bogus, "--limit", "100000", "--out", tmp_path / "x")
            == EXIT_CHECKPOINT
        )


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.pwlk"
        sections = {
            "a": {"x": 7, "f": 2.5, "blob": b"bytes", "arr": np.arange(5, dtype=np.int64),
                  "nul": b"ab\x00", "neg": -3},
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
        assert loaded["a"]["neg"] == -3
        assert loaded["a"]["arr"].tolist() == [0, 1, 2, 3, 4]
        assert loaded["b"]["u"].dtype == np.uint64
        assert loaded["b"]["d"].tolist() == [0.5, -0.5]
        # a uint8 array would read back as bytes, so it is refused
        with pytest.raises(TypeError, match="a/digits"):
            write_checkpoint(path, b"\x01" * 32, {"a": {"digits": np.zeros(2, np.uint8)}})

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.pwlk"
        write_checkpoint(path, b"\x00" * 32, {"s": {"v": 1}})
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
