"""Unit tests for the mmap-backed spill tier (repro.check.spill)."""

import os
import struct

import pytest

from repro.check.spill import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    SpillFile,
)
from repro.errors import CheckError


@pytest.fixture
def path(tmp_path):
    return tmp_path / "visited.spill"


class TestRoundTrip:
    def test_empty_until_first_merge(self, path):
        spill = SpillFile(path)
        assert len(spill) == 0
        assert spill.spill_bytes == 0
        assert spill.lookup(42) is None
        assert 42 not in spill
        spill.close()

    def test_merge_then_lookup(self, path):
        spill = SpillFile(path)
        entries = {fp: fp ^ 0xDEAD for fp in (3, 1 << 63, 7, 2**64 - 1, 0)}
        spill.merge(entries)
        assert len(spill) == len(entries)
        for fp, check in entries.items():
            assert spill.lookup(fp) == check
            assert fp in spill
        assert spill.lookup(5) is None
        spill.close()

    def test_survives_reopen(self, path):
        spill = SpillFile(path)
        spill.merge({10: 100, 20: 200})
        spill.close()
        reopened = SpillFile(path)
        assert len(reopened) == 2
        assert reopened.lookup(10) == 100
        assert reopened.lookup(20) == 200
        reopened.close()

    def test_fingerprints_iterate_sorted(self, path):
        spill = SpillFile(path)
        spill.merge({5: 1, 1: 1, 9: 1})
        spill.merge({3: 1, 7: 1})
        spill.close()
        # the sorted order is the file's, not an iterator's: read it raw
        raw = path.read_bytes()[HEADER_SIZE:]
        assert [fp for fp, _check in struct.iter_unpack(">QQ", raw)] \
            == [1, 3, 5, 7, 9]

    def test_pairs_merge_like_a_dict(self, tmp_path):
        # the fingerprint store hands its table over as (fp, check) pairs
        entries = {fp: fp ^ 0xBEEF for fp in (0, 9, 2**64 - 1, 4, 1 << 40)}
        by_dict = SpillFile(tmp_path / "dict.spill")
        by_pairs = SpillFile(tmp_path / "pairs.spill")
        by_dict.merge(entries)
        by_pairs.merge(pair for pair in entries.items())
        by_dict.close()
        by_pairs.close()
        assert (tmp_path / "pairs.spill").read_bytes() \
            == (tmp_path / "dict.spill").read_bytes()

    def test_file_size_matches_record_math(self, path):
        spill = SpillFile(path)
        spill.merge({i: i for i in range(37)})
        assert spill.spill_bytes == HEADER_SIZE + 37 * RECORD_SIZE
        assert os.path.getsize(path) == spill.spill_bytes
        spill.close()


class TestMerge:
    def test_successive_merges_accumulate(self, path):
        spill = SpillFile(path)
        spill.merge({i: i * 2 for i in range(0, 100, 2)})
        spill.merge({i: i * 3 for i in range(1, 100, 2)})
        assert len(spill) == 100
        assert spill.lookup(4) == 8
        assert spill.lookup(5) == 15
        spill.close()

    def test_incumbent_wins_on_duplicate_fingerprint(self, path):
        # A fingerprint already on disk keeps its original check value:
        # the on-disk record was admitted first, exactly as the in-memory
        # dict keeps the first check it saw.
        spill = SpillFile(path)
        spill.merge({7: 111})
        spill.merge({7: 999, 8: 222})
        assert len(spill) == 2
        assert spill.lookup(7) == 111
        assert spill.lookup(8) == 222
        spill.close()

    def test_empty_merge_is_noop(self, path):
        spill = SpillFile(path)
        spill.merge({1: 1})
        before = spill.spill_bytes
        spill.merge({})
        assert spill.spill_bytes == before
        assert spill.lookup(1) == 1
        spill.close()

    def test_no_stale_tmp_left_behind(self, path):
        spill = SpillFile(path)
        spill.merge({1: 1})
        spill.merge({2: 2})
        spill.close()
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []


class TestCorruption:
    def test_bad_magic_rejected(self, path):
        path.write_bytes(b"NOTSPILL" + b"\x00" * 8)
        with pytest.raises(CheckError, match="magic"):
            SpillFile(path)

    def test_truncated_header_rejected(self, path):
        path.write_bytes(b"garbage")
        with pytest.raises(CheckError, match="truncated spill header"):
            SpillFile(path)

    def test_truncated_body_rejected(self, path):
        spill = SpillFile(path)
        spill.merge({1: 1, 2: 2})
        spill.close()
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(CheckError, match="header promises"):
            SpillFile(path)

    def test_header_count_is_authoritative(self, path):
        spill = SpillFile(path)
        spill.merge({1: 10})
        spill.close()
        raw = path.read_bytes()
        magic, count = struct.unpack_from(">8sQ", raw)
        assert magic == MAGIC and count == 1
