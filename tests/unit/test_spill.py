"""Unit tests for the mmap-backed spill tier (repro.check.spill)."""

import os
import struct

import pytest

import repro.check.spill as spill_module
from repro.check.spill import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    SpillFile,
)
from repro.check.store import FingerprintStore
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
        assert [fp for fp, _check in struct.iter_unpack("=QQ", raw)] \
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
        magic, count = struct.unpack_from("=8sQ", raw)
        assert magic == MAGIC and count == 1


class _FailingWriter:
    """A write handle that raises ``exc`` on its ``calls``-th write."""

    def __init__(self, fh, exc, calls):
        self._fh, self._exc, self._calls = fh, exc, calls

    def write(self, data):
        self._calls -= 1
        if self._calls == 0:
            raise self._exc
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def _inject(monkeypatch, where, exc):
    """Make the next merge raise ``exc`` while it writes its temp file
    (on the third record) or at the rename onto the live name."""
    if where == "write":
        def opener(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return _FailingWriter(fh, exc, 4) if "w" in mode else fh
        monkeypatch.setattr(spill_module, "open", opener, raising=False)
    else:
        def rename(src, dst):
            raise exc
        monkeypatch.setattr(spill_module.os, "rename", rename)


FAULTS = [pytest.param(where, exc, id=f"{where}-{type(exc).__name__}")
          for where in ("write", "rename")
          for exc in (OSError(28, "No space left on device"),
                      KeyboardInterrupt())]


class TestFailedMerge:
    """Any exception out of a merge deletes the temp file, and the spill
    keeps answering from the records it had before."""

    @pytest.mark.parametrize("where, exc", FAULTS)
    def test_old_records_answer_and_no_temp_is_left(self, path, monkeypatch,
                                                    where, exc):
        spill = SpillFile(path)
        spill.merge({1: 10, 2: 20})
        _inject(monkeypatch, where, exc)
        with pytest.raises(type(exc)):
            spill.merge({3: 30, 1: 99, 4: 40})
        monkeypatch.undo()
        assert len(spill) == 2
        assert spill.spill_bytes == HEADER_SIZE + 2 * RECORD_SIZE
        assert [spill.lookup(fp) for fp in (1, 2, 3, 4)] == [10, 20, None,
                                                             None]
        # the live file goes only once the temp is complete; past that,
        # the old records live on in the mapping alone
        listing = [p.name for p in path.parent.iterdir()]
        assert listing == (["visited.spill"] if where == "write" else [])
        # ... which the next merge reads like a file
        spill.merge({3: 30})
        spill.close()
        reopened = SpillFile(path)
        assert [reopened.lookup(fp) for fp in (1, 2, 3, 4)] == [10, 20, 30,
                                                                None]
        reopened.close()
        assert [p.name for p in path.parent.iterdir()] == ["visited.spill"]

    @pytest.mark.parametrize("where, exc", FAULTS)
    def test_first_merge_leaves_an_empty_directory(self, path, monkeypatch,
                                                   where, exc):
        spill = SpillFile(path)
        _inject(monkeypatch, where, exc)
        with pytest.raises(type(exc)):
            spill.merge({i: i for i in range(8)})
        assert len(spill) == 0 and spill.spill_bytes == 0
        assert spill.lookup(3) is None
        assert list(path.parent.iterdir()) == []
        spill.close()


class TestStoreDiskTier:
    """The fingerprint store over a failing merge, and its startup sweep."""

    STATES = [("state", i) for i in range(12)]

    @pytest.mark.parametrize("where", ["write", "rename"])
    def test_failed_merge_is_a_check_error(self, tmp_path, monkeypatch,
                                           where):
        store = FingerprintStore(spill_dir=tmp_path, spill_threshold=4)
        for state in self.STATES[:8]:  # two merges
            assert store.add(state)
        _inject(monkeypatch, where, OSError(28, "No space left on device"))
        for state in self.STATES[8:11]:
            assert store.add(state)
        with pytest.raises(CheckError, match=r"^cannot write spill file "
                           r".*visited\.spill: .*No space left on device"):
            store.add(self.STATES[11])
        monkeypatch.undo()
        assert store.spill_merges == 2
        assert store.spill_bytes() == HEADER_SIZE + 8 * RECORD_SIZE
        assert all(state in store for state in self.STATES)
        assert [p.name for p in tmp_path.iterdir()] \
            == (["visited.spill"] if where == "write" else [])
        store.close()

    def test_interrupted_merge_propagates(self, tmp_path, monkeypatch):
        store = FingerprintStore(spill_dir=tmp_path, spill_threshold=4)
        _inject(monkeypatch, "write", KeyboardInterrupt())
        for state in self.STATES[:3]:
            store.add(state)
        with pytest.raises(KeyboardInterrupt):
            store.add(self.STATES[3])
        assert store.spill_merges == 0
        assert all(state in store for state in self.STATES[:4])
        assert list(tmp_path.iterdir()) == []
        store.close()

    def test_startup_sweep_removes_a_killed_merge_temp(self, tmp_path):
        # a run killed between unlinking visited.spill and renaming its
        # temp leaves only the temp; another run's file goes too
        (tmp_path / "visited.spill.tmp").write_bytes(MAGIC + b"\x00" * 40)
        (tmp_path / "partition-0001.spill").write_bytes(b"junk")
        (tmp_path / "notes.txt").write_text("not the store's")
        store = FingerprintStore(spill_dir=tmp_path, spill_threshold=4)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
        store.close()
