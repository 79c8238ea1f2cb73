"""The mmap-backed sorted spill file of a fingerprint store.

A :class:`SpillFile` is the cold tier of the visited set: a flat,
sorted array of ``(fingerprint, check)`` pairs on disk, memory-
mapped for lookups.  The hot tier (the table of
:class:`~repro.check.store.FingerprintStore`) absorbs new states;
when it crosses the spill threshold it is *merged* into the
file — a single sequential two-way merge of the existing records with
the sorted hot entries, streamed to a temp file that then takes the
live file's name — and the hot tier starts over empty.  Lookups
bisect the mapping's fingerprint words (``bisect_left`` over a strided
``memoryview`` of the mmap, no record objects), so the store's resident
cost is the hot table plus page cache the OS is free to drop: exactly
the "64 MB allotment" discipline behind the paper's Table 3 runs,
except the wall is now configurable (``--memory-limit``) and crossing
it truncates gracefully instead of dying.

File layout (all integers in the machine's native byte order)::

    bytes 0..7    magic  b"RSPILL02"
    bytes 8..15   record count (u64)
    then count records of 16 bytes: fingerprint (u64), check hash (u64)

Native order lets the mapping be read as machine words: no spill file
is read across runs (see below), so none travels between machines.
Records are unique by fingerprint and sorted ascending, which the merge
maintains; a duplicate fingerprint offered to :meth:`SpillFile.merge`
keeps the incumbent record (first-writer-wins, matching the hot table's
semantics).  The merge copies each run of old records that falls
between two new ones as one slice of the mapping, so its Python-level
work grows with the new entries, not with the file.

The temp file never replaces the live one.  The merge unlinks the live
name first (its mapping stays valid on POSIX) and renames the temp onto
the freed name: ext4 without ``noauto_da_alloc`` forces a writeback of
any rename that replaces a non-empty file, which made every merge wait
on the disk (EXPERIMENTS.md, "Spill merges: unlink, then rename").  The
cost is a crash window: a process killed between the unlink and the
rename leaves only ``<name>.tmp``.  Nothing reads a spill file across
runs — :class:`~repro.check.store.FingerprintStore` deletes the
``*.spill`` and ``*.spill.tmp`` files of its directory at start — so the
window loses nothing a later run would use.
"""

from __future__ import annotations

import mmap
import os
import struct
from bisect import bisect_left
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from ..errors import CheckError

__all__ = ["SpillFile", "MAGIC", "RECORD_SIZE"]

MAGIC = b"RSPILL02"
_HEADER = struct.Struct("=8sQ")
_RECORD = struct.Struct("=QQ")
#: bytes per on-disk record: fingerprint u64 + check hash u64
RECORD_SIZE = _RECORD.size
HEADER_SIZE = _HEADER.size


class SpillFile:
    """A sorted on-disk fingerprint array.

    Opening an existing path validates the header and maps the records
    (:class:`~repro.errors.CheckError` when it is not a spill file); a
    missing path starts empty (the file is created by the first
    :meth:`merge`).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file: Optional[IO[bytes]] = None
        self._mm: Optional[mmap.mmap] = None
        self._count = 0
        self._view(b"")
        if self.path.exists():
            self._adopt(self._map())

    # -- lifecycle ---------------------------------------------------------

    def _map(self) -> tuple[IO[bytes], int, Optional[mmap.mmap]]:
        """Open and validate the file at :attr:`path`: its handle, record
        count and read-only mapping (None when it holds no records)."""
        fh = open(self.path, "rb")
        try:
            header = fh.read(HEADER_SIZE)
            if len(header) != HEADER_SIZE:
                raise CheckError(f"{self.path}: truncated spill header")
            magic, count = _HEADER.unpack(header)
            if magic != MAGIC:
                raise CheckError(f"{self.path}: bad spill magic {magic!r}")
            expected = HEADER_SIZE + count * RECORD_SIZE
            actual = os.fstat(fh.fileno()).st_size
            if actual != expected:
                raise CheckError(
                    f"{self.path}: spill file is {actual} bytes, header "
                    f"promises {expected} ({count} records)")
            return fh, count, (mmap.mmap(fh.fileno(), 0,
                                         access=mmap.ACCESS_READ)
                               if count else None)
        except BaseException:
            fh.close()
            raise

    def _view(self, buffer: Union[bytes, mmap.mmap]) -> None:
        """Look at ``buffer`` (a mapping, or ``b""`` for no records)
        through three views: its bytes, its u64 record words, and every
        second word from the first, the fingerprints."""
        self._bytes = memoryview(buffer)
        self._words = self._bytes[HEADER_SIZE:].cast("Q")
        self._fps = self._words[::2]

    def _adopt(self, mapped: tuple[IO[bytes], int,
                                   Optional[mmap.mmap]]) -> None:
        """Take ``mapped`` (what :meth:`_map` returns) as this file's
        handle, count and mapping."""
        self._file, self._count, self._mm = mapped
        if self._mm is not None:
            self._view(self._mm)

    def close(self) -> None:
        # the views pin the mapping: an exported mmap refuses to close
        for view in (self._fps, self._words, self._bytes):
            view.release()
        self._view(b"")
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return self._count

    @property
    def spill_bytes(self) -> int:
        """On-disk size of the spill file (0 before the first merge)."""
        return HEADER_SIZE + self._count * RECORD_SIZE if self._count else 0

    # -- queries -----------------------------------------------------------

    def lookup(self, fingerprint: int) -> Optional[int]:
        """The check hash stored for ``fingerprint``, or None if absent."""
        fps = self._fps
        at = bisect_left(fps, fingerprint)
        if at < len(fps) and fps[at] == fingerprint:
            return self._words[2 * at + 1]
        return None

    def __contains__(self, fingerprint: int) -> bool:
        return self.lookup(fingerprint) is not None

    # -- mutation ----------------------------------------------------------

    def merge(self, entries: Union[dict[int, int],
                                   Iterable[tuple[int, int]]]) -> None:
        """Merge ``{fingerprint: check}``, or ``(fingerprint, check)``
        pairs unique by fingerprint, into the file.

        Streams a two-way merge of the existing sorted records and the
        sorted new entries into ``<path>.tmp``, unlinks the live file
        (its mapping keeps answering), renames the temp onto the freed
        name, and only then swaps the old mapping for the new one.
        Existing records win fingerprint ties (they were admitted first).

        Any exception — a full disk, a Ctrl-C — deletes the temp and
        leaves this object answering from the old records.  An exception
        after the unlink and before the rename also leaves the live name
        free: the old records then live only in the mapping, which the
        next merge reads as usual.
        """
        fresh = sorted(entries.items() if isinstance(entries, dict)
                       else entries)
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self._write(tmp, fresh)
            self.path.unlink(missing_ok=True)
            os.rename(tmp, self.path)
            mapped = self._map()
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.close()
        self._adopt(mapped)

    def _write(self, tmp: Path, fresh: list[tuple[int, int]]) -> None:
        """Stream the merge of the mapped records and ``fresh`` (sorted)
        into ``tmp``, header first: each run of old records before a new
        one's insertion point goes out as one slice of the mapping."""
        fps, raw = self._fps, self._bytes
        n_old = len(fps)
        pack = _RECORD.pack
        written = done = 0  # records out; old records copied so far
        with open(tmp, "wb") as out:
            out.write(_HEADER.pack(MAGIC, 0))  # count patched below
            for fp, check in fresh:
                at = bisect_left(fps, fp, done)
                if at > done:
                    out.write(raw[HEADER_SIZE + done * RECORD_SIZE:
                                  HEADER_SIZE + at * RECORD_SIZE])
                    written += at - done
                    done = at
                if at < n_old and fps[at] == fp:
                    continue  # incumbent wins the tie
                out.write(pack(fp, check))
                written += 1
            if done < n_old:
                out.write(raw[HEADER_SIZE + done * RECORD_SIZE:])
                written += n_old - done
            out.seek(0)
            out.write(_HEADER.pack(MAGIC, written))
