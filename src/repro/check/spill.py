"""The mmap-backed sorted spill file of a fingerprint store.

A :class:`SpillFile` is the cold tier of the visited set: a flat,
sorted array of ``(fingerprint, check)`` pairs on disk, memory-
mapped for lookups.  The hot tier (the table of
:class:`~repro.check.store.FingerprintStore`) absorbs new states;
when it crosses the spill threshold it is *merged* into the
file — a single sequential two-way merge of the existing records with
the sorted hot entries, streamed to a temp file that then takes the
live file's name — and the hot tier starts over empty.  Lookups
binary-search the mapping (``struct.unpack_from`` directly on the
mmap, no record objects), so the store's resident cost is the hot
table plus page cache the OS is free to drop: exactly the "64 MB
allotment" discipline behind the paper's Table 3 runs, except the wall
is now configurable (``--memory-limit``) and crossing it truncates
gracefully instead of dying.

File layout (all integers big-endian)::

    bytes 0..7    magic  b"RSPILL01"
    bytes 8..15   record count (u64)
    then count records of 16 bytes: fingerprint (u64), check hash (u64)

Records are unique by fingerprint and sorted ascending, which the merge
maintains; a duplicate fingerprint offered to :meth:`SpillFile.merge`
keeps the incumbent record (first-writer-wins, matching the hot table's
semantics).

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
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from ..errors import CheckError

__all__ = ["SpillFile", "MAGIC", "RECORD_SIZE"]

MAGIC = b"RSPILL01"
_HEADER = struct.Struct(">8sQ")
_RECORD = struct.Struct(">QQ")
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
        if self.path.exists():
            self._file, self._count, self._mm = self._map()

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

    def close(self) -> None:
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
        mm = self._mm
        if mm is None:
            return None
        unpack = _RECORD.unpack_from
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            rec_fp, check = unpack(mm, HEADER_SIZE + mid * RECORD_SIZE)
            if rec_fp == fingerprint:
                return int(check)
            if rec_fp < fingerprint:
                lo = mid + 1
            else:
                hi = mid
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
        self._file, self._count, self._mm = mapped

    def _write(self, tmp: Path, fresh: list[tuple[int, int]]) -> None:
        """Stream the merge of the mapped records and ``fresh`` (sorted)
        into ``tmp``, header first."""
        old, n_old = self._mm, self._count
        unpack = _RECORD.unpack_from
        pack = _RECORD.pack
        written = 0
        with open(tmp, "wb") as out:
            out.write(_HEADER.pack(MAGIC, 0))  # count patched below
            i = j = 0
            old_fp, old_check = (unpack(old, HEADER_SIZE)
                                 if old is not None and n_old else (0, 0))
            while i < n_old and j < len(fresh):
                new_fp, new_check = fresh[j]
                if old_fp <= new_fp:
                    out.write(pack(old_fp, old_check))
                    written += 1
                    if old_fp == new_fp:
                        j += 1  # incumbent wins the tie
                    i += 1
                    if i < n_old:
                        assert old is not None
                        old_fp, old_check = unpack(
                            old, HEADER_SIZE + i * RECORD_SIZE)
                else:
                    out.write(pack(new_fp, new_check))
                    written += 1
                    j += 1
            while i < n_old:
                assert old is not None
                out.write(pack(*unpack(old, HEADER_SIZE + i * RECORD_SIZE)))
                written += 1
                i += 1
            for new_fp, new_check in fresh[j:]:
                out.write(pack(new_fp, new_check))
                written += 1
            out.seek(0)
            out.write(_HEADER.pack(MAGIC, written))
