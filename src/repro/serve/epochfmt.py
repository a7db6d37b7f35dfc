"""The binary epoch format: the one compiled form of a served list.

Every membership index in this repository is this format.
:func:`encode_list` compiles a list into one buffer (once per publish,
replica delta or bare-list index), and
:class:`~repro.serve.index.MembershipIndex` answers ``query`` /
``related`` / batch probes directly off that buffer through
``memoryview`` casts.  The same bytes are the wire and disk form:
shards and replicas stand an epoch up from a shipped buffer with
:func:`load_epoch` in O(size), with **no per-entry Python object
construction**, and :class:`EpochDiskCache` persists them.

Wire layout (all integers little-endian; the loader refuses to run on
big-endian hosts rather than silently mis-read)::

    header   "<4sHHI32sIIIIIIII"  (76 bytes)
        magic=b"RWSE"  format_version  flags  snap_version
        content_hash(32 raw sha256 bytes)  list_version_id  as_of_id
        n_strings  hash_cap  n_entries  n_sets  n_records  total_len
    section table  15 x (offset u32, length u32)   (120 bytes)
    sections  (each 4-byte aligned, zero-padded)
    crc32    u32 over everything before it

Sections, in order:

====  ==================  =====================================
idx   name                contents
====  ==================  =====================================
0     str_offsets         (n_strings+1) x u32 into str_blob
1     str_blob            UTF-8 bytes of every interned string
2     str_hash            hash_cap x u32 open-addressed table,
                          slot = string_id+1 (0 = empty); probe
                          start crc32(bytes) & (hash_cap-1)
3     str_entry           n_strings x u32 -> entry_idx+1 (0 = none)
4     str_primary_set     n_strings x u32 -> set_idx+1 for strings
                          that are a set primary (first set wins)
5     entry_site          n_entries x u32 string ids
6     entry_primary       n_entries x u32 string ids (set primary)
7     entry_variant       n_entries x u32 string_id+1 (0 = none)
8     entry_role          n_entries x u8 role codes
9     entry_set           n_entries x u32 set indices
10    set_primary         n_sets x u32 string ids
11    set_rec_start       (n_sets+1) x u32 into the rec_* arrays
12    rec_site            n_records x u32 string ids
13    rec_role            n_records x u8 role codes
14    rec_variant         n_records x u32 string_id+1 (0 = none)
====  ==================  =====================================

Flag bits: 0x2 = the header is stamped with a list snapshot (a
bare-list index and the bootstrap epoch carry none).  Every other bit
is reserved and rejected.

The buffer carries the list only.  A loaded epoch resolves hosts with
the caller's :class:`~repro.psl.lookup.PublicSuffixList` (or the
process default): parsing the PSL costs a few milliseconds once per
process, and the dict-backed trie it compiles walks three to four
times faster than a binary-searched walk over buffer arrays.  Format version 1 also
carried a compiled PSL trie; it is no longer accepted.

Design notes:

* One *unified* string table interns domains, set primaries and the
  list version / as-of strings, so ``related`` probes reduce to u32
  comparisons.
* Records keep *every* member record per set — including cross-set
  duplicates that lose the first-wins entry race — so the
  reconstructed list reproduces :func:`~repro.serve.snapshot.membership_hash`
  bit-for-bit.  Rationales and contacts are **not** carried: they are
  deliberately outside membership identity (see ``membership_hash``).
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.psl.lookup import PublicSuffixList, default_psl
from repro.rws.model import RelatedWebsiteSet, RwsList, SiteRole
from repro.serve.snapshot import ListSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.epoch import Epoch

__all__ = [
    "EPOCH_MAGIC",
    "EPOCH_FORMAT_VERSION",
    "EpochDiskCache",
    "EpochFormatError",
    "encode_epoch",
    "encode_list",
    "epoch_stat",
    "load_epoch",
]

EPOCH_MAGIC = b"RWSE"
EPOCH_FORMAT_VERSION = 2

_FLAG_SNAPSHOT = 0x2

#: The sections in wire order (the module docstring's table):
#: (name, item bytes, header count, extra items).  A section with a
#: header count holds exactly count + extra items; the rest are free.
_SECTIONS = (
    ("str_offsets", 4, "n_strings", 1),
    ("str_blob", 1, None, 0),
    ("str_hash", 4, "hash_cap", 0),
    ("str_entry", 4, "n_strings", 0),
    ("str_primary_set", 4, "n_strings", 0),
    ("entry_site", 4, "n_entries", 0),
    ("entry_primary", 4, "n_entries", 0),
    ("entry_variant", 4, "n_entries", 0),
    ("entry_role", 1, "n_entries", 0),
    ("entry_set", 4, "n_entries", 0),
    ("set_primary", 4, "n_sets", 0),
    ("set_rec_start", 4, "n_sets", 1),
    ("rec_site", 4, "n_records", 0),
    ("rec_role", 1, "n_records", 0),
    ("rec_variant", 4, "n_records", 0),
)

_HEADER = struct.Struct("<4sHHI32sIIIIIIII")
_SECTION_TABLE = struct.Struct("<" + "II" * len(_SECTIONS))
_DATA_START = _HEADER.size + _SECTION_TABLE.size
_TRAILER = struct.Struct("<I")

_ROLES: tuple[SiteRole, ...] = (SiteRole.PRIMARY, SiteRole.ASSOCIATED,
                                SiteRole.SERVICE, SiteRole.CCTLD)

#: Bound on the string memo before it is dropped wholesale.
_MEMO_LIMIT = 1 << 20

if array("I").itemsize != 4:  # pragma: no cover - exotic platforms only
    raise ImportError("repro.serve.epochfmt requires 4-byte unsigned ints")


class EpochFormatError(ValueError):
    """A buffer is not a valid epoch: wrong magic, truncation, bad CRC.

    Carries structured context: ``section`` names the wire section the
    problem was detected in (or ``None`` for header/trailer problems)
    and ``offset`` the byte offset, when known.
    """

    def __init__(self, message: str, *, section: str | None = None,
                 offset: int | None = None) -> None:
        detail = message
        if section is not None:
            detail += f" [section={section}]"
        if offset is not None:
            detail += f" [offset={offset}]"
        super().__init__(detail)
        self.section = section
        self.offset = offset


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are little
        raise EpochFormatError(
            "epoch buffers are little-endian; refusing on a "
            f"{sys.byteorder}-endian host")


# ---------------------------------------------------------------------------
# Encoding


def _utf8(text: str) -> bytes:
    # surrogatepass keeps every ``str`` encodable (a lone surrogate is
    # then just another key); valid text encodes as plain UTF-8.
    return text.encode("utf-8", "surrogatepass")


def encode_list(rws_list: RwsList, *,
                snapshot: ListSnapshot | None = None) -> bytes:
    """Encode a list into one epoch buffer.

    ``snapshot`` stamps the header with its version and content hash
    (omit it for a bare list).  Encoding is O(list size) and runs once
    per compile: every column is a u32 ``array``, the strings go into
    one blob, and the sections are joined into the output in a single
    copy.
    """
    _require_little_endian()
    ids: dict[str, int] = {}
    strings: list[str] = []
    str_entry = array("I")  # per string: entry_idx + 1 (0 = none)
    str_primary_set = array("I")  # per string: set_idx + 1 if a primary

    def add(text: str) -> int:
        sid = ids.get(text)
        if sid is None:
            sid = ids[text] = len(strings)
            strings.append(text)
            str_entry.append(0)
            str_primary_set.append(0)
        return sid

    set_primary = array("I")
    set_rec_start = array("I", [0])
    rec_site = array("I")
    rec_role = bytearray()
    rec_variant = array("I")
    entry_site = array("I")
    entry_primary = array("I")
    entry_variant = array("I")
    entry_role = bytearray()
    entry_set = array("I")

    def record(sid: int, code: int, vid: int, pid: int, set_idx: int):
        rec_site.append(sid)
        rec_role.append(code)
        rec_variant.append(vid)
        if not str_entry[sid]:  # first set in list order wins
            entry_site.append(sid)
            str_entry[sid] = len(entry_site)
            entry_primary.append(pid)
            entry_variant.append(vid)
            entry_role.append(code)
            entry_set.append(set_idx)

    # Records in RelatedWebsiteSet.member_records() order; role codes
    # are indices into _ROLES.
    for set_idx, rws_set in enumerate(rws_list.sets):
        pid = add(rws_set.primary)
        set_primary.append(pid)
        if not str_primary_set[pid]:
            str_primary_set[pid] = set_idx + 1
        record(pid, 0, 0, pid, set_idx)
        for site in rws_set.associated:
            record(add(site), 1, 0, pid, set_idx)
        for site in rws_set.service:
            record(add(site), 2, 0, pid, set_idx)
        for member, variants in rws_set.cctlds.items():
            for site in variants:
                sid = add(site)
                record(sid, 3, add(member) + 1 if member else 0, pid,
                       set_idx)
        set_rec_start.append(len(rec_site))

    list_version_id = add(rws_list.version) + 1
    as_of_id = add(rws_list.as_of) + 1 if rws_list.as_of else 0

    # Every string is interned now; dropping the intern table before the
    # output is assembled keeps it out of the encoder's peak memory.
    ids.clear()
    joined = "".join(strings)
    blob = _utf8(joined)
    ascii_only = len(blob) == len(joined)
    del joined
    str_offsets = array("I", [0])
    str_offsets.extend(accumulate(
        map(len, strings) if ascii_only
        else (len(_utf8(text)) for text in strings)))
    n_strings = len(strings)
    # The smallest power of two >= 2 * n_strings (at least 8).
    hash_cap = max(8, 1 << (2 * n_strings - 1).bit_length())
    mask = hash_cap - 1
    str_hash = array("I", bytes(4 * hash_cap))
    crc32 = zlib.crc32
    for sid, text in enumerate(strings):
        slot = crc32(_utf8(text)) & mask
        while str_hash[slot]:
            slot = (slot + 1) & mask
        str_hash[slot] = sid + 1

    sections = [str_offsets, blob, str_hash, str_entry, str_primary_set,
                entry_site, entry_primary, entry_variant, entry_role,
                entry_set, set_primary, set_rec_start, rec_site, rec_role,
                rec_variant]
    fields: list[int] = []
    parts: list = [b"", b""]  # header and section table, packed below
    offset = _DATA_START
    for section in sections:
        size = len(section) * getattr(section, "itemsize", 1)
        fields += (offset, size)
        parts.append(section)
        pad = -size % 4
        if pad:
            parts.append(bytes(pad))
        offset += size + pad

    parts[0] = _HEADER.pack(
        EPOCH_MAGIC, EPOCH_FORMAT_VERSION,
        _FLAG_SNAPSHOT if snapshot is not None else 0,
        snapshot.version if snapshot is not None else 0,
        bytes.fromhex(snapshot.content_hash) if snapshot is not None
        else bytes(32),
        list_version_id, as_of_id, n_strings, hash_cap, len(entry_site),
        len(set_primary), len(rec_site), offset + _TRAILER.size)
    parts[1] = _SECTION_TABLE.pack(*fields)
    crc = 0
    for part in parts:
        crc = crc32(part, crc)
    parts.append(_TRAILER.pack(crc))
    return b"".join(parts)


def encode_epoch(epoch: "Epoch") -> bytes:
    """An epoch in the binary wire format: the buffer its index serves.

    Every epoch is compiled into, or loaded from, one encoded buffer,
    so this is a hand-back, not an encode (a copy when the epoch was
    loaded from an ``mmap`` or other non-``bytes`` buffer).
    """
    data = epoch.index._data
    source = data.source
    return source if isinstance(source, bytes) else bytes(data.buf)


# ---------------------------------------------------------------------------
# Parsed buffer


class _BufferData:
    """Validated header fields + per-section ``memoryview`` casts."""

    __slots__ = (
        "source", "buf", "flags", "snap_version", "content_hash_hex",
        "list_version", "as_of", "n_strings", "hash_cap", "hash_mask",
        "n_entries", "n_sets", "n_records", "total_len", "_strings",
        "blob_src", "blob_base",
        *(name for name, *_ in _SECTIONS),
    )

    def __init__(self, buf, *, verify: bool = True) -> None:
        _require_little_endian()
        self.source = buf
        view = memoryview(buf)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        self.buf = view
        size = len(view)
        if size < _DATA_START + _TRAILER.size:
            raise EpochFormatError(
                f"buffer too short for an epoch header: {size} bytes")
        (magic, fmt_version, flags, snap_version, content_hash,
         list_version_id, as_of_id, n_strings, hash_cap, n_entries,
         n_sets, n_records, total_len) = _HEADER.unpack_from(view, 0)
        if magic != EPOCH_MAGIC:
            raise EpochFormatError(f"bad magic {bytes(magic)!r}", offset=0)
        if fmt_version != EPOCH_FORMAT_VERSION:
            raise EpochFormatError(
                f"unsupported epoch format version {fmt_version} "
                f"(expected {EPOCH_FORMAT_VERSION})", offset=4)
        if flags & ~_FLAG_SNAPSHOT:
            raise EpochFormatError(f"unknown header flag bits {flags:#06x}",
                                   offset=6)
        if total_len != size:
            raise EpochFormatError(
                f"declared length {total_len} != buffer length {size} "
                f"(truncated or padded buffer)")
        if verify:
            expected = _TRAILER.unpack_from(view, size - _TRAILER.size)[0]
            actual = zlib.crc32(view[:size - _TRAILER.size])
            if actual != expected:
                raise EpochFormatError(
                    f"crc mismatch: computed {actual:#010x}, "
                    f"stored {expected:#010x}",
                    offset=size - _TRAILER.size)
        self.flags = flags
        self.snap_version = snap_version
        self.content_hash_hex = content_hash.hex()
        self.n_strings = n_strings
        self.hash_cap = hash_cap
        self.hash_mask = hash_cap - 1
        self.n_entries = n_entries
        self.n_sets = n_sets
        self.n_records = n_records
        self.total_len = total_len
        if hash_cap < 8 or hash_cap & (hash_cap - 1):
            raise EpochFormatError(
                f"string hash capacity {hash_cap} is not a power of two")

        table = _SECTION_TABLE.unpack_from(view, _HEADER.size)
        limit = size - _TRAILER.size
        for idx, (name, itemsize, count, extra) in enumerate(_SECTIONS):
            off, length = table[2 * idx], table[2 * idx + 1]
            if off % 4 or off < _DATA_START or off + length > limit:
                raise EpochFormatError(
                    f"section out of bounds (len={length})",
                    section=name, offset=off)
            if count is not None:
                want = itemsize * (getattr(self, count) + extra)
                if length != want:
                    raise EpochFormatError(
                        f"section length {length} != expected {want}",
                        section=name, offset=off)
            elif length % itemsize:
                raise EpochFormatError(
                    f"u32 section length {length} not a multiple of 4",
                    section=name, offset=off)
            part = view[off:off + length]
            setattr(self, name, part.cast("I") if itemsize == 4 else part)
        # Key compares slice the source itself when that yields bytes
        # (bytes, bytearray, mmap): half the cost of a memoryview slice.
        if isinstance(buf, (bytes, bytearray, mmap.mmap)):
            self.blob_src = buf
            self.blob_base = table[2]  # str_blob is section 1
        else:
            self.blob_src = self.str_blob
            self.blob_base = 0

        if n_strings and self.str_offsets[n_strings] != \
                len(self.str_blob):
            raise EpochFormatError(
                "string offsets do not cover the blob",
                section="str_offsets")
        if not 0 < list_version_id <= n_strings:
            raise EpochFormatError(
                f"list version string id {list_version_id} out of range")
        if as_of_id > n_strings:
            raise EpochFormatError(
                f"as-of string id {as_of_id} out of range")
        self._strings: dict[int, str] = {}
        self.list_version = self.string(list_version_id - 1)
        self.as_of = self.string(as_of_id - 1) if as_of_id else None

    @property
    def has_snapshot(self) -> bool:
        return bool(self.flags & _FLAG_SNAPSHOT)

    def string(self, sid: int) -> str:
        """Materialize (and memoize) string ``sid``."""
        text = self._strings.get(sid)
        if text is None:
            start = self.str_offsets[sid]
            end = self.str_offsets[sid + 1]
            text = str(self.str_blob[start:end], "utf-8", "surrogatepass")
            if len(self._strings) >= _MEMO_LIMIT:
                self._strings.clear()
            self._strings[sid] = text
        return text

    def string_id(self, text: str) -> int:
        """Return the id of ``text`` in the table, or -1 if absent."""
        try:
            raw = text.encode()
        except UnicodeEncodeError:  # a lone surrogate, encoded as listed
            raw = _utf8(text)
        mask = self.hash_mask
        table = self.str_hash
        offsets = self.str_offsets
        blob = self.blob_src
        base = self.blob_base
        slot = zlib.crc32(raw) & mask
        while True:
            value = table[slot]
            if value == 0:
                return -1
            sid = value - 1
            if blob[base + offsets[sid]:base + offsets[sid + 1]] == raw:
                return sid
            slot = (slot + 1) & mask


# ---------------------------------------------------------------------------
# Buffer-backed views


def rebuild_set(data: _BufferData, set_idx: int) -> RelatedWebsiteSet:
    """Reconstruct set ``set_idx`` from its member records.

    Rationales and contacts are not carried by the wire format (they
    are outside membership identity), so the reconstructed set has
    empty ``rationales`` and ``contact=None``.
    """
    primary = data.string(data.set_primary[set_idx])
    associated: list[str] = []
    service: list[str] = []
    cctlds: dict[str, list[str]] = {}
    for ridx in range(data.set_rec_start[set_idx],
                      data.set_rec_start[set_idx + 1]):
        code = data.rec_role[ridx]
        if code == 0:  # the set's own primary record
            continue
        site = data.string(data.rec_site[ridx])
        if code == 1:
            associated.append(site)
        elif code == 2:
            service.append(site)
        else:
            vid = data.rec_variant[ridx]
            variant = data.string(vid - 1) if vid else primary
            cctlds.setdefault(variant, []).append(site)
    return RelatedWebsiteSet(primary=primary, associated=associated,
                             service=service, cctlds=cctlds)


class _BufferRwsList(RwsList):
    """Lazy ``RwsList`` view: sets materialize on first ``.sets`` access.

    The workload / snapshot-delta machinery occasionally needs the
    actual list object behind a buffer-loaded epoch (e.g. to diff it
    against a successor).  This subclass defers reconstructing the
    per-set objects until something touches ``.sets`` — pure membership
    serving never does.
    """

    def __init__(self, data: _BufferData) -> None:
        # Deliberately no dataclass __init__: `sets` is a class-level
        # property (a data descriptor), so materialization stays lazy.
        self._data = data
        self._materialized: list[RelatedWebsiteSet] | None = None
        self.version = data.list_version
        self.as_of = data.as_of

    def _materialize(self) -> list[RelatedWebsiteSet]:
        data = self._data
        return [rebuild_set(data, set_idx) for set_idx in range(data.n_sets)]

    @property
    def sets(self) -> list[RelatedWebsiteSet]:
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized

    @sets.setter
    def sets(self, value: list[RelatedWebsiteSet]) -> None:
        self._materialized = list(value)


# ---------------------------------------------------------------------------
# Loading


def load_epoch(buf, *, psl: PublicSuffixList | None = None,
               verify: bool = True) -> "Epoch":
    """Load an :class:`Epoch` from an encoded buffer in O(size).

    ``buf`` may be any 1-byte buffer object (``bytes``, ``bytearray``,
    ``mmap``, ``memoryview``); the loaded epoch keeps a read-only view
    into it, so the underlying storage must outlive the epoch.  The
    epoch resolves hosts with ``psl``, or with the process-wide
    :func:`~repro.psl.lookup.default_psl` when none is given.
    ``verify=False`` skips the CRC check for hot in-process hand-offs
    of trusted buffers.
    """
    from repro.serve.epoch import Epoch
    from repro.serve.index import MembershipIndex

    data = _BufferData(buf, verify=verify)
    index = MembershipIndex.view(data)
    snapshot = None
    if data.has_snapshot:
        snapshot = ListSnapshot(version=data.snap_version,
                                content_hash=data.content_hash_hex,
                                rws_list=_BufferRwsList(data))
    return Epoch(index=index, snapshot=snapshot,
                 psl=psl if psl is not None else default_psl())


def epoch_stat(buf, *, verify: bool = True) -> dict:
    """Summarize an encoded epoch without building any views."""
    data = _BufferData(buf, verify=verify)
    return {
        "bytes": data.total_len,
        "format_version": EPOCH_FORMAT_VERSION,
        "snapshot_version": data.snap_version,
        "content_hash": data.content_hash_hex,
        "list_version": data.list_version,
        "as_of": data.as_of,
        "has_snapshot": data.has_snapshot,
        "strings": data.n_strings,
        "entries": data.n_entries,
        "sets": data.n_sets,
        "records": data.n_records,
    }


# ---------------------------------------------------------------------------
# Disk cache


class EpochDiskCache:
    """Content-addressed on-disk cache of encoded epochs.

    Files are keyed by the snapshot's ``content_hash``
    (``<hash>.rwse``) under a cache directory taken from the
    ``REPRO_EPOCH_CACHE`` environment variable or the explicit
    ``directory`` argument.  Writes are atomic (temp file + rename);
    loads are zero-copy via ``mmap`` with a plain-read fallback.
    """

    SUFFIX = ".rwse"

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_EPOCH_CACHE",
                                       ".repro-epoch-cache")
        self.directory = Path(directory)

    def path_for(self, content_hash: str) -> Path:
        return self.directory / f"{content_hash}{self.SUFFIX}"

    def put(self, epoch: "Epoch") -> Path:
        """Persist ``epoch``'s buffer; returns the cache file path."""
        if epoch.snapshot is None:
            raise ValueError("cannot cache a bootstrap epoch: it has no "
                             "content hash to key by")
        return self.put_encoded(epoch.snapshot.content_hash,
                                encode_epoch(epoch))

    def put_encoded(self, content_hash: str, buf: bytes) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.path_for(content_hash)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(buf)
        os.replace(tmp, target)
        return target

    def get(self, content_hash: str, *, psl=None,
            verify: bool = True) -> "Epoch | None":
        """Load the cached epoch for ``content_hash``, or ``None``.

        A cache file that fails validation is treated as absent and
        removed (a torn write from a crashed process, say) rather than
        poisoning every subsequent cold start.
        """
        target = self.path_for(content_hash)
        try:
            handle = open(target, "rb")
        except OSError:
            return None
        with handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                mapped = None
            raw = mapped if mapped is not None else handle.read()
        # On rejection the mapping is NOT closed explicitly: a failed
        # load may still hold exported memoryviews (closing would raise
        # BufferError), so the mmap is released when those views are
        # garbage-collected.  Unlinking a mapped file is safe.
        try:
            epoch = load_epoch(raw, psl=psl, verify=verify)
        except EpochFormatError:
            try:
                os.unlink(target)
            except OSError:
                pass
            return None
        if epoch.snapshot is not None and \
                epoch.snapshot.content_hash != content_hash:
            try:
                os.unlink(target)
            except OSError:
                pass
            return None
        return epoch

    def warm(self, epochs: Iterable["Epoch"]) -> list[Path]:
        """Persist every epoch in ``epochs``; returns the paths written."""
        return [self.put(epoch) for epoch in epochs]
