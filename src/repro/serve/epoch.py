"""Immutable serving epochs: one compiled, versioned unit of truth.

An :class:`Epoch` bundles everything a reader needs to answer
membership questions — the :class:`MembershipIndex` over the epoch's
encoded buffer, the :class:`ListSnapshot` it was compiled from, and
the PSL handle the snapshot's domains were resolved against — into
one value that is **constructed once and never mutated**.
Publication does not update an epoch; it builds a new one and swaps a
single reference, so a reader that captured an epoch keeps a
consistent (index, snapshot, version) triple for as long as it holds
the reference, no matter how many publishes land mid-request.

An epoch has one representation.  :meth:`Epoch.compile` encodes the
snapshot into the binary epoch format (:mod:`repro.serve.epochfmt`)
and serves the index view over that buffer;
:meth:`Epoch.to_buffer` hands the same bytes back for shipping, and
:meth:`Epoch.from_buffer` stands a shipped buffer up as the same
index class in O(size).

This is the unit the whole serving stack moves:

* :class:`~repro.serve.service.RwsService` holds the *current* epoch
  and swaps it atomically on publish (the thin stateful shell);
* :class:`~repro.cluster.Replica` catches up to the primary's epochs
  by applying :class:`~repro.serve.snapshot.SnapshotDelta` chains and
  compiling its own, or by loading the primary's buffer on resync;
* :class:`~repro.browser.engine.Browser` adopts an epoch the way
  Chrome consumes a component-updater payload
  (:meth:`~repro.browser.engine.Browser.adopt_epoch`).

Version checks live here too: :meth:`Epoch.require_version` is how a
reader (or a delta application) asserts it is looking at the base it
thinks it is, raising :class:`StaleSnapshotError` otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.psl import PublicSuffixList
from repro.rws.model import RwsList
from repro.serve.index import MembershipIndex
from repro.serve.snapshot import ListSnapshot, StaleSnapshotError


@dataclass(frozen=True, slots=True)
class Epoch:
    """One immutable, queryable generation of the served list.

    Attributes:
        index: The membership index over this epoch's encoded buffer.
        snapshot: The published snapshot this epoch serves (None only
            for the bootstrap epoch, before any publish).
        psl: The public suffix list the serving stack resolves hosts
            against; carried so an adopted epoch is self-contained.
        encode_ns: Nanoseconds :meth:`compile` spent encoding the
            buffer (0 for an epoch loaded from one).
    """

    index: MembershipIndex
    snapshot: ListSnapshot | None
    psl: PublicSuffixList
    encode_ns: int = field(default=0, compare=False)

    @property
    def version(self) -> int:
        """The served snapshot version (0 before any publish)."""
        return self.snapshot.version if self.snapshot is not None else 0

    @property
    def content_hash(self) -> str:
        """The served membership hash ("" before any publish)."""
        return (self.snapshot.content_hash
                if self.snapshot is not None else "")

    @property
    def rws_list(self) -> RwsList:
        """The served list (empty before any publish)."""
        return (self.snapshot.rws_list
                if self.snapshot is not None else RwsList())

    def require_version(self, version: int) -> None:
        """Assert this epoch serves exactly ``version``.

        The stale-base check a delta application (or any
        version-pinned read) performs against the epoch it captured.

        Raises:
            StaleSnapshotError: When the epoch serves a different
                version.
        """
        if version != self.version:
            raise StaleSnapshotError(
                f"epoch serves v{self.version}, not v{version}"
            )

    @classmethod
    def bootstrap(cls, psl: PublicSuffixList) -> Epoch:
        """The pre-publish epoch: an empty index, no snapshot."""
        return cls(index=MembershipIndex(RwsList()), snapshot=None, psl=psl)

    @classmethod
    def compile(cls, snapshot: ListSnapshot, psl: PublicSuffixList) -> Epoch:
        """Compile a fresh epoch: encode the snapshot, serve the view."""
        started = time.perf_counter_ns()
        index = MembershipIndex(snapshot.rws_list, snapshot=snapshot)
        return cls(index=index, snapshot=snapshot, psl=psl,
                   encode_ns=time.perf_counter_ns() - started)

    def to_buffer(self) -> bytes:
        """This epoch in the zero-copy binary wire format.

        Returns the buffer the index already serves, with no encode.
        It loads back via :meth:`from_buffer` in O(size) with no
        per-entry object construction — see
        :mod:`repro.serve.epochfmt` for the layout.
        """
        from repro.serve.epochfmt import encode_epoch
        return encode_epoch(self)

    @classmethod
    def from_buffer(cls, buf, *, psl: PublicSuffixList | None = None,
                    verify: bool = True) -> Epoch:
        """Load an epoch from an encoded buffer in O(size).

        The returned epoch's index is a view over ``buf`` (which must
        outlive the epoch); it resolves hosts with ``psl``, or with
        the default PSL when none is given.  ``verify=False`` skips
        the CRC for trusted in-process hand-offs.

        Raises:
            repro.serve.epochfmt.EpochFormatError: On a corrupt,
                truncated, or incompatible buffer.
        """
        from repro.serve.epochfmt import load_epoch
        return load_epoch(buf, psl=psl, verify=verify)
