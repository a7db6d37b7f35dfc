"""The membership index: one encoded buffer, probed in place.

Chrome does not answer ``requestStorageAccess`` decisions by scanning
the shipped list: the component updater hands the browser a compiled
form it can query in constant time.  :class:`MembershipIndex` is that
compiled form for this reproduction, and the only one.  Compiling a
list encodes it once into the binary epoch format
(:mod:`repro.serve.epochfmt`); the index answers every membership
question (``lookup``, ``related``, batches) by probing that buffer's
string hash and u32 columns, instead of the O(sets × members) scan
behind :meth:`~repro.rws.model.RwsList.related`.  A publish, a
replica delta, a validator and a browser all compile the same way,
and a buffer shipped to a shard or replica loads back into the same
class (:meth:`MembershipIndex.view`).

The index is immutable: compile a new one when the list changes (see
:mod:`repro.serve.snapshot` for the versioning story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.rws.model import RelatedWebsiteSet, RwsList, SiteRole
from repro.serve.epochfmt import _ROLES, _BufferData, encode_list, rebuild_set

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.serve.snapshot import ListSnapshot

#: Bound on the site -> key memo in front of the buffer's string hash.
#: The first this-many distinct sites probed against an index are
#: memoized and later ones are probed directly, so repeat traffic (a
#: browser's own sites, a hot working set) skips the hash probe while a
#: cold sweep over a huge list keeps at most this many strings alive
#: and never pays to churn the memo.
_SITE_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class IndexEntry:
    """One domain's compiled membership facts.

    Attributes:
        site: The member's domain (interned eTLD+1).
        role: The member's subset role.
        set_primary: Primary domain of the containing set.
        variant_of: For ccTLD members, the member they are a variant of.
    """

    site: str
    role: SiteRole
    set_primary: str
    variant_of: str | None = None


@dataclass(slots=True)
class QueryResult:
    """The answer to one pairwise membership query.

    A plain slotted value object rather than a frozen dataclass: one is
    allocated per answered query, and ``object.__setattr__``-based
    frozen construction costs ~3x a plain slot fill on that hot path.
    Treat instances as immutable by convention.

    Attributes:
        site_a: First queried domain (normalised to lower case).
        site_b: Second queried domain.
        related: The browser-facing verdict (same set, or same site).
        set_primary: Primary of the shared set, when related via RWS.
        role_a: site_a's role in its set, if any.
        role_b: site_b's role in its set, if any.
    """

    site_a: str
    site_b: str
    related: bool
    set_primary: str | None = None
    role_a: SiteRole | None = None
    role_b: SiteRole | None = None


class MembershipIndex:
    """An eTLD+1 → (set, role) index over one encoded epoch buffer.

    ``MembershipIndex(rws_list)`` encodes the list and views the
    result; :meth:`view` wraps a buffer that was encoded elsewhere.
    When a domain (invalidly) appears in more than one set, the first
    set in list order wins — the same tie-break
    :meth:`RwsList.find_set_for` applies.  An index compiled from a
    list hands back that list's own set objects from :meth:`set_for`;
    one loaded from a buffer rebuilds them (without rationales, which
    the format does not carry).

    Example:
        >>> from repro.data import build_rws_list
        >>> index = MembershipIndex.from_list(build_rws_list())
        >>> index.related("timesinternet.in", "indiatimes.com")
        True
    """

    __slots__ = ("_data", "_sets", "_set_objs", "_memo", "_set_count")

    def __init__(self, rws_list: RwsList, *,
                 snapshot: ListSnapshot | None = None) -> None:
        """Compile ``rws_list``; ``snapshot`` stamps the buffer header
        so the buffer is also that snapshot's epoch wire form."""
        self._bind(_BufferData(encode_list(rws_list, snapshot=snapshot),
                               verify=False),
                   tuple(rws_list.sets))

    @classmethod
    def from_list(cls, rws_list: RwsList) -> MembershipIndex:
        """Compile an index from a list snapshot."""
        return cls(rws_list)

    @classmethod
    def view(cls, data: _BufferData) -> MembershipIndex:
        """An index over an already-parsed epoch buffer."""
        index = cls.__new__(cls)
        index._bind(data, None)
        return index

    def _bind(self, data: _BufferData,
              sets: tuple[RelatedWebsiteSet, ...] | None) -> None:
        self._data = data
        self._sets = sets
        self._set_objs: dict[int, RelatedWebsiteSet] = {}
        self._memo: dict[str, int] = {}
        self._set_count: int | None = None

    # -- probing helpers ------------------------------------------------------

    def _probe(self, site: str) -> int:
        """The memo key of a lower-cased site, memoized while there is
        room.

        A member's key packs its set primary's string id with its role
        code, ``primary_sid << 2 | role``, so two members share a set
        exactly when their keys differ only in the low two bits; an
        unlisted site's key is -1.
        """
        data = self._data
        sid = data.string_id(site)
        eidx = data.str_entry[sid] - 1 if sid >= 0 else -1
        key = ((data.entry_primary[eidx] << 2) | data.entry_role[eidx]
               if eidx >= 0 else -1)
        memo = self._memo
        if len(memo) < _SITE_MEMO_LIMIT:
            memo[site] = key
        return key

    def _entry_index(self, site: str) -> int:
        """Entry index of a lower-cased site, -1 if absent (unmemoized:
        only the rich lookups below use it)."""
        data = self._data
        sid = data.string_id(site)
        return data.str_entry[sid] - 1 if sid >= 0 else -1

    def _entry(self, eidx: int) -> IndexEntry:
        data = self._data
        vid = data.entry_variant[eidx]
        return IndexEntry(
            site=data.string(data.entry_site[eidx]),
            role=_ROLES[data.entry_role[eidx]],
            set_primary=data.string(data.entry_primary[eidx]),
            variant_of=data.string(vid - 1) if vid else None)

    def _set(self, set_idx: int) -> RelatedWebsiteSet:
        if self._sets is not None:
            return self._sets[set_idx]
        rws_set = self._set_objs.get(set_idx)
        if rws_set is None:
            rws_set = self._set_objs[set_idx] = rebuild_set(self._data,
                                                            set_idx)
        return rws_set

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return self._data.n_entries

    def __contains__(self, site: str) -> bool:
        site = site.lower()
        key = self._memo.get(site)
        return (self._probe(site) if key is None else key) >= 0

    @property
    def set_count(self) -> int:
        """Number of distinct set primaries in the compiled list."""
        count = self._set_count
        if count is None:
            count = self._set_count = sum(map(bool, self._data.str_primary_set))
        return count

    @property
    def site_count(self) -> int:
        """Number of distinct member domains indexed."""
        return self._data.n_entries

    # -- single-domain queries ------------------------------------------------

    def lookup(self, site: str) -> IndexEntry | None:
        """The compiled membership entry for a domain, or None."""
        eidx = self._entry_index(site.lower())
        return self._entry(eidx) if eidx >= 0 else None

    def role_of(self, site: str) -> SiteRole | None:
        """The role a domain plays in its set, or None if unlisted."""
        eidx = self._entry_index(site.lower())
        return _ROLES[self._data.entry_role[eidx]] if eidx >= 0 else None

    def set_for(self, site: str) -> RelatedWebsiteSet | None:
        """The set containing a domain, or None (O(1) find_set_for)."""
        eidx = self._entry_index(site.lower())
        return self._set(self._data.entry_set[eidx]) if eidx >= 0 else None

    def primary_of(self, site: str) -> str | None:
        """The primary of the set containing a domain, or None."""
        eidx = self._entry_index(site.lower())
        data = self._data
        return data.string(data.entry_primary[eidx]) if eidx >= 0 else None

    def members_of(self, primary: str) -> list[str] | None:
        """All member domains of the set with a given primary, or None."""
        data = self._data
        sid = data.string_id(primary.lower())
        set_plus = data.str_primary_set[sid] if sid >= 0 else 0
        return self._set(set_plus - 1).members() if set_plus else None

    # -- pairwise queries -----------------------------------------------------

    def related(self, site_a: str, site_b: str) -> bool:
        """The browser-facing predicate: same set (or same site)?

        Two memoized buffer probes instead of a scan over every set.
        Identical to :meth:`RwsList.related` for every valid
        (disjoint-membership) list.  For *invalid* lists with duplicate
        members the naive scan is not even symmetric; the index
        resolves each site to its first containing set, making the
        predicate a consistent equivalence over the first-wins
        partition.
        """
        a = site_a.lower()
        b = site_b.lower()
        if a == b:
            return True
        memo = self._memo
        key_a = memo.get(a)
        if key_a is None:
            key_a = self._probe(a)
        if key_a < 0:
            return False
        key_b = memo.get(b)
        if key_b is None:
            key_b = self._probe(b)
        return key_b >= 0 and (key_a ^ key_b) < 4

    def query(self, site_a: str, site_b: str) -> QueryResult:
        """One pairwise query with full context (set and roles)."""
        a = site_a.lower()
        b = site_b.lower()
        memo = self._memo
        key_a = memo.get(a)
        if key_a is None:
            key_a = self._probe(a)
        key_b = memo.get(b)
        if key_b is None:
            key_b = self._probe(b)
        if key_a < 0:
            return QueryResult(a, b, a == b, None, None,
                               _ROLES[key_b & 3] if key_b >= 0 else None)
        if key_b < 0:
            return QueryResult(a, b, a == b, None, _ROLES[key_a & 3])
        if (key_a ^ key_b) < 4:
            return QueryResult(a, b, True, self._data.string(key_a >> 2),
                               _ROLES[key_a & 3], _ROLES[key_b & 3])
        # Listed in different sets, so not the same site either.
        return QueryResult(a, b, False, None, _ROLES[key_a & 3],
                           _ROLES[key_b & 3])

    def related_batch(self, pairs: Iterable[tuple[str, str]]) -> list[bool]:
        """Bulk form of :meth:`related` for request batches."""
        return self.related_batch_normalized(
            [(site_a.lower(), site_b.lower()) for site_a, site_b in pairs])

    def related_batch_normalized(
        self, pairs: Iterable[tuple[str | None, str | None]],
    ) -> list[bool]:
        """:meth:`related_batch` minus input normalisation.

        The serving fast path hands this method *sites* straight out of
        a resolver — already lower-case eTLD+1 values, with None for
        hosts that failed to resolve (never related) — so the
        per-pair ``lower()`` calls in :meth:`related_batch` would be
        pure overhead.  Callers own the precondition; a non-normalised
        site simply fails to match, like any unknown site.
        """
        memo = self._memo
        probe = self._probe
        verdicts: list[bool] = []
        for site_a, site_b in pairs:
            if site_a is None or site_b is None:
                verdicts.append(False)
                continue
            if site_a == site_b:
                verdicts.append(True)
                continue
            key_a = memo.get(site_a)
            if key_a is None:
                key_a = probe(site_a)
            if key_a < 0:
                verdicts.append(False)
                continue
            key_b = memo.get(site_b)
            if key_b is None:
                key_b = probe(site_b)
            verdicts.append(key_b >= 0 and (key_a ^ key_b) < 4)
        return verdicts

    def entries(self) -> Iterator[IndexEntry]:
        """All compiled entries, in list order."""
        for eidx in range(self._data.n_entries):
            yield self._entry(eidx)
