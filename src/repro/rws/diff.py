"""Diffing RWS list snapshots.

The paper characterises how the list changed between early 2023 and
March 2024 (Figures 7-9); this module computes the per-snapshot deltas
those analyses consume.  The serving stack also diffs every published
version against its predecessor, so the diff builds records only for
the members that changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rws.model import MemberRecord, RwsList


@dataclass
class ListDiff:
    """The delta between two list snapshots.

    Attributes:
        added_sets: Primaries of sets present only in the new snapshot.
        removed_sets: Primaries of sets present only in the old one.
        added_members: Member records new in the new snapshot (including
            all members of newly added sets).
        removed_members: Member records absent from the new snapshot.
        changed_sets: Primaries of sets present in both but with
            different membership.
    """

    added_sets: list[str] = field(default_factory=list)
    removed_sets: list[str] = field(default_factory=list)
    added_members: list[MemberRecord] = field(default_factory=list)
    removed_members: list[MemberRecord] = field(default_factory=list)
    changed_sets: list[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the snapshots have identical membership."""
        return not (self.added_sets or self.removed_sets
                    or self.added_members or self.removed_members)


def _records_for(rws_list: RwsList,
                 keys: list[tuple[str, str, str]]) -> list[MemberRecord]:
    """The records of ``keys`` (in that order) from ``rws_list``.

    Only sets whose primary appears among the keys build records; when
    a key repeats in the list, its last record wins.
    """
    wanted = set(keys)
    primaries = {key[0] for key in keys}
    found: dict[tuple[str, str, str], MemberRecord] = {}
    for rws_set in rws_list.sets:
        if rws_set.primary in primaries:
            for record in rws_set.member_records():
                if record.key in wanted:
                    found[record.key] = record
    return [found[key] for key in keys]


def diff_lists(old: RwsList, new: RwsList) -> ListDiff:
    """Compute the delta from ``old`` to ``new``.

    Membership is compared as sets of :attr:`MemberRecord.key` tuples
    from :meth:`RwsList.membership_keys`; records are built only for
    the keys that differ, so diffing two large lists that differ in a
    few sites costs two key passes, not two record passes.

    Args:
        old: The earlier snapshot.
        new: The later snapshot.

    Returns:
        The structured diff.
    """
    old_primaries = set(old.primaries())
    new_primaries = set(new.primaries())

    old_keys = set(old.membership_keys())
    new_keys = set(new.membership_keys())
    added_keys = sorted(new_keys - old_keys)
    removed_keys = sorted(old_keys - new_keys)

    changed = {
        key[0] for key in added_keys + removed_keys
        if key[0] in old_primaries and key[0] in new_primaries
    }

    return ListDiff(
        added_sets=sorted(new_primaries - old_primaries),
        removed_sets=sorted(old_primaries - new_primaries),
        added_members=_records_for(new, added_keys),
        removed_members=_records_for(old, removed_keys),
        changed_sets=sorted(changed),
    )
