"""Membership identity against record-built reference implementations.

``membership_hash`` and ``diff_lists`` compute over
``RwsList.membership_keys()`` without building a ``MemberRecord`` per
member.  The references below state the same definitions over
records: one ``MemberRecord`` per member, keyed by
``(set_primary, role.value, site)``.  Random lists draw every site from
a small pool, so sites repeat within a set and across sets, primaries
repeat, ccTLD variants repeat under different members, and sites carry
non-ASCII characters and ``\\x01`` (a character that sorts below the
hash's ``\\x1f`` separator).
"""

from __future__ import annotations

import hashlib

from hypothesis import example, given, settings, strategies as st

from repro.rws.diff import ListDiff, diff_lists
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.snapshot import membership_hash


def reference_membership_hash(rws_list: RwsList) -> str:
    digest = hashlib.sha256()
    keys = sorted((record.set_primary, record.role.value, record.site)
                  for record in rws_list.all_members())
    for key in keys:
        digest.update("\x1f".join(key).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def reference_diff_lists(old: RwsList, new: RwsList) -> ListDiff:
    def key(record):
        return (record.set_primary, record.role.value, record.site)

    old_primaries = set(old.primaries())
    new_primaries = set(new.primaries())
    # Dict comprehensions: when a key repeats, the last record wins.
    old_members = {key(r): r for r in old.all_members()}
    new_members = {key(r): r for r in new.all_members()}
    added = [new_members[k]
             for k in sorted(new_members.keys() - old_members.keys())]
    removed = [old_members[k]
               for k in sorted(old_members.keys() - new_members.keys())]
    changed = {r.set_primary for r in added + removed
               if r.set_primary in old_primaries
               and r.set_primary in new_primaries}
    return ListDiff(added_sets=sorted(new_primaries - old_primaries),
                    removed_sets=sorted(old_primaries - new_primaries),
                    added_members=added, removed_members=removed,
                    changed_sets=sorted(changed))


_LABEL = st.text(alphabet=["a", "b", "é", "日", "\x01"], min_size=1,
                 max_size=3)
_SITE = st.builds("{}{}".format, _LABEL,
                  st.sampled_from(["", ".com", ".co.uk"]))


@st.composite
def rws_list_pairs(draw) -> tuple[RwsList, RwsList]:
    pool = draw(st.lists(_SITE, min_size=1, max_size=6, unique=True))
    site = st.sampled_from(pool)
    rws_set = st.builds(
        RelatedWebsiteSet,
        primary=site,
        associated=st.lists(site, max_size=4),
        service=st.lists(site, max_size=3),
        cctlds=st.dictionaries(site, st.lists(site, min_size=1,
                                              max_size=3), max_size=3),
        rationales=st.dictionaries(site, st.sampled_from(["r1", "r2"]),
                                   max_size=4),
    )
    rws_lists = st.builds(RwsList, sets=st.lists(rws_set, max_size=5))
    return draw(rws_lists), draw(rws_lists)


# Sorting joined strings instead of key tuples orders "a" after "a\x01"
# ("a\x1f…" > "a\x01\x1f…"), so this pair hashes differently.
_SEPARATOR_ORDER = RwsList(sets=[RelatedWebsiteSet(primary="a"),
                                 RelatedWebsiteSet(primary="a\x01")])
# The ccTLD "c" repeats under two members: the last record
# (variant_of "b") is the one the diff must report.
_REPEATED_CCTLD = RwsList(sets=[RelatedWebsiteSet(
    primary="a", cctlds={"a": ["c"], "b": ["c"]})])


def test_membership_keys_follow_member_records():
    for rws_list in (_SEPARATOR_ORDER, _REPEATED_CCTLD):
        assert list(rws_list.membership_keys()) \
            == [record.key for record in rws_list.all_members()]


@settings(max_examples=150, deadline=None)
@given(rws_list_pairs())
@example((_SEPARATOR_ORDER, _REPEATED_CCTLD))
def test_membership_hash_matches_reference(lists):
    for rws_list in lists:
        assert list(rws_list.membership_keys()) \
            == [(r.set_primary, r.role.value, r.site)
                for r in rws_list.all_members()]
        assert membership_hash(rws_list) \
            == reference_membership_hash(rws_list)


@settings(max_examples=150, deadline=None)
@given(rws_list_pairs())
@example((_SEPARATOR_ORDER, _REPEATED_CCTLD))
@example((RwsList(), _REPEATED_CCTLD))
def test_diff_lists_matches_reference(lists):
    old, new = lists
    for before, after in ((old, new), (new, old)):
        diff = diff_lists(before, after)
        assert diff == reference_diff_lists(before, after)
        if membership_hash(before) == membership_hash(after):
            assert diff.is_empty
