"""Seeded inputs and the independent verdict oracle.

Every host the generator emits is a member site (or a non-member
site it invented) dressed as ``www.``/``m.``/bare, so it knows each
host's site by construction.  Expected verdicts come from the
:class:`RwsList` the generator built: two hosts are related when
their sites are equal or both belong to one set.  The program's
index and PSL are never consulted.
"""

from __future__ import annotations

import bisect
import itertools
import random

from repro.rws.model import RelatedWebsiteSet, RwsList

DRESSINGS = ("www.", "m.", "")


def members(rws_set: RelatedWebsiteSet) -> list[str]:
    """Every site of a set, read straight off its fields."""
    return ([rws_set.primary] + list(rws_set.associated)
            + list(rws_set.service)
            + [site for variants in rws_set.cctlds.values()
               for site in variants])


class Oracle:
    """site -> set id for one list; answers the browser predicate."""

    def __init__(self, rws_list: RwsList):
        self.set_of: dict[str, int] = {}
        self.sets: list[list[str]] = []
        for set_id, rws_set in enumerate(rws_list.sets):
            sites = members(rws_set)
            for site in sites:
                self.set_of.setdefault(site, set_id)
            self.sets.append(sites)

    def related(self, site_a: str, site_b: str) -> bool:
        if site_a == site_b:
            return True
        set_a = self.set_of.get(site_a)
        return set_a is not None and set_a == self.set_of.get(site_b)


class Zipf:
    """Seeded Zipf(s) draws over ranks 0..n-1."""

    def __init__(self, n: int, s: float, rng: random.Random):
        self._cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** s for rank in range(n)))
        self._rng = rng

    def draw(self) -> int:
        return bisect.bisect(self._cum, self._rng.random() * self._cum[-1])


class PairSource:
    """Host pairs over a list: Zipf over sites, about half related.

    ``sites`` is ranked by a seeded shuffle; a related pair takes its
    second site from the first one's set, an unrelated one from the
    whole ranking or from invented non-member sites.  Each pair is
    ``(host_a, host_b, site_a, site_b)``.
    """

    def __init__(self, oracle: Oracle, rng: random.Random, *,
                 zipf_s: float, nonmembers: int):
        self._rng = rng
        self._oracle = oracle
        self.sites = sorted(oracle.set_of)
        rng.shuffle(self.sites)
        self._nonmembers = [f"pb-other{i:06d}.com"
                            for i in range(nonmembers)]
        self._zipf = (Zipf(len(self.sites), zipf_s, rng)
                      if zipf_s > 0 else None)

    def _site(self) -> str:
        if self._zipf is None:
            return self.sites[self._rng.randrange(len(self.sites))]
        return self.sites[self._zipf.draw()]

    def _host(self, site: str) -> str:
        return self._rng.choice(DRESSINGS) + site

    def pair(self) -> tuple[str, str, str, str]:
        rng = self._rng
        site_a = self._site()
        roll = rng.random()
        if roll < 0.5:
            oracle = self._oracle
            site_b = rng.choice(oracle.sets[oracle.set_of[site_a]])
        elif roll < 0.9 or not self._nonmembers:
            site_b = self._site()
        else:
            site_b = rng.choice(self._nonmembers)
        if rng.random() < 0.5:
            site_a, site_b = site_b, site_a
        return self._host(site_a), self._host(site_b), site_a, site_b

    def distinct_hosts(self) -> int:
        return len(DRESSINGS) * (len(self.sites) + len(self._nonmembers))


def variant_list(base: RwsList, seed: int, changes: int = 4) -> RwsList:
    """``base`` with ``changes`` sets altered.

    Each altered set loses its last associated site to the next set
    and gains a fresh one, so verdicts on those sites differ between
    the two versions.
    """
    rng = random.Random(seed * 104729 + 1)
    sets = [RelatedWebsiteSet(primary=s.primary,
                              associated=list(s.associated),
                              service=list(s.service),
                              cctlds={k: list(v) for k, v in s.cctlds.items()})
            for s in base.sets]
    picked = rng.sample(range(len(sets) - 1), changes)
    for i in picked:
        donor, taker = sets[i], sets[i + 1]
        if donor.associated:
            taker.associated.append(donor.associated.pop())
        donor.associated.append(f"pbnew{seed % 1000:03d}x{i:06d}.com")
    return RwsList(sets=sets, version=(base.version or "") + "-b")


def submission_set(seed: int, k: int) -> RelatedWebsiteSet:
    """A fresh candidate set for the validation queue."""
    base = f"pbsub{seed % 1000:03d}n{k:05d}"
    return RelatedWebsiteSet(primary=f"{base}.com",
                             associated=[f"{base}-news.com"],
                             service=[f"{base}-cdn.net"],
                             rationales={f"{base}-news.com": "Same brand.",
                                         f"{base}-cdn.net": "Static assets."})
