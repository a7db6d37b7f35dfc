"""Bench X7 — the compiled PSL resolution engine.

Not a paper artefact: the acceptance gate for the suffix-trie engine
and the C LRU in front of it in :mod:`repro.psl.lookup`.  Every RWS
decision starts with an eTLD+1 resolution, so this harness pins the
four properties the engine claims:

* **uncached resolve throughput** — the trie descent (with the
  fast-path normaliser) answers ≥ 3x the candidate-scan path it
  replaced (:meth:`PublicSuffixList._resolve_scan`, kept verbatim as
  the baseline), measured as the median of interleaved rounds;
* **lock-free cached hits** — threads hammering a warm cache together
  sustain ≥ 2x the throughput of the former double-locked LRU
  (reconstructed here as ``_LockedLruResolver``);
* **cheap cold misses** — a stream of distinct hosts, far more than
  the cache holds, resolved in ``etld_plus_one_many`` batches through
  a 4096-entry cache costs ≤ 1.5x the same stream with the cache
  disabled (median of interleaved rounds): a miss costs one trie walk
  plus O(1) cache upkeep;
* **unchanged semantics under load** — workload outcome digests stay
  bit-identical across the serial and sharded executors (the tier-1
  suite asserts the same; the bench keeps the guard next to the
  numbers it justifies).

The measurement functions are plain callables (no fixtures) so the
``python -m benchmarks.run`` trajectory harness can reuse them and
append machine-readable results for future PRs to compare against.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.data import build_rws_list
from repro.psl import PublicSuffixList
from repro.workload.driver import run_serial, run_sharded


def _corpus() -> list[str]:
    """A served-traffic-shaped domain mix.

    Mostly registrable domains and their common host forms (the
    workload's shape), plus a tail of multi-label suffixes, wildcard
    and exception rules, private-section suffixes, unknown TLDs, and
    punycode — every path through the engine.
    """
    members = [record.site for record in build_rws_list().all_members()]
    domains: list[str] = []
    for site in members:
        domains.extend((site, f"www.{site}", f"cdn.static.{site}"))
    domains += [
        "example.co.uk", "shop.example.co.uk", "foo.ck", "bar.foo.ck",
        "www.ck", "mysite.github.io", "example.zz", "deep.sub.example.zz",
        "shop.city.kawasaki.jp", "a.b.kawasaki.jp", "xn--bcher-kva.example",
    ] * 4
    return domains


def measure_uncached_resolve(rounds: int = 9) -> dict[str, float]:
    """Trie engine vs candidate scan on a cache-disabled PSL.

    Interleaved rounds (alternating which side runs first) with a
    median-of-ratios figure, the same drift-cancelling shape as the
    dispatch-overhead bench.
    """
    psl = PublicSuffixList(cache_size=0)
    domains = _corpus()
    resolve = psl.resolve
    scan = psl._resolve_scan

    def run_trie() -> float:
        started = time.perf_counter()
        for domain in domains:
            resolve(domain)
        return time.perf_counter() - started

    def run_scan() -> float:
        started = time.perf_counter()
        for domain in domains:
            scan(domain)
        return time.perf_counter() - started

    run_trie(), run_scan()  # warm code paths
    ratios = []
    best_trie = best_scan = float("inf")
    for round_index in range(rounds):
        if round_index % 2:
            trie_s, scan_s = run_trie(), run_scan()
        else:
            scan_s, trie_s = run_scan(), run_trie()
        ratios.append(scan_s / trie_s)
        best_trie = min(best_trie, trie_s)
        best_scan = min(best_scan, scan_s)
    return {
        "domains": float(len(domains)),
        "trie_per_sec": len(domains) / best_trie,
        "scan_per_sec": len(domains) / best_scan,
        "speedup": statistics.median(ratios),
    }


class _LockedLruResolver:
    """The pre-rewrite cache: one global lock taken on every hit.

    A faithful reconstruction of the old ``PublicSuffixList`` hit
    path — locked probe, pop + re-insert for recency — over the same
    resolution engine, so the measured delta is purely the cache
    design.
    """

    def __init__(self, psl: PublicSuffixList, maxsize: int = 4096):
        self._psl = psl
        self._maxsize = maxsize
        self._cache: dict = {}
        self._lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0

    def resolve(self, domain: str):
        cacheable = isinstance(domain, str) and self._maxsize > 0
        if cacheable:
            with self._lock:
                cached = self._cache.pop(domain, None)
                if cached is not None:
                    self._cache[domain] = cached  # move-to-recent
                    self._cache_hits += 1
                    return cached
                self._cache_misses += 1
        match = self._psl._resolve_uncached(domain)
        if cacheable:
            with self._lock:
                if len(self._cache) >= self._maxsize:
                    self._cache.pop(next(iter(self._cache)))
                self._cache[domain] = match
        return match


def _threaded_rate(resolve, domains: list[str], threads: int,
                   iterations: int) -> float:
    barrier = threading.Barrier(threads + 1)

    def worker() -> None:
        barrier.wait()
        for _ in range(iterations):
            for domain in domains:
                resolve(domain)
        barrier.wait()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    barrier.wait()
    elapsed = time.perf_counter() - started
    for thread in pool:
        thread.join()
    return threads * iterations * len(domains) / elapsed


def measure_threaded_hits(threads: int = 4,
                          iterations: int = 12) -> dict[str, float]:
    """Warm-cache hit throughput, N threads, lock-free vs locked LRU."""
    domains = _corpus()[:256]
    lockfree = PublicSuffixList()
    locked = _LockedLruResolver(PublicSuffixList(cache_size=0),
                                maxsize=4096)
    for domain in domains:  # warm both caches
        lockfree.resolve(domain)
        locked.resolve(domain)
    # Interleave sides round by round so scheduler drift hits both.
    lockfree_rate = locked_rate = 0.0
    for _ in range(3):
        locked_rate = max(locked_rate,
                          _threaded_rate(locked.resolve, domains,
                                         threads, iterations))
        lockfree_rate = max(lockfree_rate,
                            _threaded_rate(lockfree.resolve, domains,
                                           threads, iterations))
    return {
        "threads": float(threads),
        "locked_per_sec": locked_rate,
        "lockfree_per_sec": lockfree_rate,
        "speedup": lockfree_rate / locked_rate,
    }


def measure_cold_stream(hosts: int = 60_000, batch: int = 400,
                        cache_size: int = 4096,
                        rounds: int = 5) -> dict[str, float]:
    """Distinct-host batches through a full cache vs a disabled one.

    Every host is new, so each lookup is a miss that also evicts: the
    figure is what the cache costs on top of the walk when the working
    set dwarfs it.  Each round resolves the whole stream on a fresh PSL
    per side, alternating which side runs first.
    """
    sites = _corpus()
    stream = [f"h{i}.{sites[i % len(sites)]}" for i in range(hosts)]

    def run(size: int) -> float:
        psl = PublicSuffixList(cache_size=size)
        resolve_many = psl.etld_plus_one_many
        started = time.perf_counter()
        for start in range(0, hosts, batch):
            resolve_many(stream[start:start + batch])
        return time.perf_counter() - started

    run(cache_size), run(0)  # warm code paths
    ratios = []
    for round_index in range(rounds):
        if round_index % 2:
            cached_s, uncached_s = run(cache_size), run(0)
        else:
            uncached_s, cached_s = run(0), run(cache_size)
        ratios.append(cached_s / uncached_s)
    return {
        "hosts": float(hosts),
        "cache_size": float(cache_size),
        "ratio": statistics.median(ratios),
    }


def measure_workload_digests() -> dict[str, object]:
    """Serial vs sharded cold-cache outcomes (must be bit-identical)."""
    serial = run_serial("cold-cache", 60, seed=3)
    sharded = run_sharded("cold-cache", 60, 2, seed=3, executor="inline")
    return {
        "serial_digest": serial.digest_hex,
        "sharded_digest": sharded.digest_hex,
        "identical": serial.digest == sharded.digest,
        "serial_qps": serial.decisions_per_sec,
        "sharded_qps": sharded.decisions_per_sec,
    }


# -- acceptance gates ---------------------------------------------------------


def test_trie_resolution_matches_scan_on_corpus():
    """Bit-identical SuffixMatch outputs across the whole bench corpus."""
    psl = PublicSuffixList(cache_size=0)
    for domain in _corpus():
        assert psl._resolve_uncached(domain) == psl._resolve_scan(domain)


def test_uncached_resolve_speedup():
    """The trie engine answers >= 3x the pre-trie candidate scan."""
    result = measure_uncached_resolve()
    for _ in range(2):
        # Up to two retries absorb a transiently loaded host (the
        # median-of-interleaved-rounds figure still dips when a noisy
        # neighbour spans a whole measurement); a real regression
        # fails all three.
        if result["speedup"] >= 3.0:
            break
        result = measure_uncached_resolve()
    print(f"\nuncached: trie {result['trie_per_sec']:,.0f}/s, "
          f"scan {result['scan_per_sec']:,.0f}/s "
          f"(median speedup {result['speedup']:.2f}x)")
    assert result["speedup"] >= 3.0, (
        f"trie resolve only {result['speedup']:.2f}x the scan path"
    )


def test_threaded_cached_hit_speedup():
    """Lock-free hits sustain >= 2x the single-lock LRU under threads."""
    result = measure_threaded_hits()
    if result["speedup"] < 2.0:
        result = measure_threaded_hits()
    print(f"\n{int(result['threads'])} threads, warm cache: locked "
          f"{result['locked_per_sec']:,.0f}/s, lock-free "
          f"{result['lockfree_per_sec']:,.0f}/s "
          f"({result['speedup']:.2f}x)")
    assert result["speedup"] >= 2.0, (
        f"lock-free hit path only {result['speedup']:.2f}x the "
        f"single-lock baseline"
    )


def test_cold_stream_cost_near_uncached():
    """Distinct-host batches cost <= 1.5x the uncached stream."""
    result = measure_cold_stream()
    for _ in range(2):
        # Retries absorb a transiently loaded host, as above.
        if result["ratio"] <= 1.5:
            break
        result = measure_cold_stream()
    print(f"\ncold stream: {int(result['hosts']):,} distinct hosts through "
          f"a {int(result['cache_size'])}-entry cache cost "
          f"{result['ratio']:.2f}x the uncached stream")
    assert result["ratio"] <= 1.5, (
        f"cold misses cost {result['ratio']:.2f}x the uncached walk"
    )


def test_workload_digests_identical_across_executors():
    """Outcome digests stay bit-identical, serial vs sharded."""
    result = measure_workload_digests()
    print(f"\ncold-cache digests: serial {result['serial_digest'][:16]}… "
          f"sharded {result['sharded_digest'][:16]}… "
          f"(identical: {result['identical']})")
    assert result["identical"]


def test_bench_bulk_resolution_throughput(benchmark):
    """pytest-benchmark harness: warm-cache bulk resolution rate."""
    psl = PublicSuffixList()
    domains = _corpus()
    psl.etld_plus_one_many(domains)  # warm

    sites = benchmark(lambda: psl.etld_plus_one_many(domains))
    assert len(sites) == len(domains)
