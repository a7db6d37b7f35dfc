"""Tests for the zero-copy binary epoch format (repro.serve.epochfmt).

Four concerns, matching the format's claims:

* **Fidelity** — an epoch loaded from its buffer must answer every
  :class:`~repro.serve.MembershipIndex` query identically to the
  epoch it was compiled from (and to the naive list scan),
  reconstruct a membership hash bit-identical to the stored content
  hash, and resolve hosts with the caller's (or the default) PSL; the
  encoder's output is pinned byte for byte.
* **Robustness** — corrupt, truncated, or foreign buffers are
  rejected with a structured :class:`~repro.serve.EpochFormatError`
  (never a crash or a silently wrong index), and a poisoned disk
  cache file heals itself.
* **Integration** — the service hands out the buffer its compile
  already holds (:meth:`~repro.serve.RwsService.encoded_epoch`),
  replicas resync from the primary's buffer instead of recompiling,
  and a buffer-loaded service answers hostile sites through the
  dispatcher like any other.
* **Scale fixtures** — the seeded synthetic list generator is
  deterministic and hits its requested domain count exactly.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.cluster import Replica
from repro.data import (
    build_rws_list,
    build_small_synthetic_list,
    build_synthetic_list,
)
from repro.data.synthetic import SMALL_SYNTHETIC_DOMAINS, \
    build_small_synthetic_list_v2
from repro.api import BatchQueryRequest, BatchQueryResponse, Dispatcher
from repro.psl import PublicSuffixList, default_psl
from repro.rws import RelatedWebsiteSet, RwsList, SiteRole
from repro.serve import (
    Epoch,
    EpochDiskCache,
    EpochFormatError,
    MembershipIndex,
    RwsService,
    SnapshotStore,
    StaleSnapshotError,
    encode_epoch,
    load_epoch,
    membership_hash,
)
from repro.serve.epochfmt import epoch_stat


def restamp(buf: bytes, offset: int, field: bytes) -> bytes:
    """``buf`` with ``field`` written at ``offset`` and the CRC
    trailer recomputed, so only the structural checks can object."""
    mangled = bytearray(buf)
    mangled[offset:offset + len(field)] = field
    struct.pack_into("<I", mangled, len(mangled) - 4,
                     zlib.crc32(mangled[:-4]))
    return bytes(mangled)


def compile_epoch(rws_list: RwsList) -> Epoch:
    snapshot = SnapshotStore().publish(rws_list)
    return Epoch.compile(snapshot, default_psl())


def tricky_list() -> RwsList:
    """A list exercising every index path: all four roles, ccTLD
    variants, and a cross-set duplicate member (first set wins)."""
    return RwsList(sets=[
        RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com", "shared.com"],
            service=["example-cdn.com"],
            cctlds={"example.com": ["example.co.uk", "example.ca"],
                    "example-news.com": ["example-news.co.uk"]},
            rationales={
                "example-news.com": "Shared branding with example.com.",
                "shared.com": "Shared branding.",
                "example-cdn.com": "Asset host for example.com.",
            },
        ),
        RelatedWebsiteSet(
            primary="other.com",
            associated=["other-shop.com", "shared.com"],
            rationales={"other-shop.com": "Affiliated storefront.",
                        "shared.com": "Also claimed here."},
        ),
    ], version="tricky-1", as_of="2024-03-26")


PROBE_SITES = ["example.com", "example-news.com", "example-cdn.com",
               "example.co.uk", "example.ca", "example-news.co.uk",
               "shared.com", "other.com", "other-shop.com",
               "missing.net", "Example.COM"]


def assert_index_equivalent(compiled, loaded, sites) -> None:
    """Every MembershipIndex API answers identically on a compiled
    index and on the same index loaded back from its buffer."""
    assert len(loaded) == len(compiled)
    assert loaded.site_count == compiled.site_count
    assert loaded.set_count == compiled.set_count
    for site in sites:
        assert (site in loaded) == (site in compiled)
        left, right = loaded.lookup(site), compiled.lookup(site)
        if right is None:
            assert left is None
        else:
            assert left is not None
            assert left.site == right.site
            assert left.role == right.role
            assert left.set_primary == right.set_primary
            assert left.variant_of == right.variant_of
        assert loaded.role_of(site) == compiled.role_of(site)
        assert loaded.primary_of(site) == compiled.primary_of(site)
        assert loaded.members_of(site) == compiled.members_of(site)
        left_set = loaded.set_for(site)
        right_set = compiled.set_for(site)
        if right_set is None:
            assert left_set is None
        else:
            assert left_set is not None
            assert left_set.primary == right_set.primary
            assert left_set.associated == right_set.associated
            assert left_set.service == right_set.service
            assert left_set.cctlds == right_set.cctlds
    pairs = [(a, b) for a in sites for b in sites]
    assert loaded.related_batch(pairs) == compiled.related_batch(pairs)
    normalized = [(a.lower(), b.lower()) for a, b in pairs]
    assert loaded.related_batch_normalized(normalized) \
        == compiled.related_batch_normalized(normalized)
    for pair in pairs:
        left_q, right_q = loaded.query(*pair), compiled.query(*pair)
        assert left_q.related == right_q.related
        assert left_q.set_primary == right_q.set_primary
        assert left_q.role_a == right_q.role_a
        assert left_q.role_b == right_q.role_b
    assert sorted(entry.site for entry in loaded.entries()) \
        == sorted(entry.site for entry in compiled.entries())


class TestRoundTrip:
    def test_tricky_list_full_api_equivalence(self):
        epoch = compile_epoch(tricky_list())
        loaded = Epoch.from_buffer(epoch.to_buffer())
        assert_index_equivalent(epoch.index, loaded.index, PROBE_SITES)

    def test_seed_list_full_api_equivalence(self):
        epoch = compile_epoch(build_rws_list())
        loaded = Epoch.from_buffer(epoch.to_buffer())
        sites = [entry.site for entry in epoch.index.entries()]
        sites += ["missing.example", "WWW.SONY.COM"]
        assert_index_equivalent(epoch.index, loaded.index, sites)

    def test_membership_hash_is_bit_identical(self):
        # The records section must carry enough (including cross-set
        # duplicate members) to reconstruct the exact content hash.
        for rws_list in (tricky_list(), build_rws_list(),
                         build_small_synthetic_list()):
            epoch = compile_epoch(rws_list)
            loaded = Epoch.from_buffer(epoch.to_buffer())
            assert loaded.snapshot is not None
            assert membership_hash(loaded.snapshot.rws_list) \
                == epoch.snapshot.content_hash
            assert loaded.snapshot.content_hash \
                == epoch.snapshot.content_hash
            assert loaded.snapshot.version == epoch.snapshot.version
            assert loaded.snapshot.rws_list.version == rws_list.version
            assert loaded.snapshot.rws_list.as_of == rws_list.as_of

    def test_without_psl_section_uses_caller_psl(self):
        epoch = compile_epoch(tricky_list())
        buf = epoch.to_buffer()
        custom = PublicSuffixList("com\nuk\nco.uk")
        assert Epoch.from_buffer(buf, psl=custom).psl is custom
        # Without an explicit PSL the process default is used.
        assert Epoch.from_buffer(buf).psl is default_psl()

    def test_bootstrap_epoch_without_entries_round_trips(self):
        empty = Epoch.bootstrap(default_psl())
        loaded = Epoch.from_buffer(empty.to_buffer())
        assert loaded.snapshot is None
        assert len(loaded.index) == 0
        assert loaded.index.lookup("example.com") is None

    def test_stat_reports_section_counts(self):
        epoch = compile_epoch(tricky_list())
        buf = epoch.to_buffer()
        stat = epoch_stat(buf)
        assert stat["bytes"] == len(buf)
        assert stat["snapshot_version"] == 1
        assert stat["content_hash"] == epoch.snapshot.content_hash
        assert stat["list_version"] == "tricky-1"
        assert stat["as_of"] == "2024-03-26"
        assert stat["has_snapshot"]
        assert stat["format_version"] == 2
        assert stat["entries"] == len(epoch.index)
        assert stat["sets"] == 2
        assert stat["records"] >= stat["entries"]  # duplicates kept
        assert set(stat) == {
            "bytes", "format_version", "snapshot_version", "content_hash",
            "list_version", "as_of", "has_snapshot", "strings", "entries",
            "sets", "records"}

    def test_buffer_is_plain_bytes_and_reusable(self):
        epoch = compile_epoch(tricky_list())
        buf = epoch.to_buffer()
        assert isinstance(buf, bytes)
        assert buf is epoch.index._data.source  # handed back, no encode
        assert encode_epoch(epoch) is buf
        # Loading twice from the same buffer is independent.
        one = Epoch.from_buffer(buf)
        two = Epoch.from_buffer(memoryview(buf))
        assert one.index.members_of("example.com") \
            == two.index.members_of("example.com")
        # An epoch loaded from a non-bytes buffer hands back a copy.
        assert two.to_buffer() == buf
        assert isinstance(two.to_buffer(), bytes)


class TestWireFormatGolden:
    """The encoder's exact bytes, pinned: buffers already on disk (and
    peers on older code) must keep loading, so an encoder rewrite has
    to reproduce them bit for bit under the same format version."""

    GOLDEN = {
        "seed": "5c4b0ad8ad87fd1e1a902c4b477ee546"
                "860b5619001e248bef656d74bb9932dd",
        "synthetic": "b5ab7db318c7d03bc17f178f75eea1ca"
                     "dedb058bf38d6b899d40e41b690579c1",
    }

    def test_encoder_output_is_pinned(self):
        import hashlib

        from repro.serve.epochfmt import EPOCH_FORMAT_VERSION

        assert EPOCH_FORMAT_VERSION == 2
        lists = {
            "seed": build_rws_list(),
            "synthetic": build_synthetic_list(5000, seed=3,
                                              mean_set_size=12),
        }
        for name, rws_list in lists.items():
            epoch = compile_epoch(rws_list)
            assert epoch.version == 1
            digest = hashlib.sha256(epoch.to_buffer()).hexdigest()
            assert digest == self.GOLDEN[name], name


class TestRandomizedEquivalence:
    """Fuzzed round trip: the loaded index answers like the compiled
    one, and like the naive list scan."""

    @staticmethod
    def random_list(rng: random.Random) -> RwsList:
        sets = []
        for set_idx in range(rng.randint(1, 6)):
            base = f"fuzz{set_idx}"
            associated = [f"{base}-a{i}.com"
                          for i in range(rng.randint(0, 3))]
            service = [f"{base}-s{i}.net"
                       for i in range(rng.randint(0, 2))]
            cctlds = {}
            if associated and rng.random() < 0.5:
                cctlds[associated[0]] = \
                    [associated[0].replace(".com", ".co.uk")]
            if rng.random() < 0.3 and set_idx:
                associated.append("fuzz0-a0.com")  # cross-set duplicate
            sets.append(RelatedWebsiteSet(
                primary=f"{base}.com", associated=associated,
                service=service, cctlds=cctlds,
                rationales={m: "fuzzed" for m in associated + service},
            ))
        return RwsList(sets=sets, version=f"fuzz-{rng.random():.6f}")

    def test_fuzzed_lists_round_trip(self):
        for seed in range(25):
            rng = random.Random(seed)
            rws_list = self.random_list(rng)
            epoch = compile_epoch(rws_list)
            loaded = Epoch.from_buffer(epoch.to_buffer(),
                                       psl=epoch.psl)
            sites = sorted({record.site for rws_set in rws_list
                            for record in rws_set.member_records()})
            probe = sites + ["absent.example"]
            assert_index_equivalent(epoch.index, loaded.index, probe)
            # Naive ground truth on a site sample.  Cross-set duplicate
            # members are excluded: the list scan answers from the
            # queried side's set while the index is first-wins per
            # site, so the two only agree on (valid) duplicate-free
            # pairs — the round trip above still covers duplicates.
            duplicated = set(rws_list.duplicate_members())
            clean = [site for site in probe if site not in duplicated]
            sample = rng.sample(clean, min(6, len(clean)))
            for a in sample:
                for b in sample:
                    assert loaded.index.related(a, b) \
                        == rws_list.related(a, b)
            assert membership_hash(loaded.snapshot.rws_list) \
                == epoch.snapshot.content_hash


class TestCorruptionRejection:
    def setup_method(self):
        self.buf = compile_epoch(tricky_list()).to_buffer()

    def test_truncated_buffer_rejected(self):
        for cut in (0, 3, 10, 80, 200, len(self.buf) - 1):
            with pytest.raises(EpochFormatError):
                load_epoch(self.buf[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(self.buf + b"\x00\x00\x00\x00")
        assert "length" in str(excinfo.value)

    def test_bad_magic_rejected(self):
        mangled = b"NOPE" + self.buf[4:]
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(mangled)
        assert "magic" in str(excinfo.value)

    def test_unknown_format_version_rejected(self):
        # Version 1 is the retired layout that also carried a PSL trie.
        for version in (0xFF, 1):
            mangled = restamp(self.buf, 4, struct.pack("<H", version))
            with pytest.raises(EpochFormatError) as excinfo:
                load_epoch(mangled)
            assert "version" in str(excinfo.value)
            assert excinfo.value.offset == 4

    @pytest.mark.parametrize("flags", [0x1 | 0x2, 0x8 | 0x2, 0x1, 0x8000])
    def test_unknown_flag_bits_rejected(self, flags):
        # CRC-valid, so only the flag check stands between the header
        # and a load; 0x1 was the retired "carries a PSL trie" bit.
        mangled = restamp(self.buf, 6, struct.pack("<H", flags))
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(mangled)
        assert "flag" in str(excinfo.value)
        assert excinfo.value.offset == 6

    def test_single_byte_flips_never_crash(self):
        # Any single-byte corruption must surface as EpochFormatError
        # (the CRC trailer catches what structural checks miss) —
        # never an IndexError, struct.error, or a silently wrong load.
        rng = random.Random(7)
        offsets = rng.sample(range(len(self.buf)), 64)
        for offset in offsets:
            mangled = bytearray(self.buf)
            mangled[offset] ^= 0x5A
            with pytest.raises(EpochFormatError):
                load_epoch(bytes(mangled))

    def test_errors_carry_structured_context(self):
        error = None
        try:
            load_epoch(self.buf[: len(self.buf) // 2])
        except EpochFormatError as caught:
            error = caught
        assert error is not None
        assert hasattr(error, "section") and hasattr(error, "offset")
        assert isinstance(error, ValueError)

    def test_verify_false_skips_only_the_checksum(self):
        # Corrupting just the CRC trailer: strict load rejects,
        # verify=False (a trusted mmap'd cache hit) still loads.
        mangled = bytearray(self.buf)
        mangled[-1] ^= 0xFF
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(bytes(mangled))
        assert "checksum" in str(excinfo.value) \
            or "crc" in str(excinfo.value).lower()
        loaded = load_epoch(bytes(mangled), verify=False)
        assert loaded.index.related("example.com", "shared.com")
        # Structural damage is rejected even without verification.
        with pytest.raises(EpochFormatError):
            load_epoch(self.buf[:40], verify=False)


class TestDiskCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        epoch = compile_epoch(tricky_list())
        path = cache.put(epoch)
        assert path.exists()
        assert path.suffix == ".rwse"
        loaded = cache.get(epoch.snapshot.content_hash)
        assert loaded is not None
        assert loaded.snapshot.content_hash == epoch.snapshot.content_hash
        assert loaded.index.members_of("example.com") \
            == epoch.index.members_of("example.com")

    def test_miss_returns_none(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_corrupt_file_is_removed_not_served(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        epoch = compile_epoch(tricky_list())
        path = cache.put(epoch)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.get(epoch.snapshot.content_hash) is None
        assert not path.exists()  # healed: poisoned file removed
        # A file left by the retired format version 1 is dropped too.
        path = cache.put(epoch)
        path.write_bytes(restamp(path.read_bytes(), 4,
                                 struct.pack("<H", 1)))
        assert cache.get(epoch.snapshot.content_hash) is None
        assert not path.exists()

    def test_mismatched_content_is_removed(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        epoch = compile_epoch(tricky_list())
        wrong_key = "f" * 64
        cache.put_encoded(wrong_key, epoch.to_buffer())
        assert cache.get(wrong_key) is None
        assert not cache.path_for(wrong_key).exists()

    def test_bootstrap_epoch_is_uncacheable(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put(Epoch.bootstrap(default_psl()))

    def test_warm_writes_every_epoch(self, tmp_path):
        cache = EpochDiskCache(tmp_path)
        epochs = [compile_epoch(tricky_list()),
                  compile_epoch(build_small_synthetic_list())]
        paths = cache.warm(epochs)
        assert len(paths) == 2
        assert all(path.exists() for path in paths)

    def test_env_var_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCH_CACHE", str(tmp_path / "env"))
        cache = EpochDiskCache()
        epoch = compile_epoch(tricky_list())
        path = cache.put(epoch)
        assert path.parent == tmp_path / "env"


class TestServiceIntegration:
    def test_encoded_epoch_is_cached_per_version(self):
        service = RwsService()
        try:
            service.publish(tricky_list())
            first = service.encoded_epoch()
            second = service.encoded_epoch()
            assert first is second  # one encode, cached bytes
            report = service.stats_report()
            assert report["epoch_encodes"] == 1.0
            assert report["epoch_encode_ns"] > 0.0
        finally:
            service.queue.shutdown()

    def test_encoded_epoch_without_publish_is_none(self):
        service = RwsService()
        try:
            assert service.encoded_epoch() is None
        finally:
            service.queue.shutdown()

    def test_adopt_encoded_bootstraps_a_follower(self):
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            buf = primary.encoded_epoch()
            snapshot = follower.adopt_encoded(buf)
            assert snapshot.version == 1
            assert follower.current_snapshot.content_hash \
                == primary.current_snapshot.content_hash
            assert follower.epoch.index.related("example.com",
                                                "shared.com")
            report = follower.stats_report()
            assert report["epoch_loads"] == 1.0
            assert report["epoch_load_ns"] > 0.0
            # The adopted buffer seeds the follower's own cache.
            assert follower.encoded_epoch(1) is buf
            assert follower.stats_report()["epoch_encodes"] == 0.0
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()

    def test_adopt_encoded_rejects_version_gap(self):
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            primary.publish(grown)
            with pytest.raises(StaleSnapshotError):
                follower.adopt_encoded(primary.encoded_epoch(2))
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()

    def test_adopt_encoded_rejects_bootstrap_buffer(self):
        service = RwsService()
        try:
            empty = Epoch.bootstrap(default_psl())
            with pytest.raises(ValueError):
                service.adopt_encoded(empty.to_buffer())
        finally:
            service.queue.shutdown()

    def test_stale_version_encodes_from_the_store(self):
        service = RwsService()
        try:
            service.publish(tricky_list())
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            service.publish(grown)
            old = service.encoded_epoch(1)
            assert old is not None
            assert epoch_stat(old)["snapshot_version"] == 1
            assert service.encoded_epoch(99) is None
        finally:
            service.queue.shutdown()


    def test_unencodable_site_is_absent_on_a_buffer_loaded_service(self):
        # A lone surrogate cannot be strict-UTF-8 encoded; a resolved
        # batch carrying one must answer "unrelated", not INTERNAL.
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            follower.adopt_encoded(primary.encoded_epoch())
            dispatcher = Dispatcher(follower)
            for service in (primary, follower):
                response = Dispatcher(service).dispatch(BatchQueryRequest(
                    pairs=[("\udc80x.com", "example.com"),
                           ("example.com", "\udc80x.com"),
                           ("example.com", "shared.com")],
                    detail=False, resolved=True))
                assert isinstance(response, BatchQueryResponse), response
                assert response.related == [False, False, True]
            wire = dispatcher.dispatch_wire(
                '{"api_version": 1, "op": "batch_query", "payload": '
                '{"pairs": [["\\udc80x.com", "example.com"]], '
                '"detail": false, "resolved": true}}')
            assert "INTERNAL" not in wire
            assert follower.index.lookup("\udc80x.com") is None
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()


class TestReplicaResync:
    def test_resync_reuses_the_primary_encoded_epoch(self):
        primary = RwsService(workers=2)
        try:
            primary.publish(tricky_list())
            replicas = [Replica(i, primary) for i in range(3)]
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            primary.publish(grown)
            for replica in replicas:
                assert replica.resync()
                assert replica.version == 2
                assert replica.epoch_loads == 1
                assert replica.epoch_load_ns > 0
                assert replica.stats_report()["epoch_loads"] == 1.0
            # One encode serves the whole fleet.
            assert primary.stats_report()["epoch_encodes"] == 1.0
            # Resynced replicas answer from the loaded buffer index.
            for replica in replicas:
                verdict = replica.query("new.com", "new-blog.com")
                assert verdict.related
        finally:
            primary.queue.shutdown()

    def test_resync_survives_a_primary_without_encoder(self):
        # _adopt degrades to a recompile when the primary has no
        # encoded_epoch surface (an older peer, say).
        primary = RwsService(workers=2)
        try:
            primary.publish(tricky_list())
            replica = Replica(0, primary)
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            snapshot = primary.publish(grown)
            replica.primary = object()  # no encoded_epoch attribute
            assert replica.resync(snapshot)
            assert replica.version == 2
            assert replica.epoch_loads == 0  # compiled, not loaded
        finally:
            primary.queue.shutdown()


class TestSyntheticGenerator:
    def test_exact_domain_count_and_determinism(self):
        one = build_synthetic_list(3000, seed=7)
        two = build_synthetic_list(3000, seed=7)
        assert membership_hash(one) == membership_hash(two)
        assert one.version == two.version
        index = MembershipIndex.from_list(one)
        assert index.site_count == 3000

    def test_seed_changes_the_list(self):
        assert membership_hash(build_synthetic_list(1000, seed=1)) \
            != membership_hash(build_synthetic_list(1000, seed=2))

    def test_small_variant_is_fixed_size(self):
        small = build_small_synthetic_list()
        index = MembershipIndex.from_list(small)
        assert index.site_count == SMALL_SYNTHETIC_DOMAINS
        v2 = build_small_synthetic_list_v2()
        assert membership_hash(v2) != membership_hash(small)
        assert v2.version != small.version

    def test_synthetic_list_round_trips(self):
        epoch = compile_epoch(build_synthetic_list(2000, seed=3))
        loaded = Epoch.from_buffer(epoch.to_buffer(),
                                   psl=epoch.psl)
        assert len(loaded.index) == 2000
        assert membership_hash(loaded.snapshot.rws_list) \
            == epoch.snapshot.content_hash
