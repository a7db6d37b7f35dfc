"""The three workloads, and the figures each one yields.

Every workload brings the server up several times (``setup_s`` is
their median), keeps the last one, warms it, and then measures for the
run's seconds.  With tracing, the same load runs twice back to back —
untraced, then traced — so the per-layer figures and the tracing
overhead come from one run.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import statistics
import sys

from repro.api.codec import encode_request
from repro.api.envelopes import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorCode,
    ErrorResponse,
    PollRequest,
    PollResponse,
    PublishRequest,
    PublishResponse,
    QueryRequest,
    QueryResponse,
    SubmitRequest,
    SubmitResponse,
)
from repro.data import build_rws_list, build_synthetic_list
from repro.net.frame import PREFIX_BYTES, encode_frame
from repro.rws.schema import serialize_rws_json

import gen
from loadgen import (Link, Tally, closed_loop, closed_users, now, open_loop,
                     quantile)
from spans import Layers

HERE = os.path.dirname(os.path.abspath(__file__))

#: How many times each run brings the server up (setup_s is the median).
SETUPS = 3
#: Seconds of load before measuring.
WARMUP_S = 1.0
#: Single-pair read rate for point-tcp's reference latencies (req/s):
#: below the knee (p90 is still near p50), and enough reads that the
#: whole-phase p99 repeats; a 15 ms stall of the host queues ~15 reads
#: per connection, half the server's window of 32.
POINT_RATE = 1000
#: Share of a point-tcp run at that rate; the rest measures capacity
#: with POINT_USERS closed-loop callers (below the server's window of
#: 32 per connection).
POINT_SHARE = 0.7
POINT_USERS = 16
#: batch-cold: list size, pairs per batch, invented non-member sites.
COLD_DOMAINS = 200_000
COLD_BATCH = 200
COLD_NONMEMBERS = 20_000
#: Mean set size of the synthetic lists (sets hold 6 to 24 sites).
SET_SIZE = 12
#: publish-mix: list size, read rate, publish and submit periods.  The
#: list's ~3200 hosts fit the 4096-entry caches; a publish (~25 ms on a
#: quiet host, ~65 ms on a busy one) stalls a few reads per connection,
#: and a connection refuses reads only past 32 in flight, 320 ms of
#: reads at 100/s; publishing every 0.75 s stalls 3-9% of the reads,
#: which puts the p99 inside the stall, not at its edge.
MIX_DOMAINS = 1_000
MIX_RATE = 200
MIX_PUBLISH_EVERY = 0.75
MIX_SUBMIT_EVERY = 1.0
MIX_POLL_EVERY = 0.01
#: Generator validity: a run whose send lateness passes either bound
#: measured the generator, not the program.
LATE_P50_LIMIT_US = 500.0
LATE_P99_LIMIT_US = 20000.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a measurement)."""


def pin(cpus):
    """A pre-exec hook that binds the child to ``cpus`` (None: no-op)."""
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class ServerProc:
    """The server process and its stdin/stdout command channel."""

    def __init__(self, proc, port: int):
        self.proc = proc
        self.port = port

    @classmethod
    async def launch(cls, ctx, list_path: str, *, cluster: bool,
                     trace: bool, spans_out: str = "") -> "ServerProc":
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--list", list_path]
        if cluster:
            cmd.append("--cluster")
        if trace:
            cmd += ["--trace", "--spans-out", spans_out]
        if ctx.flip_every:
            cmd += ["--flip-every", str(ctx.flip_every)]
        env = dict(os.environ, PYTHONPATH=ctx.src)
        proc = await asyncio.create_subprocess_exec(
            *cmd, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, env=env, cwd=ctx.root,
            preexec_fn=pin(ctx.server_cpus))
        server = cls(proc, 0)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 120)
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            await server.kill()
            raise BenchError("server did not start")
        server.port = int(line.split()[1])
        return server

    async def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), 30)
        if line.strip() != b"OK":
            raise BenchError(f"server refused {text!r}")

    async def stop(self) -> dict:
        """Stop the server and return its closing report."""
        import json

        self.proc.stdin.write(b"stop\n")
        await self.proc.stdin.drain()
        result = None
        while result is None:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
            if not line:
                break
            if line.startswith(b"RESULT "):
                result = json.loads(line[7:])
        await asyncio.wait_for(self.proc.wait(), 60)
        if result is None:
            raise BenchError("server exited without a report")
        return result

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Context:
    """One run's settings and scratch space."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 trace: bool, recorder, *, flip_every: int = 0,
                 stall=None, tiny: bool = False):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.recorder = recorder
        self.flip_every = flip_every
        self.stall = stall
        self.tiny = tiny
        #: Server launches per run (one for a self-test's tiny run).
        self.setups = 1 if tiny else SETUPS
        #: The generator keeps the first CPU, the server gets the rest,
        #: so neither preempts the other (None on a one-CPU host).
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus = set(cpus[1:]) if len(cpus) > 1 else None
        if self.server_cpus:
            os.sched_setaffinity(0, {cpus[0]})
        self.server: ServerProc | None = None
        self.links: list[Link] = []

    def size(self, count: int) -> int:
        """A list or population size (a hundredth for self-tests)."""
        return max(100, count // 100) if self.tiny else count

    def write_list(self, rws_list, name: str = "list.json") -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_rws_json(rws_list, indent=None))
        return path

    @property
    def spans_path(self) -> str:
        return os.path.join(self.workdir, "server-spans.json")

    async def bring_up(self, list_path: str, probe, *,
                       cluster: bool = False) -> list[float]:
        """Launch, connect and answer ``probe``, ``setups`` times.

        Returns each launch-to-first-answer time; the last server and
        its two links stay up for the measurement.  The inputs are
        built by now, so they are frozen out of the generator's garbage
        collector: a full collection over a 200k-site list and its
        oracle would pause the generator for tens of milliseconds.
        """
        gc.collect()
        gc.freeze()
        times = []
        for attempt in range(self.setups):
            last = attempt == self.setups - 1
            started = now()
            self.server = await ServerProc.launch(
                self, list_path, cluster=cluster,
                trace=self.trace and last, spans_out=self.spans_path)
            self.links = [await Link.open(self.server.port, self.recorder)
                          for _ in range(2)]
            request, check, _pairs = probe()
            sent = now()
            response, done = await self.links[0].call(request)
            if check(response, sent, done) != "ok":
                raise BenchError("the first answer was wrong")
            times.append(done - started)
            if not last:
                await self.teardown()
        return times

    async def teardown(self) -> dict:
        for link in self.links:
            await link.close()
        self.links = []
        await asyncio.sleep(0.05)  # let the server see both EOFs
        server, self.server = self.server, None
        return await server.stop() if server is not None else {}

    async def measure(self, out: dict, phase, share: float = 1.0) -> None:
        """Warm up, then measure ``phase(seconds, tally) -> elapsed``.

        Untraced, one phase of ``share`` of the run's seconds.  Traced,
        the run's seconds split into an untraced and a traced half,
        whose difference is the tracing overhead.
        """
        if self.trace:
            # The server has recorded since launch, to catch the set-up
            # publish; the warm-up and the untraced half run without.
            await self.server.command("trace off")
        out["warm"] = Tally()
        await phase(WARMUP_S, out["warm"])
        await self.server.command("mark")
        out["main"] = Tally()
        if not self.trace:
            out["elapsed"] = await phase(self.seconds * share, out["main"])
            return
        out["untraced"] = Tally()
        await phase(self.seconds / 2, out["untraced"])
        await self.server.command("trace on")
        self.recorder.on = True
        out["elapsed"] = await phase(self.seconds / 2, out["main"])
        self.recorder.on = False
        await self.server.command("trace off")


def classify(response, expected_type, matches) -> str:
    """``ok`` / ``wrong`` / ``refused`` for one reply."""
    if type(response) is expected_type:
        return "ok" if matches(response) else "wrong"
    if (type(response) is ErrorResponse
            and response.error.code is ErrorCode.RATE_LIMITED):
        return "refused"
    return "wrong"


def point_maker(source: gen.PairSource, accept):
    """Single-pair reads; ``accept(site_a, site_b, sent, done)`` gives
    the set of verdicts that are correct for that window."""
    def make():
        host_a, host_b, site_a, site_b = source.pair()

        def check(response, sent, done):
            allowed = accept(site_a, site_b, sent, done)
            return classify(response, QueryResponse,
                            lambda r: r.verdict.related in allowed)
        return QueryRequest(host_a=host_a, host_b=host_b), check, 1
    return make


def batch_maker(source: gen.PairSource, oracle: gen.Oracle, size: int):
    def make():
        pairs = []
        expected = []
        for _ in range(size):
            host_a, host_b, site_a, site_b = source.pair()
            pairs.append((host_a, host_b))
            expected.append(oracle.related(site_a, site_b))

        def check(response, _sent, _done):
            return classify(response, BatchQueryResponse,
                            lambda r: list(r.related) == expected)
        return (BatchQueryRequest(pairs=pairs, detail=False, resolved=False),
                check, size)
    return make


def generator_only(make, seconds: float = 0.3) -> float:
    """Requests/s the generator builds and frames into a null sink."""
    count = 0
    started = now()
    deadline = started + seconds
    while now() < deadline:
        request, _check, _pairs = make()
        encode_frame(encode_request(request))
        count += 1
    return count / (now() - started)


def fixed(oracle: gen.Oracle):
    def accept(site_a, site_b, _sent, _done):
        return (oracle.related(site_a, site_b),)
    return accept


# -- the workloads ------------------------------------------------------------


async def point_tcp(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    rws_list = build_rws_list()  # the reconstructed 2024 list
    oracle = gen.Oracle(rws_list)
    source = gen.PairSource(oracle, rng, zipf_s=1.0, nonmembers=64)
    make = point_maker(source, fixed(oracle))
    out = {"gen_only_rps": generator_only(make),
           "distinct_hosts": source.distinct_hosts(),
           "list_sites": len(source.sites)}
    out["setups"] = await ctx.bring_up(ctx.write_list(rws_list), make)
    links = ctx.links

    async def phase(seconds: float, tally: Tally) -> float:
        return await open_loop(links, POINT_RATE, seconds, make, tally,
                               stall=ctx.stall)

    await ctx.measure(out, phase, share=POINT_SHARE)
    if not ctx.trace:
        out["saturated"] = Tally()
        out["saturated_s"] = await closed_users(
            links, POINT_USERS, ctx.seconds * (1 - POINT_SHARE), make,
            out["saturated"])
    return out


async def batch_cold(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    rws_list = build_synthetic_list(ctx.size(COLD_DOMAINS), seed=ctx.seed,
                                    mean_set_size=SET_SIZE)
    oracle = gen.Oracle(rws_list)
    source = gen.PairSource(oracle, rng, zipf_s=0.0,
                            nonmembers=ctx.size(COLD_NONMEMBERS))
    make = batch_maker(source, oracle, COLD_BATCH)
    out = {"gen_only_rps": generator_only(make),
           "distinct_hosts": source.distinct_hosts(),
           "list_sites": len(source.sites)}
    probe = point_maker(source, fixed(oracle))
    out["setups"] = await ctx.bring_up(ctx.write_list(rws_list), probe)

    async def phase(seconds: float, tally: Tally) -> float:
        return await closed_loop(ctx.links[0], seconds, make, tally,
                                 stall=ctx.stall)

    await ctx.measure(out, phase)
    return out


class Timeline:
    """Which list versions a read may see, from the publishes made.

    Entry k is ``[label, sent, acked]``: version k may be served from
    the moment its publish was sent until the next publish is acked.
    """

    def __init__(self, label: str, oracles: dict[str, gen.Oracle]):
        self.entries = [[label, float("-inf"), float("-inf")]]
        self.oracles = oracles

    def accept(self, site_a, site_b, sent, done):
        allowed = set()
        entries = self.entries
        for k, (label, published, _acked) in enumerate(entries):
            if published > done:
                break
            successor_acked = (entries[k + 1][2] if k + 1 < len(entries)
                               else None)
            if successor_acked is None or successor_acked >= sent:
                allowed.add(self.oracles[label].related(site_a, site_b))
        return allowed


class MixSource:
    """publish-mix reads: Zipf pairs, a fifth of them on changed sites."""

    def __init__(self, base: gen.PairSource, oracles, rng: random.Random):
        self.base = base
        self.rng = rng
        a, b = oracles["A"], oracles["B"]
        self.changed = sorted(site for site in set(a.set_of) | set(b.set_of)
                              if a.set_of.get(site) != b.set_of.get(site))
        self.oracles = (a, b)

    def pair(self):
        rng = self.rng
        if not self.changed or rng.random() >= 0.2:
            return self.base.pair()
        site_a = rng.choice(self.changed)
        oracle = rng.choice(self.oracles)
        set_id = oracle.set_of.get(site_a)
        site_b = (rng.choice(oracle.sets[set_id]) if set_id is not None
                  else rng.choice(self.base.sites))
        dress = gen.DRESSINGS
        return (rng.choice(dress) + site_a, rng.choice(dress) + site_b,
                site_a, site_b)


async def publish_mix(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    list_a = build_synthetic_list(ctx.size(MIX_DOMAINS), seed=ctx.seed,
                                  mean_set_size=SET_SIZE)
    list_b = gen.variant_list(list_a, ctx.seed)
    lists = {"A": list_a, "B": list_b}
    oracles = {"A": gen.Oracle(list_a), "B": gen.Oracle(list_b)}
    base = gen.PairSource(oracles["A"], rng, zipf_s=1.0, nonmembers=64)
    source = MixSource(base, oracles, rng)
    timeline = Timeline("A", oracles)
    make = point_maker(source, timeline.accept)
    out = {"gen_only_rps": generator_only(make),
           "distinct_hosts": base.distinct_hosts(),
           "list_sites": len(base.sites)}
    out["setups"] = await ctx.bring_up(ctx.write_list(list_a), make,
                                       cluster=True)
    links = ctx.links

    async def write_side(stop: asyncio.Event, writes: Tally,
                         publish_ms: list, submit_ms: list):
        """Alternate publishes of B and A; submit and poll sets."""
        next_publish = now() + MIX_PUBLISH_EVERY / 2
        next_submit = now() + MIX_SUBMIT_EVERY / 3
        while not stop.is_set():
            await asyncio.sleep(0.005)
            if now() >= next_publish:
                label = "B" if timeline.entries[-1][0] == "A" else "A"
                entry = [label, now(), None]
                timeline.entries.append(entry)
                writes.attempted += 1
                response, done = await links[1].call(
                    PublishRequest(rws_list=lists[label]))
                entry[2] = done
                if type(response) is PublishResponse:
                    publish_ms.append((done - entry[1]) * 1e3)
                else:
                    writes.failed += 1
                next_publish = now() + MIX_PUBLISH_EVERY
            if now() >= next_submit:
                writes.attempted += 1
                started = now()
                response, _ = await links[1].call(SubmitRequest(
                    rws_set=gen.submission_set(ctx.seed, next(submissions))))
                if type(response) is not SubmitResponse:
                    writes.failed += 1
                    continue
                while True:
                    await asyncio.sleep(MIX_POLL_EVERY)
                    polled, done = await links[1].call(
                        PollRequest(ticket=response.ticket))
                    if type(polled) is not PollResponse:
                        writes.failed += 1
                        break
                    if polled.terminal:
                        submit_ms.append((done - started) * 1e3)
                        break
                next_submit = now() + MIX_SUBMIT_EVERY

    async def phase(seconds: float, tally: Tally) -> float:
        """Reads beside writes; the writes' timings replace the last
        phase's, so the measured phase's are what remain."""
        out["publish_ms"], out["submit_ms"] = [], []
        stop = asyncio.Event()
        writer = asyncio.ensure_future(write_side(
            stop, tally, out["publish_ms"], out["submit_ms"]))
        try:
            return await open_loop(links, MIX_RATE, seconds, make, tally,
                                   stall=ctx.stall)
        finally:
            stop.set()
            await writer

    submissions = itertools.count()
    await ctx.measure(out, phase)
    return out


WORKLOADS = {"point-tcp": point_tcp, "batch-cold": batch_cold,
             "publish-mix": publish_mix}


# -- figures ------------------------------------------------------------------


def latency_figures(tally: Tally) -> tuple[float, float]:
    """Read p50 and p99 in µs over the whole phase, every reply and
    failure included."""
    values = [lat for _, lat in tally.latency]
    return quantile(values, 0.5) * 1e6, quantile(values, 0.99) * 1e6


def end_to_end(name: str, out: dict, server: dict) -> tuple[dict, dict]:
    """The gated figures and the workload's extra report figures."""
    main = out["main"]
    p50, p99 = latency_figures(main)
    extra: dict[str, tuple[float, str]] = {}
    throughput = main.answered / out["elapsed"]
    if name == "point-tcp" and "saturated" in out:
        throughput = out["saturated"].answered / out["saturated_s"]
        extra["saturated_p50_us"] = (quantile(
            [lat for _, lat in out["saturated"].latency], 0.5) * 1e6, "us")
    if name == "batch-cold":
        batch_ms = [lat * 1e3 for _, lat in main.latency]
        extra["batch_p50_ms"] = (quantile(batch_ms, 0.5), "ms")
        extra["batch_p90_ms"] = (quantile(batch_ms, 0.9), "ms")
    if name == "publish-mix":
        extra["publish_p50_ms"] = (quantile(out["publish_ms"], 0.5), "ms")
        extra["submit_p50_ms"] = (quantile(out["submit_ms"], 0.5), "ms")
        extra["publishes"] = (float(len(out["publish_ms"])), "count")
        extra["submits"] = (float(len(out["submit_ms"])), "count")
    metrics = {
        "setup_s": (statistics.median(out["setups"]), "s"),
        "server_rss_mb": (server["rss_mb"], "MB"),
        "read_p50_us": (p50, "us"),
        "read_p99_us": (p99, "us"),
        "pairs_per_s": (throughput, "pairs/s"),
    }
    return metrics, extra


def per_layer(name: str, out: dict, server: dict, client_spans: list,
              server_spans: list, untraced_p50: float) -> tuple[dict, dict]:
    """The traced figures: per-layer times, ratios, counts, budget.

    The budget covers reads: every client round trip tagged
    ``net.client.request``.  Its residue is the mean round trip minus
    the mean of each timed layer on those requests — what the executor
    hop, the ordered outbox, both event loops and the socket cost.
    """
    reads = {span[5] for span in client_spans
             if span[1] == "net.client.request"}
    tagged = any(span[5] in reads for span in server_spans)
    mine = Layers([span for span in client_spans if span[5] in reads])
    theirs = Layers([span for span in server_spans
                     if span[5] in reads or not tagged])
    every = Layers(server_spans)
    rtt = mine.mean_us("net.client.request")
    layers = (mine.mean_us("net.client.encode")
              + mine.mean_us("net.client.decode")
              + theirs.mean_us("net.server.decode")
              + theirs.mean_us("api.dispatch")
              + theirs.mean_us("net.server.encode"))
    residue = rtt - layers
    main = out["main"]
    traced_p50, _ = latency_figures(main)
    net = server["net"]
    gauges = server["gauges"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    pairs = every.count("serve.query") + every.size.get(
        "serve.related_batch", 0)
    serve_ns = (sum(every.total.get("serve.query", ()))
                + sum(every.total.get("serve.related_batch", ())))
    req_sizes = theirs.size.get("net.server.decode", 0)
    resp_sizes = mine.size.get("net.client.decode", 0)
    late = [value * 1e6 for value in main.late]
    metrics = {
        "net.residue_us": (residue, "us"),
        "budget.residue_pct": (100.0 * residue / rtt if rtt else 0.0, "%"),
        "net.server.pipeline_depth_peak": (
            gauges["pipeline_depth_peak"], "count"),
        "net.server.backpressure_stalls": (
            float(net["backpressure_stalls"]), "count"),
        "net.client.encode_us": (mine.median_us("net.client.encode"), "us"),
        "net.client.decode_us": (mine.median_us("net.client.decode"), "us"),
        "net.server.decode_us": (theirs.median_us("net.server.decode"), "us"),
        "net.server.encode_us": (theirs.median_us("net.server.encode"), "us"),
        "net.frame.req_bytes": (
            req_sizes / max(1, theirs.count("net.server.decode"))
            + PREFIX_BYTES, "bytes"),
        "net.frame.resp_bytes": (
            resp_sizes / max(1, mine.count("net.client.decode"))
            + PREFIX_BYTES, "bytes"),
        "net.client.transport_errors": (float(main.transport), "count"),
        "api.dispatch_self_us": (
            theirs.median_us("api.dispatch", own=True), "us"),
        "serve.ns_per_pair": (serve_ns / pairs if pairs else 0.0, "ns"),
        "serve.resolver_hit_ratio": (
            ratio(server["resolver_hits"], server["resolver_misses"]),
            "ratio"),
        "index.probe_ns": (every.median_us("index.probe") * 1e3, "ns"),
        "psl.resolve_ns_per_host": (every.ns_per_unit("psl.resolve"), "ns"),
        "psl.cache_hit_ratio": (
            ratio(server["psl_hits"], server["psl_misses"]), "ratio"),
        "serve.publish_ms": (every.median_us("serve.publish") / 1e3, "ms"),
        "serve.compile_ms": (every.median_us("serve.compile") / 1e3, "ms"),
        "net.server.drain_waits": (float(net["drain_waits"]), "count"),
        "gen.late_p50_us": (quantile(late, 0.5), "us"),
        "gen.late_p99_us": (quantile(late, 0.99), "us"),
        "gen.only_rps": (out["gen_only_rps"], "req/s"),
        "trace.overhead_pct": (
            100.0 * (traced_p50 - untraced_p50) / untraced_p50
            if untraced_p50 else 0.0, "%"),
    }
    extra = {
        "net.client.retries": (0.0, "count"),
        "serve.query_us": (every.median_us("serve.query"), "us"),
        "serve.batch_ns_per_pair": (
            every.ns_per_unit("serve.related_batch"), "ns"),
    }
    if name == "publish-mix":
        queries = server["replica_queries"]
        submits = sorted(every.ends.get("queue.submit", ()))
        validates = sorted(every.starts.get("queue.validate", ()))
        waits = [(start - end) / 1e6
                 for end, start in zip(submits, validates)]
        extra.update({
            "cluster.route_self_us": (
                every.median_us("cluster.route", own=True), "us"),
            "cluster.replica_share_max": (
                max(queries) / sum(queries) if sum(queries) else 0.0,
                "ratio"),
            "cluster.apply_ms": (
                every.median_us("cluster.apply") / 1e3, "ms"),
            "queue.validate_ms": (
                every.median_us("queue.validate") / 1e3, "ms"),
            "queue.wait_ms": (quantile(waits, 0.5), "ms"),
        })
    return metrics, extra
