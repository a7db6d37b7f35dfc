"""The system under test, in its own process.

Run by :mod:`perfbench.run`; not meant to be started by hand::

    python3 perfbench/server.py --list L.json [--cluster] [--trace]
        [--flip-every N] [--spans-out F]

Loads the list (``repro.rws.schema.parse_rws_json``), publishes it to
an :class:`RwsService` (or, with ``--cluster``, to a :class:`Router`
over two lag-0 replicas), serves it with :class:`RwsTcpServer` on an
ephemeral loopback port and prints ``READY <port>``.  Then it obeys
one command per stdin line:

* ``trace on`` / ``trace off`` — start or stop recording spans;
* ``mark`` — start the measured window for cache and queue counters;
* ``stop`` — stop serving, print ``RESULT <json>``, write the spans
  and exit.

``--flip-every N`` wraps the backend so every Nth single-pair verdict
and one bit of every Nth batch come back inverted: the self-test's
proof that the oracle catches a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class FlipBackend:
    """A backend wrapper that answers some verdicts wrongly."""

    def __init__(self, backend, every: int):
        self._backend = backend
        self._every = every
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _due(self) -> bool:
        self._calls += 1
        return self._calls % self._every == 0

    def query(self, host_a, host_b):
        verdict = self._backend.query(host_a, host_b)
        if verdict.result is not None and self._due():
            verdict.result.related = not verdict.result.related
        return verdict

    def related_batch(self, pairs):
        bits = self._backend.related_batch(pairs)
        if bits and self._due():
            bits[0] = not bits[0]
        return bits


def install_spans(recorder) -> None:
    """Wrap each layer's public entry points (before anything binds)."""
    from repro.api.dispatcher import Dispatcher
    from repro.cluster.replica import Replica
    from repro.cluster.router import Router
    from repro.net import server as net_server
    from repro.psl.lookup import PublicSuffixList
    from repro.rws.validation import Validator
    from repro.serve.epoch import Epoch
    from repro.serve.index import MembershipIndex
    from repro.serve.queue import ValidationQueue
    from repro.serve.service import EpochShell, RwsService

    def pairs(args):
        return len(args[1])

    wrap = recorder.wrap
    wrap(net_server, "decode_request", "net.server.decode",
         size=lambda args: len(args[0]))
    wrap(net_server, "encode_response", "net.server.encode")
    wrap(Dispatcher, "dispatch", "api.dispatch")
    wrap(Router, "query", "cluster.route")
    wrap(Router, "related_batch", "cluster.route", size=pairs)
    wrap(Router, "publish", "cluster.publish")
    wrap(Replica, "advance", "cluster.apply")
    wrap(EpochShell, "query", "serve.query")
    wrap(EpochShell, "related_batch", "serve.related_batch", size=pairs)
    wrap(RwsService, "publish", "serve.publish")
    wrap(Epoch, "compile", "serve.compile")
    wrap(MembershipIndex, "query", "index.probe")
    wrap(MembershipIndex, "related", "index.probe")
    wrap(PublicSuffixList, "etld_plus_one", "psl.resolve")
    wrap(PublicSuffixList, "etld_plus_one_many", "psl.resolve",
         size=lambda args: len(args[1]))
    wrap(ValidationQueue, "submit", "queue.submit")
    wrap(Validator, "validate", "queue.validate")
    _tag_requests(recorder, net_server.RwsTcpServer)


def _tag_requests(recorder, server_class) -> None:
    """Give server spans the client's request id, ``<port>:<k>``.

    Admission runs on the loop thread in arrival order, so it can name
    the k-th request of the connection from the peer's port; the
    worker that processes it then carries that id.  These are private
    hooks: if the server's internals change, spans keep no id and
    every figure still comes out.
    """
    from spans import REQUEST

    admit = getattr(server_class, "_admit", None)
    process = getattr(server_class, "_process", None)
    if admit is None or process is None:
        return
    names: dict[int, str] = {}

    def tagged_admit(self, connection, payload):
        seq = self._request_seq
        admit(self, connection, payload)
        if recorder.on and self._request_seq > seq:
            port = connection.writer.get_extra_info("peername")[1]
            names[seq] = f"{port}:{connection.requests - 1}"

    def tagged_process(self, payload, version, seq, first):
        token = REQUEST.set(names.pop(seq, None))
        try:
            return process(self, payload, version, seq, first)
        finally:
            REQUEST.reset(token)

    server_class._admit = tagged_admit
    server_class._process = tagged_process


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--list", required=True)
    parser.add_argument("--cluster", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="install the span wrappers, recording from "
                             "the start (setup publish included)")
    parser.add_argument("--flip-every", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    from spans import Recorder

    recorder = Recorder()
    if args.trace:
        install_spans(recorder)
        recorder.on = True

    from repro.cluster.router import Router
    from repro.net.server import RwsTcpServer, ServerThread
    from repro.rws.schema import parse_rws_json
    from repro.serve.service import RwsService

    with open(args.list, encoding="utf-8") as handle:
        rws_list = parse_rws_json(handle.read())
    primary = RwsService()
    backend = Router(primary, replicas=2, lag=0) if args.cluster else primary
    backend.publish(rws_list)
    served = (FlipBackend(backend, args.flip_every)
              if args.flip_every else backend)
    harness = ServerThread(RwsTcpServer(served))
    _host, port = harness.start()
    print(f"READY {port}", flush=True)

    def counters() -> dict:
        return {"psl": primary.psl.cache_stats(),
                "report": backend.stats_report()}

    marked = counters()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                recorder.on = True
            elif command == "trace off":
                recorder.on = False
            elif command == "mark":
                marked = counters()
            elif command == "stop":
                break
            print("OK", flush=True)
    finally:
        recorder.on = False
        harness.stop()
    final = counters()
    net = harness.server.net_snapshot()

    def since_mark(group: str, key: str) -> float:
        return final[group].get(key, 0) - marked[group].get(key, 0)

    result = {
        "rss_mb": peak_rss_mb(),
        "net": net["counters"],
        "gauges": net["gauges"],
        "psl_hits": since_mark("psl", "hits"),
        "psl_misses": since_mark("psl", "misses"),
        "resolver_hits": since_mark("report", "resolver_hits"),
        "resolver_misses": since_mark("report", "resolver_misses"),
        "replica_queries": ([r.stats.queries for r in backend.replicas]
                            if args.cluster else [primary.stats.queries]),
    }
    if args.spans_out:
        recorder.dump(args.spans_out)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
