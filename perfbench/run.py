"""The repository benchmark: the RWS serving stack over real TCP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-tcp --seed 1 --seconds 12 \\
        --trace 0

Workloads: ``point-tcp``, ``batch-cold``, ``publish-mix`` (see
``perfbench/README.md``), or ``all`` for the three in turn.  The server runs in its own process, built
from ``src/``; this process generates the load and checks every answer
against an oracle built from the list it generated.  It prints a
report, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures; with
``--trace 1`` the per-layer figures of a traced run.  The exit code is
0 when the run measured, whatever it measured, and 2 when it could not
run at all.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint() -> dict:
    """CPU model, cores, Python and a calibration loop's ns/op."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rounds = []
    for _ in range(5):
        started = time.perf_counter_ns()
        total = 0
        for i in range(200_000):
            total += i & 7
        rounds.append((time.perf_counter_ns() - started) / 200_000)
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_ns_per_op": round(statistics.median(rounds), 2)}


def emit(label: str, figures: dict) -> None:
    for key in sorted(figures):
        value, unit = figures[key]
        print(f"  {label:<5} {key:<34} {value:>14.4f} {unit}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one combined JSON line
    whose metrics are named ``<workload>/<metric>``."""
    import subprocess

    from workloads import WORKLOADS

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             *common], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, figure in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = figure
    print(json.dumps(combined))
    return 0


async def measure(ctx, name: str) -> dict:
    from workloads import WORKLOADS

    try:
        out = await WORKLOADS[name](ctx)
        server = await ctx.teardown()
    except BaseException:
        if ctx.server is not None:
            await ctx.server.kill()
        raise
    out["server"] = server
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-every", type=int, default=0,
                        help="self-test: the server inverts every Nth "
                             "verdict")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test: lists a hundred times smaller")
    parser.add_argument("--stall-ms", type=float, default=0.0,
                        help="self-test: block the generator this long "
                             "before every 50th request")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from loadgen import new_loop
    from spans import Recorder, load_spans

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    stall = None
    if args.stall_ms > 0:
        def stall(i, pause=args.stall_ms / 1e3):
            if i % 50 == 49:
                time.sleep(pause)

    recorder = Recorder()
    if args.trace:
        from repro.net import client as net_client
        recorder.wrap(net_client, "encode_request", "net.client.encode")
        recorder.wrap(net_client, "decode_response", "net.client.decode",
                      size=lambda call: len(call[0]))
    host = fingerprint()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        ctx = workloads.Context(
            ROOT, workdir, args.seed, args.seconds, bool(args.trace),
            recorder, flip_every=args.flip_every, stall=stall,
            tiny=args.tiny)
        loop = new_loop()
        asyncio.set_event_loop(loop)
        try:
            out = loop.run_until_complete(measure(ctx, args.workload))
        except workloads.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            asyncio.set_event_loop(None)
            loop.close()
        server = out["server"]
        main_tally = out["main"]
        tallies = [out[key] for key in ("warm", "main", "untraced",
                                        "saturated") if key in out]
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        wrong = sum(t.wrong for t in tallies)
        e2e, extra = workloads.end_to_end(args.workload, out, server)
        late = [value * 1e6 for value in main_tally.late]
        late_p50 = workloads.quantile(late, 0.5)
        late_p99 = workloads.quantile(late, 0.99)
        valid = (late_p50 <= workloads.LATE_P50_LIMIT_US
                 and late_p99 <= workloads.LATE_P99_LIMIT_US)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(host, sort_keys=True))
        print(f"  list sites {out['list_sites']}, distinct hosts "
              f"{out['distinct_hosts']} (PSL cache 4096, resolver shim "
              f"4096); setups {[round(s, 4) for s in out['setups']]}")
        print(f"  attempted {attempted}, failed {failed} (wrong {wrong}, "
              f"refused {sum(t.refused for t in tallies)}, transport "
              f"{sum(t.transport for t in tallies)}); error_rate "
              f"{failed / max(1, attempted):.6f}")
        print(f"  generator lateness p50 {late_p50:.1f} us, p99 "
              f"{late_p99:.1f} us (bounds {workloads.LATE_P50_LIMIT_US:g}"
              f" / {workloads.LATE_P99_LIMIT_US:g} us): "
              f"{'valid' if valid else 'INVALID - the generator fell behind'}")
        emit("e2e", e2e)
        emit("e2e", {**extra, "error_rate": (
            failed / max(1, attempted), "fraction")})
        metrics = e2e
        if args.trace:
            untraced_p50, _ = workloads.latency_figures(out["untraced"])
            layers, layer_extra = workloads.per_layer(
                args.workload, out, server, recorder.spans,
                load_spans(ctx.spans_path), untraced_p50)
            emit("layer", layers)
            emit("layer", layer_extra)
            metrics = layers
        print(json.dumps({
            "correct": failed == 0 and valid,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
