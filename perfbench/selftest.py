"""Self-tests of the benchmark (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

* every workload, at a tiny size, prints every metric that
  ``BENCHMARK.json`` names, with its unit, traced and untraced;
* a server whose backend inverts one verdict in seven drives the
  failure count (``error_rate``) above 0 and the run is not correct;
* a generator that blocks itself is reported as invalid, not slow.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every workload run.py knows: BENCHMARK.json's and point-tcp.
WORKLOADS = ("point-tcp", "batch-cold", "publish-mix")


def bench(*args: str) -> tuple[dict, str]:
    """One run of run.py; returns its JSON line and its whole output."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def tiny(workload: str, *extra: str) -> tuple[dict, str]:
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--tiny", *extra)


def check_every_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            result, _ = tiny(workload, "--trace", trace)
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: figure["unit"]
                   for name, figure in result["metrics"].items()}
            assert got == wanted, (workload, trace, got, wanted)
            assert all(isinstance(f["value"], (int, float))
                       for f in result["metrics"].values())
            # Verdicts must all be right; a one-second run may still be
            # flagged invalid by a single hiccup of a shared host.
            assert result["failed"] == 0, (workload, trace, result)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_wrong_verdict_counts() -> None:
    for workload in ("point-tcp", "batch-cold"):
        result, out = tiny(workload, "--flip-every", "7")
        assert result["failed"] > 0 and not result["correct"], result
        rate = float(out.split("error_rate ")[1].split()[0])
        assert rate > 0, out
        print(f"ok  {workload}: flipped verdicts give error_rate {rate}")


def check_planted_stall() -> None:
    result, out = tiny("point-tcp", "--stall-ms", "50")
    assert not result["correct"], result
    assert "INVALID" in out, out
    print("ok  point-tcp: a planted generator stall is flagged")


def main() -> int:
    check_every_metric()
    check_wrong_verdict_counts()
    check_planted_stall()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
