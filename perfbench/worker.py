"""One workload in one fresh interpreter; prints one JSON line of raw figures.

    python3 perfbench/worker.py --workload NAME --seed N
                                --mode setup|timed|traced --t0 MONOTONIC

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
building.  ``setup`` mode stops there.  The other modes then start the host
clock's side process (hostclock.py), which scales every time taken.
``timed`` mode runs the workload's fixed number of passes, ``PASSES``, so
every run does the same work.  ``traced`` mode runs a warm-up pass, then a traced and an untraced pass over
the same ops, then the layer-only extras, and writes its spans under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def timed(workload) -> dict:
    from tracing import NullTracer

    tracer = NullTracer()
    passes = workload.PASSES
    for _ in range(passes):
        workload.run_pass(tracer)
    workload.verify()
    ms = [median(times) * 1e3 for times in workload.op_times.values()]
    cuts = quantiles(ms, n=100, method="inclusive")
    return {
        "ops_per_s": workload.attempted / passes / sum(median(times) for times in workload.chunk_times.values()),
        "op_p50_ms": median(ms),
        "op_p99_ms": cuts[98],
        "latency_samples": len(ms),
        "decided_share": workload.decided_share(),
        "peak_rss_mb": peak_rss_mb(children=workload.RSS_OF_CHILDREN),
    }


def traced(workload, setup_tracer, name: str, seed: int) -> dict:
    from hypermachine.codec import _decode_bits
    from tracing import NullTracer

    workload.run_pass(NullTracer())  # warm-up: caches filled, first answers stored
    tracer = setup_tracer
    cache_before = _decode_bits.cache_info()
    workload.run_pass(tracer)
    cache_after = _decode_bits.cache_info()
    workload.run_pass(NullTracer())
    # scaled pass times, as in timed runs: [warm-up, traced, untraced] per chunk
    traced_s = sum(times[1] for times in workload.chunk_times.values())
    untraced_s = sum(times[2] for times in workload.chunk_times.values())
    workload.traced_extras(tracer)
    workload.verify()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
    layers = tracer.summary()
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    layers["codec.decode.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    layers["tracing.overhead_ratio"] = traced_s / untraced_s
    return {"layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    import hostclock
    import tracing
    import workloads

    setup_tracer = tracing.Tracer() if args.mode == "traced" else tracing.NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, setup_tracer)
    setup_s = time.monotonic() - args.t0
    workload.clock = hostclock.HostClock()
    try:
        reference = sorted(workload.clock.seconds() for _ in range(3))[1]
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = timed(workload)
        else:
            result = traced(workload, setup_tracer, args.workload, args.seed)
    finally:
        workload.clock.close()
        workload.close()
    failed = min(workload.failed, workload.attempted)  # a failing op can fail more than one check
    result.update(setup_s=setup_s * hostclock.REFERENCE_S / reference, attempted=workload.attempted, failed=failed, problems=workload.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
