"""Benchmark entry point for hypermachine.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is accepted for the harness interface and changes nothing:
each workload runs a fixed number of passes (``PASSES`` in workloads.py),
sized so that a timed run measures about 20 s, the ``run_seconds`` of
BENCHMARK.json.  The bounds there were set from runs of exactly this work.

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  Each workload runs in
fresh child interpreters (see worker.py), one at a time:

* ``--trace 0``: one child that runs the timed passes, with set-up-only
  children before and after it; ``setup_s`` is the median set-up time over
  all of them.  Prints the end-to-end metrics.
* ``--trace 1``: one child that runs an untraced and a traced pass and the
  layer-only extras.  Prints the per-layer metrics.

Every metric is printed as a line with its unit, direction and sample count,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.  ``failed / attempted`` is the
failed share: ops that raised or failed a check, over ops attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("family_sweep", "deep_runs", "enumeration", "cli_cold")
SETUP_SAMPLES = 7  # children timed for setup_s, the timed one included
CHILD_TIMEOUT_S = 150
SAFETY_CAP_ENV = "HYPERMACHINE_SAFETY_CAP"
SAFETY_CAP = 400_000_000  # deep_runs' k=5 separation: raw estimate 3.1e8 against the default 1e7

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "decided_share": ("ratio", "higher"),
}

_FUNCTIONS = {
    "machine.run_bounded": ("steps", "steps_per_s"),
    "codec.decode": ("cache_hit_ratio",),
    "codec.universal_run": ("steps",),
    "codec.iter_descriptions": ("count",),
    "codec.encode": (),
    "corpus.two_state_family": (),
    "inductive.audit_decider": ("rows",),
    "inductive.certify_nonhalting": ("halts", "cycles", "runaways", "unknowns", "peak_mb"),
    "inductive.halting_limit_decider": (),
    "inductive.inductive_run": ("steps", "log_entries", "peak_mb"),
    "trace.watch": ("lines",),
    "limits.limit_eval": ("stages", "stages_per_s"),
    "trace.trace_run": ("records", "peak_mb"),
    "trace.emit_trace": ("bytes",),
    "reflexive.reflexive_run": ("steps", "edits"),
    "subrec.separation_search": ("dfas_searched", "dfas_per_s"),
    "dsl.parse_machine_spec": (),
    "cli.main": (),
}
_UNITS = {
    "calls": ("count", "higher"),
    "busy_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "cache_hit_ratio": ("ratio", "higher"),
    "peak_mb": ("MB", "lower"),
    "bytes": ("bytes", "lower"),
    "unknowns": ("count", "lower"),
    "dfas_searched": ("count", "lower"),
}


def _layer_metrics() -> dict[str, tuple[str, str]]:
    out = {}
    for function, extras in _FUNCTIONS.items():
        for metric in ("calls", "busy_s", "errors") + extras:
            if metric.endswith("_per_s"):
                unit = ("1/s", "higher")
            else:
                unit = _UNITS.get(metric, ("count", "higher"))
            out[f"{function}.{metric}"] = unit
    for module in sorted({name.split(".")[0] for name in _FUNCTIONS}):
        out[f"{module}.self_s"] = ("s", "lower")
    out["cli.import_s"] = ("s", "lower")
    out["tracing.overhead_ratio"] = ("ratio", "lower")
    return out


PER_LAYER = _layer_metrics()


def _child(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ)
    if workload == "deep_runs":
        env[SAFETY_CAP_ENV] = str(SAFETY_CAP)  # in this child only
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--t0", repr(time.monotonic()),
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _derived(layers: dict) -> dict:
    """Rates computed from a count and the busy time of the same spans."""
    for prefix, count, rate in (
        ("machine.run_bounded", "steps", "steps_per_s"),
        ("limits.limit_eval", "stages", "stages_per_s"),
        ("subrec.separation_search", "dfas_searched", "dfas_per_s"),
    ):
        busy = layers.get(f"{prefix}.busy_s", 0.0)
        layers[f"{prefix}.{rate}"] = layers.get(f"{prefix}.{count}", 0.0) / busy if busy else 0.0
    return layers


def run_workload(workload: str, seed: int, trace: bool) -> tuple[dict, dict, dict]:
    """Returns (raw result, metric values, sample counts)."""
    if trace:
        raw = _child(workload, seed, "traced")
        layers = _derived(raw["layers"])
        values = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        return raw, values, {name: 1 for name in PER_LAYER}
    before = SETUP_SAMPLES // 2
    setups = [_child(workload, seed, "setup")["setup_s"] for _ in range(before)]
    raw = _child(workload, seed, "timed")
    setups.append(raw["setup_s"])
    setups += [_child(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)]
    values = {name: raw[name] for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    counts = {name: 1 for name in END_TO_END}
    counts.update(setup_s=len(setups), op_p50_ms=raw["latency_samples"], op_p99_ms=raw["latency_samples"], ops_per_s=raw["attempted"])
    return raw, values, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20, help="accepted, not used: pass counts are fixed")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "hypermachine" / "__init__.py").is_file():
        print(f"error: no hypermachine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for the workers, their host clocks and their CLI children, so
    # the clock times the core the work ran on.  Unpinned on a 2-vCPU VM, the
    # two processes often ran at different speeds and scaling did not steady
    # repeated work; pinned, it cut its spread to a third (see COVERAGE.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    table = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        raw, values, counts = run_workload(name, args.seed, bool(args.trace))
        attempted += raw["attempted"]
        failed += raw["failed"]
        for problem in raw["problems"]:
            print(f"FAIL {name}: {problem}")
        share = raw["failed"] / raw["attempted"]
        print(f"{name}\tfailed_share\t{share:.6g} ratio\tlower\tn={raw['attempted']}")
        for metric, value in values.items():
            unit, better = table[metric]
            print(f"{name}\t{metric}\t{value:.6g} {unit}\t{better}\tn={counts[metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
