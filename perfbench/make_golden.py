"""Regenerate perfbench/golden.json from the current sources.

    python3 perfbench/make_golden.py

Run it only when a change of answers is intended; every benchmark run checks
its outputs against the file.  Before writing, the counter jobs of deep_runs
are replayed with the reference ``machine.step`` and must agree with the
fast paths that produced them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hypermachine.codec import iter_descriptions  # noqa: E402
from hypermachine.inductive import audit_decider, budget_decider  # noqa: E402
from hypermachine.machine import NextConfig, initial_configuration, step, trimmed_word  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import SAFETY_CAP, SAFETY_CAP_ENV  # noqa: E402
from tracing import NullTracer  # noqa: E402


def reference_output_log(machine, word, budget):
    """(step, output word) changes of a reference run, and its last config."""
    config = initial_configuration(machine, word)
    log = [(0, trimmed_word(config.tapes[-1]))]
    while config.step < budget:
        nxt = step(machine, config)
        if not isinstance(nxt, NextConfig):
            break
        config = nxt.config
        out = trimmed_word(config.tapes[-1])
        if out != log[-1][1]:
            log.append((config.step, out))
    return log, config


def cross_check_counters(deep) -> None:
    """The counter answers of the fast paths, replayed with reference step()."""
    sizes = deep.SIZES
    tracer = NullTracer()
    for job, machine, word in (("run_counter", deep.counter, "0"), ("run_counter3", deep.counter3, "")):
        _, text, _ = deep.jobs[job](tracer, sizes[job])
        config = oracle.replay(machine, word, sizes[job])
        tapes = "|".join(trimmed_word(tape) for tape in config.tapes)
        assert text == f"budget steps={sizes[job]} state={config.state} heads={config.heads} tapes={tapes}", job

    budget = sizes["certify_counter"]
    config = initial_configuration(deep.counter, "0")
    seen = {oracle.normal(config)}
    while config.step < budget:
        config = step(deep.counter, config).config
        assert oracle.normal(config) not in seen, "the counter repeated a configuration"
        seen.add(oracle.normal(config))
    assert deep.jobs["certify_counter"](tracer, budget)[1] == "Unknown()"

    budget = sizes["inductive_counter3"]
    log, _ = reference_output_log(deep.counter3, "", budget)
    _, text, _ = deep.jobs["inductive_counter3"](tracer, budget)
    assert text.split()[:3] == [log[-1][1], str(log[-1][0]), str(budget)], "inductive_counter3"
    assert text.splitlines()[-1] == workloads.digest(repr(tuple(log))), "inductive_counter3 log"

    budget = sizes["watch_counter3"]
    log, _ = reference_output_log(deep.counter3, "", budget)
    _, text, _ = deep.jobs["watch_counter3"](tracer, budget)
    expected, at, i = [], deep.WATCH_INTERVAL, 0
    while at <= budget:
        while i + 1 < len(log) and log[i + 1][0] <= at:
            i += 1
        expected.append(f"step={at}\tout={log[i][1]}\tstatus=provisional")
        at += deep.WATCH_INTERVAL
    assert text.splitlines()[:-1] == expected, "watch_counter3"

    budget = sizes["trace_counter"]
    _, text, _ = deep.jobs["trace_counter"](tracer, budget)
    config = oracle.replay(deep.counter, "0", budget)
    last = text.splitlines()[-1]
    assert last == f"step={budget}\tstate={config.state}\thead={config.heads[0]}\ttape={trimmed_word(config.tapes[0])}", "trace_counter"


def enumeration_golden() -> dict:
    cls = workloads.Enumeration
    lengths: dict[int, list] = {}
    for description in iter_descriptions():
        length = len(description.bits)
        if length > cls.MAX_BITS:
            break
        entry = lengths.setdefault(length, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(description.bits.encode() + b"\n")
    report = audit_decider(
        budget_decider(cls.AUDIT_DECIDER_BUDGET), cls.AUDIT_ROWS, cls.AUDIT_TRUTH_BUDGET, cls.AUDIT_SIM_BUDGET
    )
    return {
        "lengths": {str(length): [count, sha.hexdigest()] for length, (count, sha) in lengths.items()},
        "audit": workloads.digest(report.to_tsv()),
    }


def deep_golden() -> dict:
    deep = workloads.DeepRuns(0, NullTracer())
    cross_check_counters(deep)
    return {name: workloads.digest(job(NullTracer(), deep.SIZES[name])[1]) for name, job in deep.jobs.items()}


def cli_golden() -> dict:
    cli = workloads.CliCold(0, NullTracer())
    try:
        return {name: cli.op(NullTracer(), name)[1] for name in cli.invocations}
    finally:
        cli.close()


def main() -> int:
    os.environ[SAFETY_CAP_ENV] = str(SAFETY_CAP)
    golden = {"deep_runs": deep_golden(), "enumeration": enumeration_golden(), "cli_cold": cli_golden()}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
