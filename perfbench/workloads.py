"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up that
``setup_s`` times), then runs whole passes over a fixed list of ops, issued in
the same seeded order on every pass.  The ops of a pass are grouped in chunks
of a fraction of a second, and every chunk and op time is kept per pass; the
figures use the median over passes.  Answers are kept from the first pass;
later passes must repeat them, and ``verify`` checks them after the timed
section, so checking costs no op time.  A run does the same fixed number
of passes, ``PASSES``, whatever the host's speed.  Every call into
hypermachine goes through ``tracer.call`` so that the traced run can put a
span around it; the timed run passes a ``NullTracer``.

Ops, per workload:

* family_sweep: one op is one machine of the two-state family;
* deep_runs: one op is one simulated step, limit stage or searched DFA;
* enumeration: one op is one description, streamed or an audit row;
* cli_cold: one op is one ``python -m hypermachine.cli`` invocation.

A call that does several ops counts each at its time divided by its ops.

Every chunk time, and every op time within it, is scaled by
``REFERENCE_S`` over the time of the host clock's kernel (see hostclock.py),
measured just before and just after the chunk: the figures are seconds on a
host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hypermachine.codec import decode, encode, index_word, iter_descriptions, nth_description, universal_run
from hypermachine.corpus import CORPUS_SPECS, corpus_machine, two_state_family
from hypermachine.dsl import parse_machine_spec
from hypermachine.inductive import (
    Certificate,
    CertifiedStable,
    ConfigurationCycle,
    HaltsAt,
    Unknown,
    audit_decider,
    budget_decider,
    certify_nonhalting,
    halting_limit_decider,
    inductive_run,
)
from hypermachine.limits import halting_as_limit, limit_eval
from hypermachine.machine import BudgetExhausted, HaltedResultless, HaltedWithResult, run_bounded, trimmed_word
from hypermachine.reflexive import reflexive_run
from hypermachine.subrec import sample_anbn, separation_search
from hypermachine.trace import emit_trace, trace_run, watch

import machines
import oracle
from hostclock import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def short_word(rng: random.Random) -> str:
    """A word of length 0 to 4 over {0, 1}."""
    return "".join(rng.choice("01") for _ in range(rng.randrange(5)))


def outcome_fields(outcome) -> str:
    """Variant, step count, result and final configuration of a run."""
    if isinstance(outcome, BudgetExhausted):
        config = outcome.config
        tapes = "|".join(trimmed_word(tape) for tape in config.tapes)
        return f"budget steps={outcome.steps} state={config.state} heads={config.heads} tapes={tapes}"
    if isinstance(outcome, HaltedWithResult):
        return f"halted steps={outcome.steps} result={outcome.result}"
    return f"resultless steps={outcome.steps}"


def certificate_kind(answer) -> str:
    if isinstance(answer, HaltsAt):
        return "halts"
    if isinstance(answer, Certificate):
        return "cycles" if isinstance(answer.certificate, ConfigurationCycle) else "runaways"
    return "unknowns"


def traced_peak_mb(fn, *args) -> float:
    """Peak traced allocation of one call, in MB above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


@dataclass(frozen=True)
class Raised:
    """The answer of an op that raised."""

    error: str


class Workload:
    """Pass bookkeeping shared by the workloads."""

    name = ""
    PASSES = 1  # passes in a timed run
    RSS_OF_CHILDREN = False  # peak_rss_mb of the largest child process instead

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: dict = {}  # op key -> (ops, answer) of the first pass
        self.chunk_times: dict = {}  # chunk key -> scaled seconds, one per pass
        self.op_times: dict = {}  # op key -> scaled seconds per op, one per pass
        self.clock = None  # a HostClock, set before the first pass
        self._reference = REFERENCE_S  # kernel time at the end of the last chunk
        self.chunks: list = []  # [(chunk key, [op key, ...]), ...] in issue order

    @functools.cached_property
    def golden(self) -> dict:
        """This workload's section of golden.json, read when first needed."""
        return load_golden()[self.name]

    def shuffled(self, items, salt: str) -> list:
        """Issue order: canonical for seed 0, else fixed by (seed, salt)."""
        items = list(items)
        if self.seed:
            random.Random(f"{salt}:{self.seed}").shuffle(items)
        return items

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    def issue(self, tracer, key, fn, *args) -> tuple:
        """Run one op: count it and keep its answer for verify().

        Returns (key, seconds per op)."""
        tracer.begin_op(key)
        started = perf_counter()
        try:
            ops, answer = fn(tracer, *args)
        except Exception as exc:  # counted as failed; the pass goes on
            ops, answer = self.answers.get(key, (1, None))[0], Raised(repr(exc))
        seconds = perf_counter() - started
        tracer.end_op()
        self.attempted += ops
        first = self.answers.setdefault(key, (ops, answer))
        if first != (ops, answer):
            self.fail(ops, f"{key}: answer changed between passes")
        return key, seconds / max(ops, 1)

    def timed_chunk(self, chunk, run_ops) -> None:
        """Run ``run_ops()``, which returns [(op key, seconds per op)], and
        record the scaled chunk and op times of this pass."""
        started = perf_counter()
        timings = run_ops()
        elapsed = perf_counter() - started
        after = self.clock.seconds()
        scale = REFERENCE_S / ((self._reference + after) / 2)
        self._reference = after
        self.chunk_times.setdefault(chunk, []).append(elapsed * scale)
        for key, seconds in timings:
            self.op_times.setdefault(key, []).append(seconds * scale)

    def op(self, tracer, key) -> tuple:
        """Returns (ops done, answer)."""
        raise NotImplementedError

    def run_pass(self, tracer) -> None:
        self._reference = self.clock.seconds()
        for chunk, keys in self.chunks:
            self.timed_chunk(chunk, lambda: [self.issue(tracer, key, self.op, key) for key in keys])
        self.passes += 1

    def check(self, key, answer) -> list[str]:
        """Problems with one first-pass answer; empty when it is correct."""
        return []

    def verify(self) -> None:
        for key, (ops, answer) in self.answers.items():
            problems = [answer.error] if isinstance(answer, Raised) else self.check(key, answer)
            if problems:
                self.fail(ops * self.passes, f"{key}: {'; '.join(problems)}")

    def decided_share(self) -> float:
        raise NotImplementedError

    def traced_extras(self, tracer) -> None:
        """Traced runs only: tracemalloc peaks and other layer-only work."""

    def close(self) -> None:
        pass


# --- family_sweep -------------------------------------------------------------


class FamilySweep(Workload):
    """Ground truth, certificate, limit decision and a short limit sweep for
    every machine of the two-state family."""

    name = "family_sweep"
    PASSES = 3  # a pass takes about 6.5 s
    CHUNK = 500
    BUDGET = 1000
    STAGES = 40
    SEED0_HALTED = 8020  # exact on blank input
    SEED0_CERTIFIED = 2490  # 1444 runaways + 1046 cycles; may only rise
    PEAK_SAMPLE = 200  # machines left Unknown, re-run under tracemalloc

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed)
        self.machines = tracer.call("corpus.two_state_family", lambda: list(two_state_family()))
        self.descriptions = [tracer.call("codec.encode", encode, m) for m in self.machines]
        rng = random.Random(seed)
        self.words = ["" if seed == 0 else short_word(rng) for _ in self.machines]
        order = self.shuffled(range(len(self.machines)), "order")
        self.chunks = [(n, order[n : n + self.CHUNK]) for n in range(0, len(order), self.CHUNK)]

    def _limit_sweep(self, description, word):
        return limit_eval(halting_as_limit(description, word), 0, self.STAGES, 3)

    def op(self, tracer, i: int) -> tuple:
        machine, description, word = self.machines[i], self.descriptions[i], self.words[i]
        truth = tracer.call("machine.run_bounded", run_bounded, machine, word, self.BUDGET)
        tracer.add("machine.run_bounded.steps", truth.steps)
        answer = None
        if isinstance(truth, BudgetExhausted):
            answer = tracer.call("inductive.certify_nonhalting", certify_nonhalting, machine, word, self.BUDGET)
            tracer.add("inductive.certify_nonhalting." + certificate_kind(answer), 1)
            truth = BudgetExhausted(truth.steps, None)  # keep the answer, not the tape
        decided = tracer.call("inductive.halting_limit_decider", halting_limit_decider, description, word, self.BUDGET)
        report = tracer.call("limits.limit_eval", self._limit_sweep, description, word)
        tracer.add("limits.limit_eval.stages", report.stages_evaluated)
        return 1, (truth, answer, (decided.current_output, decided.last_change_step, decided.status), report.guesses_log)

    def check(self, i, answer) -> list[str]:
        truth, certified, decided, log = answer
        return oracle.check(self.machines[i], self.words[i], truth, certified, decided, log, self.STAGES)

    def _counts(self) -> tuple[int, int]:
        answers = [answer for _, answer in self.answers.values() if not isinstance(answer, Raised)]
        halted = sum(not isinstance(truth, BudgetExhausted) for truth, _, _, _ in answers)
        certified = sum(isinstance(cert, Certificate) for _, cert, _, _ in answers)
        return halted, certified

    def verify(self) -> None:
        super().verify()
        halted, certified = self._counts()
        if self.seed == 0 and (halted != self.SEED0_HALTED or certified < self.SEED0_CERTIFIED):
            self.fail(1, f"seed 0: {halted} halted (want {self.SEED0_HALTED}), {certified} certified (want >= {self.SEED0_CERTIFIED})")

    def decided_share(self) -> float:
        """(halted + certified) / machines."""
        return sum(self._counts()) / len(self.machines)

    def traced_extras(self, tracer) -> None:
        unknown = [i for i, (_, answer) in sorted(self.answers.items()) if not isinstance(answer, Raised) and isinstance(answer[1], Unknown)]
        peak = max(
            (traced_peak_mb(certify_nonhalting, self.machines[i], self.words[i], self.BUDGET) for i in unknown[: self.PEAK_SAMPLE]),
            default=0.0,
        )
        tracer.add("inductive.certify_nonhalting.peak_mb", peak)


# --- deep_runs ----------------------------------------------------------------


class DeepRuns(Workload):
    """A few long computations, each its own chunk; one pass runs each once.

    A job's answer is (text, final): ``text`` holds the outcome fields, final
    tape, trace bytes or watch lines, and its digest must match golden.json;
    ``final`` says whether the answer can no longer change with more budget.
    """

    name = "deep_runs"
    PASSES = 5  # a pass takes about 5 s
    SIZES = {
        "run_loop": 1_500_000,
        "run_counter": 500_000,
        "run_trail": 500_000,
        "run_counter3": 150_000,
        "certify_counter": 100_000,
        "inductive_counter3": 50_000,
        "watch_counter3": 50_000,
        "reflexive_specializer": 100_000,
        "trace_trail": 2_000,
        "trace_counter": 30_000,
        "limit_trail": 10_000,
        "separate_anbn": 5,
    }
    WATCH_INTERVAL = 100

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed)
        parsed = machines.load(tracer)
        self.counter, self.counter3 = parsed["counter"], parsed["counter3"]
        self.loop = corpus_machine("loop")
        self.trail = corpus_machine("trail")
        self.specializer = corpus_machine("specializer")
        self.trail_bits = tracer.call("codec.encode", encode, self.trail)
        self.sample = sample_anbn(6)
        self.jobs = {
            "run_loop": lambda t, n: self._run(t, self.loop, "", n),
            "run_counter": lambda t, n: self._run(t, self.counter, "0", n),
            "run_trail": lambda t, n: self._run(t, self.trail, "", n),
            "run_counter3": lambda t, n: self._run(t, self.counter3, "", n),
            "certify_counter": self._certify_counter,
            "inductive_counter3": self._inductive_counter3,
            "watch_counter3": self._watch_counter3,
            "reflexive_specializer": self._reflexive,
            "trace_trail": lambda t, n: self._trace(t, self.trail, "", n),
            "trace_counter": lambda t, n: self._trace(t, self.counter, "0", n),
            "limit_trail": self._limit_trail,
            "separate_anbn": self._separate,
        }
        self.chunks = [(name, [name]) for name in self.shuffled(self.jobs, "order")]

    def op(self, tracer, name: str) -> tuple:
        ops, text, final = self.jobs[name](tracer, self.SIZES[name])
        return ops, (text, final)

    def _run(self, tracer, machine, word, budget):
        outcome = tracer.call("machine.run_bounded", run_bounded, machine, word, budget)
        tracer.add("machine.run_bounded.steps", outcome.steps)
        return outcome.steps, outcome_fields(outcome), not isinstance(outcome, BudgetExhausted)

    def _certify_counter(self, tracer, budget):
        answer = tracer.call("inductive.certify_nonhalting", certify_nonhalting, self.counter, "0", budget)
        tracer.add("inductive.certify_nonhalting." + certificate_kind(answer), 1)
        return budget, repr(answer), not isinstance(answer, Unknown)

    def _inductive_counter3(self, tracer, budget):
        outcome = tracer.call("inductive.inductive_run", inductive_run, self.counter3, "", budget)
        tracer.add("inductive.inductive_run.steps", outcome.steps_executed)
        tracer.add("inductive.inductive_run.log_entries", len(outcome.log.entries))
        head = f"{outcome.current_output} {outcome.last_change_step} {outcome.steps_executed} {outcome.status!r}"
        return outcome.steps_executed, head + "\n" + digest(repr(outcome.log.entries)), isinstance(outcome.status, CertifiedStable)

    def _watch_counter3(self, tracer, budget):
        lines, outcome = tracer.call("trace.watch", watch, self.counter3, "", self.WATCH_INTERVAL, budget)
        tracer.add("trace.watch.lines", len(lines))
        return outcome.steps_executed, "\n".join(lines), isinstance(outcome.status, CertifiedStable)

    def _reflexive(self, tracer, zeros):
        outcome, log = tracer.call("reflexive.reflexive_run", reflexive_run, self.specializer, "0" * zeros, 4 * zeros)
        tracer.add("reflexive.reflexive_run.steps", outcome.steps)
        tracer.add("reflexive.reflexive_run.edits", len(log.entries))
        return outcome.steps, outcome_fields(outcome) + f" edits={log.entries!r}", not isinstance(outcome, BudgetExhausted)

    def _trace(self, tracer, machine, word, budget):
        records = tracer.call("trace.trace_run", trace_run, machine, word, budget)
        text = tracer.call("trace.emit_trace", emit_trace, records)
        tracer.add("trace.trace_run.records", len(records))
        tracer.add("trace.emit_trace.bytes", len(text))
        return len(records) - 1, text, len(records) <= budget

    def _limit_trail(self, tracer, stages):
        report = tracer.call("limits.limit_eval", lambda: limit_eval(halting_as_limit(self.trail_bits, ""), 0, stages, 10))
        tracer.add("limits.limit_eval.stages", report.stages_evaluated)
        return report.stages_evaluated, repr(report), False  # a limit is never certified at a finite stage

    def _separate(self, tracer, states):
        report = tracer.call("subrec.separation_search", separation_search, self.sample, states)
        tracer.add("subrec.separation_search.dfas_searched", report.dfas_searched)
        return report.dfas_searched, f"{report.dfas_searched} {report.witness!r}", True  # exhaustive either way

    def check(self, name, answer) -> list[str]:
        text, _ = answer
        if digest(text) != self.golden[name]:
            return [f"digest differs from golden.json ({text[:120]!r})"]
        return []

    def decided_share(self) -> float:
        """Jobs whose answer is final: a halt, a certificate or an exhausted search."""
        return sum(answer[1] for _, answer in self.answers.values() if not isinstance(answer, Raised)) / len(self.jobs)

    def traced_extras(self, tracer) -> None:
        sizes = self.SIZES
        tracer.add("inductive.certify_nonhalting.peak_mb", traced_peak_mb(certify_nonhalting, self.counter, "0", sizes["certify_counter"]))
        tracer.add("inductive.inductive_run.peak_mb", traced_peak_mb(inductive_run, self.counter3, "", sizes["inductive_counter3"]))
        tracer.add("trace.trace_run.peak_mb", max(
            traced_peak_mb(trace_run, self.trail, "", sizes["trace_trail"]),
            traced_peak_mb(trace_run, self.counter, "0", sizes["trace_counter"]),
        ))


# --- enumeration --------------------------------------------------------------


class Enumeration(Workload):
    """Stream every description up to MAX_BITS through decode, re-encode and a
    short universal run, then audit a budget decider over the first rows."""

    name = "enumeration"
    PASSES = 5  # a pass takes about 4 s
    MAX_BITS = 31
    RUN_BUDGET = 32
    CHUNK = 1024  # descriptions buffered and issued in seeded order
    AUDIT_ROWS = 2000
    AUDIT_DECIDER_BUDGET = 20
    AUDIT_TRUTH_BUDGET = 200
    AUDIT_SIM_BUDGET = 20

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed)
        self.lengths = {int(k): v for k, v in self.golden["lengths"].items() if int(k) <= self.MAX_BITS}
        self.total = sum(count for count, _ in self.lengths.values())
        rng = random.Random(seed)
        self.words = [index_word(n) if seed == 0 else short_word(rng) for n in range(self.total)]
        nth_description(self.AUDIT_ROWS - 1)  # the audit's enumeration cache, filled once per process
        self.runs = self.halted = 0

    def op(self, tracer, index: int, description) -> tuple:
        machine = tracer.call("codec.decode", decode, description)
        if tracer.call("codec.encode", encode, machine).bits != description.bits:
            raise ValueError("decode and encode do not round-trip")
        outcome = tracer.call("codec.universal_run", universal_run, description, self.words[index], self.RUN_BUDGET)
        tracer.add("codec.universal_run.steps", outcome.steps)
        if self.passes == 0:
            self.runs += 1
            self.halted += not isinstance(outcome, BudgetExhausted)
        # every answer is replayed by verify(); keep no configuration
        return 1, (description, type(outcome).__name__, outcome.steps, getattr(outcome, "result", None))

    def _audit(self, tracer) -> tuple:
        report = tracer.call(
            "inductive.audit_decider",
            audit_decider,
            budget_decider(self.AUDIT_DECIDER_BUDGET),
            self.AUDIT_ROWS,
            self.AUDIT_TRUTH_BUDGET,
            self.AUDIT_SIM_BUDGET,
        )
        tracer.add("inductive.audit_decider.rows", len(report.rows))
        return len(report.rows), digest(report.to_tsv())

    def _chunk(self, tracer, stream, start: int, counts: dict, hashes: dict) -> list:
        """Pull the next descriptions off the stream and issue them."""
        chunk = []
        for index in range(start, min(start + self.CHUNK, self.total)):
            description = tracer.call("codec.iter_descriptions", next, stream)
            tracer.add("codec.iter_descriptions.count", 1)
            length = len(description.bits)
            if length in counts:
                counts[length] += 1
                hashes[length].update(description.bits.encode() + b"\n")
            chunk.append((index, description))
        return [self.issue(tracer, index, self.op, index, d) for index, d in self.shuffled(chunk, f"chunk{start}")]

    def run_pass(self, tracer) -> None:
        self._reference = self.clock.seconds()
        stream = iter_descriptions()
        hashes = {length: hashlib.sha256() for length in self.lengths}
        counts = dict.fromkeys(self.lengths, 0)
        for start in range(0, self.total, self.CHUNK):
            self.timed_chunk(start, lambda: self._chunk(tracer, stream, start, counts, hashes))
        got = {length: [counts[length], hashes[length].hexdigest()] for length in self.lengths}
        if got != self.lengths:
            bad = sorted(length for length in self.lengths if got[length] != self.lengths[length])
            self.fail(self.total, f"enumeration differs from golden.json at lengths {bad}")
        self.timed_chunk("audit", lambda: [self.issue(tracer, "audit", self._audit)])
        self.passes += 1

    def check(self, key, answer) -> list[str]:
        if key == "audit":
            return [] if answer == self.golden["audit"] else ["audit report differs from golden.json"]
        description, variant, steps, result = answer
        machine, word = decode(description), self.words[key]
        if variant == "BudgetExhausted":
            if steps != self.RUN_BUDGET or oracle.replay(machine, word, steps) is None:
                return [f"budget exhausted at {steps} steps where the reference run does not"]
            return []
        outcome = HaltedWithResult(result, steps) if variant == "HaltedWithResult" else HaltedResultless(steps)
        return oracle.check_halt(machine, word, outcome)

    def decided_share(self) -> float:
        """Universal runs that halted within the budget."""
        return self.halted / self.runs


# --- cli_cold -----------------------------------------------------------------


class CliCold(Workload):
    """A fixed list of CLI invocations, each in a fresh interpreter and each
    its own chunk; the answer is the exit code and a digest of stdout."""

    name = "cli_cold"
    PASSES = 18  # a pass takes about 1.1 s
    RSS_OF_CHILDREN = True
    IMPORT_SAMPLES = 5

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed)
        self.workdir = ROOT / ".perfbench" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "flip.tm").write_text(CORPUS_SPECS["flip"])
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.invocations = invocations(encode(parse_machine_spec(CORPUS_SPECS["flip"]).machine).bits)
        self.chunks = [(name, [name]) for name in self.shuffled(self.invocations, "order")]

    def op(self, tracer, name: str) -> tuple:
        done = subprocess.run(
            [sys.executable, "-m", "hypermachine.cli", *self.invocations[name]],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=60,
        )
        return 1, [done.returncode, hashlib.sha256(done.stdout).hexdigest()]

    def check(self, name, answer) -> list[str]:
        if answer != self.golden[name]:
            return [f"exit code and stdout {answer} differ from golden.json"]
        return []

    def decided_share(self) -> float:
        """Invocations that ended with a final answer (exit 0, not 3)."""
        return sum(answer[0] == 0 for _, answer in self.answers.values()) / len(self.answers)

    def traced_extras(self, tracer) -> None:
        """The same invocations through cli.main in this process, and the
        import time of hypermachine.cli in fresh interpreters."""
        from hypermachine import cli

        tracer.call("dsl.parse_machine_spec", parse_machine_spec, (self.workdir / "flip.tm").read_text())
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            for name, argv in self.invocations.items():
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = tracer.call("cli.main", cli.main, argv)
                problems = self.check(name, [code, digest(out.getvalue())])
                if problems:
                    self.fail(1, f"{name} in process: {problems[0]}")
        finally:
            os.chdir(here)
        probe = "import time; t = time.perf_counter(); import hypermachine.cli; print(time.perf_counter() - t)"
        samples = sorted(
            float(subprocess.run([sys.executable, "-c", probe], env=self.env, capture_output=True, text=True, timeout=60, check=True).stdout)
            for _ in range(self.IMPORT_SAMPLES)
        )
        tracer.add("cli.import_s", samples[len(samples) // 2])

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()
        with contextlib.suppress(OSError):  # another run may still use it
            self.workdir.parent.rmdir()


def invocations(flip_bits: str) -> dict[str, list[str]]:
    return {
        "run": ["run", "flip.tm", "--input", "0", "--trace", "-"],
        "encode": ["encode", "flip.tm"],
        "decode": ["decode", "--bits", flip_bits],
        "halts": ["halts", "--bits", flip_bits, "--input", "1", "--budget", "10000"],
        "limit_eval": ["limit-eval", "--fn", "halting", "--x", "3", "--stages", "100", "--window", "10"],
        "separate": ["separate", "--lang", "anbn", "--max-states", "3"],
        "enumerate": ["enumerate", "--count", "1000"],
    }


WORKLOADS = {cls.name: cls for cls in (FamilySweep, DeepRuns, Enumeration, CliCold)}
