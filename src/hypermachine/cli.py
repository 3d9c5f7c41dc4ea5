"""Command-line front end.

Exit codes: 0 success or certified result, 1 runtime error, 2 parse/usage
error, 3 budget exhausted or provisional result.  Every command is a pure
function of its inputs and flags; repeated invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .codec import Description, decode, encode, enumerate_machines, index_word
from .corpus import corpus_machine
from .dsl import ParseError, parse_machine_spec, unparse
from .inductive import (
    CertifiedStable,
    audit_decider,
    budget_decider,
    certified_decider,
    diagonalize,
    halting_limit_decider,
)
from .limits import BUILTIN_LIMIT_FUNCTIONS, builtin_limit_function, limit_eval
from .machine import (
    BudgetExhausted,
    EquivalentUpTo,
    HaltedWithResult,
    HypermachineError,
    InputError,
    Machine,
    RunOutcome,
    observational_equiv,
    run_bounded,
)
from .reflexive import ReflexiveMachine, reflexive_run
from .subrec import BUILTIN_SAMPLES, DfaFound, separation_search
from .trace import emit_trace, summary_line, traced_run, watch

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_PROVISIONAL = 3


def _load_spec(path: str):
    return parse_machine_spec(Path(path).read_text())


def _load_description(args) -> Description:
    if getattr(args, "bits", None):
        return Description(args.bits)
    if getattr(args, "description", None):
        return Description(Path(args.description).read_text().strip())
    raise InputError("provide a description file or --bits")


def _outcome_fields(outcome: RunOutcome) -> str:
    if isinstance(outcome, HaltedWithResult):
        return f"status=halted\tresult={outcome.result}\tsteps={outcome.steps}"
    if isinstance(outcome, BudgetExhausted):
        return f"status=budget-exhausted\tsteps={outcome.steps}"
    return f"status=halted-resultless\tsteps={outcome.steps}"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_run(args) -> int:
    doc = _load_spec(args.spec)
    machine = doc.machine
    if isinstance(machine, Machine):
        machine = ReflexiveMachine(machine, {})
    if args.trace:
        records, outcome, edit_log = traced_run(machine, args.input, args.budget)
        _write_text(args.trace, emit_trace(records))
    else:
        outcome, edit_log = reflexive_run(machine, args.input, args.budget)
    for at, action in edit_log.entries:
        print(f"edit\tstep={at}\taction={type(action).__name__}")
    print(_outcome_fields(outcome))
    return EXIT_PROVISIONAL if isinstance(outcome, BudgetExhausted) else EXIT_OK


def cmd_watch(args) -> int:
    doc = _load_spec(args.spec)
    machine = doc.machine
    if not isinstance(machine, Machine):
        raise InputError("watch needs a plain 3-tape machine")
    lines, outcome = watch(machine, args.input, args.interval, args.budget)
    for line in lines:
        print(line)
    return EXIT_OK if isinstance(outcome.status, CertifiedStable) else EXIT_PROVISIONAL


def cmd_encode(args) -> int:
    doc = _load_spec(args.spec)
    if not isinstance(doc.machine, Machine):
        raise InputError("reflexive machines are not encodable")
    print(encode(doc.machine).bits)
    return EXIT_OK


def cmd_decode(args) -> int:
    machine = decode(_load_description(args))
    sys.stdout.write(unparse(machine))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    for description in enumerate_machines(args.count):
        print(description.bits)
    return EXIT_OK


def cmd_halts(args) -> int:
    outcome = halting_limit_decider(_load_description(args), args.input, args.budget)
    print(summary_line(outcome))
    return EXIT_OK if isinstance(outcome.status, CertifiedStable) else EXIT_PROVISIONAL


def _decider(spec: str):
    kind, _, value = spec.partition(":")
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InputError(f"bad decider spec {spec!r}: want budget:<steps> or certified:<steps>")
    if kind == "budget":
        return budget_decider(budget)
    if kind == "certified":
        return certified_decider(budget)
    raise InputError(f"unknown decider kind {kind!r}")


def cmd_diagonal(args) -> int:
    word = index_word(args.index)
    bit = diagonalize(_decider(args.decider), word, args.budget)
    print(f"index={args.index}\tword={word}\tdiagonal={bit}")
    return EXIT_OK


def cmd_audit(args) -> int:
    sim_budget = args.sim_budget if args.sim_budget is not None else args.truth_budget
    report = audit_decider(_decider(args.decider), args.machines, args.truth_budget, sim_budget)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_limit_eval(args) -> int:
    fn = builtin_limit_function(args.fn)
    report = limit_eval(fn, args.x, args.stages, args.window)
    for stage, guess in report.guesses_log:
        print(f"stage={stage}\tguess={guess}")
    converged = "1" if report.converged_within_budget else "0"
    print(f"final={report.final_guess}\tchanges={report.changes}\tconverged={converged}")
    return EXIT_OK if report.converged_within_budget else EXIT_PROVISIONAL


def cmd_equiv(args) -> int:
    m1 = _load_spec(args.spec1).machine
    m2 = _load_spec(args.spec2).machine
    if not (isinstance(m1, Machine) and isinstance(m2, Machine)):
        raise InputError("equiv compares plain machines")
    result = observational_equiv(m1, m2, args.max_len, args.budget)
    if isinstance(result, EquivalentUpTo):
        print(f"equivalent\tmax_len={result.max_input_length}\tbudget={result.budget}")
    else:
        print(
            f"counterexample\tword={result.word}\t"
            f"first[{_outcome_fields(result.outcome1)}]\tsecond[{_outcome_fields(result.outcome2)}]"
        )
    return EXIT_OK


def cmd_separate(args) -> int:
    report = separation_search(BUILTIN_SAMPLES[args.lang](args.max_len), args.max_states)
    print(f"lang={args.lang}\tmax_states={report.max_states}\tsearched={report.dfas_searched}")
    if isinstance(report.witness, DfaFound):
        dfa = report.witness.dfa
        print(f"dfa-found\tstates={len(dfa.states)}\taccepting={','.join(sorted(dfa.accepting))}")
        for q in dfa.states:
            row = " ".join(f"{sym}->{dfa.delta[(q, sym)]}" for sym in dfa.alphabet)
            print(f"delta\t{q}\t{row}")
    else:
        print("no-dfa-matches")
    return EXIT_OK


def cmd_bench(args) -> int:
    machine = corpus_machine("loop")
    started = time.perf_counter()
    outcome = run_bounded(machine, "", args.steps)
    elapsed = time.perf_counter() - started
    rate = outcome.steps / elapsed if elapsed > 0 else float("inf")
    print(f"steps={outcome.steps}\tseconds={elapsed:.3f}\trate={rate:.0f}")
    if rate < 1_000_000:
        print("WARNING: rate below 1000000 steps/s soft target", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypermachine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a machine document on an input word")
    p.add_argument("spec")
    p.add_argument("--input", default="")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--trace", help="write trace records to a file, or - for stdout")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("watch", help="sample a 3-tape machine's output while it runs")
    p.add_argument("spec")
    p.add_argument("--input", default="")
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("encode", help="print a machine's binary description")
    p.add_argument("spec")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="print the machine of a binary description")
    p.add_argument("description", nargs="?")
    p.add_argument("--bits")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("enumerate", help="list machine descriptions in canonical order")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("halts", help="limit-decide halting of a described machine")
    p.add_argument("description", nargs="?")
    p.add_argument("--bits")
    p.add_argument("--input", default="")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=cmd_halts)

    p = sub.add_parser("diagonal", help="anti-diagonal bit against a candidate decider")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--decider", required=True, help="budget:<steps> or certified:<steps>")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("audit", help="audit a candidate decider over enumerated machines")
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--decider", required=True)
    p.add_argument("--truth-budget", type=int, required=True)
    p.add_argument("--sim-budget", type=int)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("limit-eval", help="evaluate a built-in limit function")
    p.add_argument("--fn", required=True, choices=BUILTIN_LIMIT_FUNCTIONS)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.set_defaults(func=cmd_limit_eval)

    p = sub.add_parser("equiv", help="compare two machines on all short words")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--budget", type=int, default=1_000)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("separate", help="exhaustive DFA search against a built-in sample")
    p.add_argument("--lang", required=True, choices=sorted(BUILTIN_SAMPLES))
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("bench", help="measure engine speed on the loop machine")
    p.add_argument("--steps", type=int, default=10_000_000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypermachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
