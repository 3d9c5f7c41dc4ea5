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

# Each command imports the library modules that it runs, so a call loads only
# those.  This note is not in the docstring, which is the --help text.
from .machine import HypermachineError, ParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_PROVISIONAL = 3


class UsageError(HypermachineError):
    """A command line that names no input or gives an option a malformed value."""


def _path(value: str, name: str) -> Path:
    # Path('') is '.', a path the caller never gave
    if not value:
        raise UsageError(f"empty path '' given for {name}")
    return Path(value)


def _load_spec(path: str, name: str):
    from .dsl import parse_machine_spec

    return parse_machine_spec(_path(path, name).read_text())


def _load_description(args):
    from .codec import Description

    if args.bits is not None:
        return Description(args.bits)
    if args.description is not None:
        return Description(_path(args.description, "description").read_text().strip())
    raise UsageError("provide a description file or --bits")


def _outcome_fields(outcome) -> str:
    from .machine import BudgetExhausted, HaltedWithResult

    if isinstance(outcome, HaltedWithResult):
        return f"status=halted\tresult={outcome.result}\tsteps={outcome.steps}"
    if isinstance(outcome, BudgetExhausted):
        return f"status=budget-exhausted\tsteps={outcome.steps}"
    return f"status=halted-resultless\tsteps={outcome.steps}"


def cmd_run(args) -> int:
    from .machine import BudgetExhausted, Machine
    from .reflexive import ReflexiveMachine, reflexive_run

    doc = _load_spec(args.spec, "spec")
    machine = doc.machine
    if isinstance(machine, Machine):
        machine = ReflexiveMachine(machine, {})
    if args.trace is not None:
        from .trace import emit_trace, traced_run

        target = None if args.trace == "-" else _path(args.trace, "--trace")
        records, outcome, edit_log = traced_run(machine, args.input, args.budget)
        text = emit_trace(records)
        if target is None:
            sys.stdout.write(text)
        else:
            target.write_text(text)
    else:
        outcome, edit_log = reflexive_run(machine, args.input, args.budget)
    for at, action in edit_log.entries:
        print(f"edit\tstep={at}\taction={type(action).__name__}")
    print(_outcome_fields(outcome))
    return EXIT_PROVISIONAL if isinstance(outcome, BudgetExhausted) else EXIT_OK


def cmd_watch(args) -> int:
    from .inductive import Provisional
    from .machine import InputError, Machine
    from .trace import watch

    doc = _load_spec(args.spec, "spec")
    machine = doc.machine
    if not isinstance(machine, Machine):
        raise InputError("watch needs a plain 3-tape machine")
    lines, outcome = watch(machine, args.input, args.interval, args.budget)
    for line in lines:
        print(line)
    return EXIT_PROVISIONAL if isinstance(outcome.status, Provisional) else EXIT_OK


def cmd_encode(args) -> int:
    from .codec import encode
    from .machine import InputError, Machine

    doc = _load_spec(args.spec, "spec")
    if not isinstance(doc.machine, Machine):
        raise InputError("reflexive machines are not encodable")
    print(encode(doc.machine).bits)
    return EXIT_OK


def cmd_decode(args) -> int:
    from .codec import decode
    from .dsl import unparse

    machine = decode(_load_description(args))
    sys.stdout.write(unparse(machine))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .codec import enumerate_machines

    for description in enumerate_machines(args.count):
        print(description.bits)
    return EXIT_OK


def cmd_halts(args) -> int:
    from .inductive import Provisional, halting_limit_decider, summary_line

    outcome = halting_limit_decider(_load_description(args), args.input, args.budget)
    print(summary_line(outcome))
    return EXIT_PROVISIONAL if isinstance(outcome.status, Provisional) else EXIT_OK


def _decider(spec: str):
    from .inductive import budget_decider

    kind, _, value = spec.partition(":")
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if kind != "budget" or budget < 1:
        raise UsageError(f"bad decider spec {spec!r}: want budget:<steps>")
    return budget_decider(budget)


def cmd_diagonal(args) -> int:
    from .codec import index_word
    from .inductive import diagonalize

    word = index_word(args.index)
    bit = diagonalize(_decider(args.decider), word, args.budget)
    print(f"index={args.index}\tword={word}\tdiagonal={bit}")
    return EXIT_OK


def cmd_audit(args) -> int:
    from .inductive import audit_decider

    sim_budget = args.sim_budget if args.sim_budget is not None else args.truth_budget
    report = audit_decider(_decider(args.decider), args.machines, args.truth_budget, sim_budget)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_limit_eval(args) -> int:
    from .limits import builtin_limit_function, limit_eval

    fn = builtin_limit_function(args.fn)
    report = limit_eval(fn, args.x, args.stages, args.window)
    for stage, guess in report.guesses_log:
        print(f"stage={stage}\tguess={guess}")
    converged = "1" if report.converged_within_budget else "0"
    print(f"final={report.final_guess}\tchanges={report.changes}\tconverged={converged}")
    return EXIT_OK if report.converged_within_budget else EXIT_PROVISIONAL


def cmd_equiv(args) -> int:
    from .machine import EquivalentUpTo, InputError, Machine, observational_equiv

    m1 = _load_spec(args.spec1, "spec1").machine
    m2 = _load_spec(args.spec2, "spec2").machine
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
    from .machine import InputError
    from .subrec import _WORK_BOUND, BUILTIN_SAMPLES, DfaFound, separation_search

    # a sample of more words than the search's work bound costs more to build
    # than the search may spend, so it is refused before it is built; the
    # 2**(max_len + 1) - 1 words are counted no further than the first length
    # over the bound, so a huge --max-len builds no huge number
    longest = (_WORK_BOUND + 1).bit_length() - 2  # the longest words whose sample fits
    if args.max_len > longest:
        least = "" if args.max_len == longest + 1 else "at least "
        words = 2 ** (longest + 2) - 1
        raise InputError(f"--max-len {args.max_len} gives {least}{words} sample words, over the work bound {_WORK_BOUND}")
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
    from .corpus import corpus_machine
    from .machine import Run, _check_budget

    _check_budget(args.steps)
    run = Run(corpus_machine("ping_pong"), "")  # no sweep, so every step is stepped
    started = time.perf_counter()  # the engine alone, not the rule compilation
    run.advance(args.steps)
    elapsed = time.perf_counter() - started
    rate = run.steps / elapsed if elapsed > 0 else float("inf")
    print(f"steps={run.steps}\tseconds={elapsed:.3f}\trate={rate:.0f}")
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
    p.add_argument("--decider", required=True, help="budget:<steps>")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("audit", help="audit a candidate decider over enumerated machines")
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--decider", required=True)
    p.add_argument("--truth-budget", type=int, required=True)
    p.add_argument("--sim-budget", type=int)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("limit-eval", help="evaluate a built-in limit function")
    p.add_argument("--fn", required=True, choices=("constant", "oscillator", "halting", "divergence"))
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
    p.add_argument("--lang", required=True, choices=("anbn", "palindrome", "parity"))
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("bench", help="measure engine speed on the ping_pong machine")
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypermachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
