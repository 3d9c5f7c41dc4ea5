"""Functions computed in the limit of a total guessing procedure.

A limit function carries a total guess g(x, t); its value at x is whatever
the guesses settle on as the stage t grows.  Convergence can never be
certified at a finite stage, so reports only state whether the trailing
``quiescence_window`` guesses were identical - an observation, not a limit
claim.  Guesses are words, sharing the comparison and logging conventions of
output tapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .codec import Description, decode, index_word, nth_description
from .machine import HypermachineError, InputError, Run


class GuessEvaluationError(HypermachineError):
    """A guess procedure failed; names the offending (x, stage) pair."""

    def __init__(self, name: str, x: int, stage: int):
        super().__init__(f"guess procedure {name!r} failed at x={x}, stage={stage}")
        self.x = x
        self.stage = stage


@dataclass(frozen=True)
class LimitFunction:
    name: str
    guess: Callable[[int, int], str] = field(compare=False)
    hierarchy_tag: str = "none"  # descriptive metadata, never verified


@dataclass(frozen=True)
class LimitReport:
    x: int
    stages_evaluated: int
    guesses_log: tuple[tuple[int, str], ...]
    final_guess: str
    changes: int
    converged_within_budget: bool


def limit_eval(f: LimitFunction, x: int, stage_budget: int, quiescence_window: int) -> LimitReport:
    """Evaluate g(x, t) for t = 0..stage_budget and report the change points.

    converged_within_budget holds exactly when the last quiescence_window
    guesses are identical.
    """
    if quiescence_window < 1:
        raise InputError("quiescence_window must be >= 1")
    if stage_budget < quiescence_window:
        raise InputError("stage_budget must be at least quiescence_window")
    log: list[tuple[int, str]] = []
    last: str | None = None
    for t in range(stage_budget + 1):
        try:
            g = f.guess(x, t)
        except HypermachineError:
            raise
        except Exception as exc:
            raise GuessEvaluationError(f.name, x, t) from exc
        if g != last:
            log.append((t, g))
            last = g
    return LimitReport(
        x=x,
        stages_evaluated=stage_budget + 1,
        guesses_log=tuple(log),
        final_guess=log[-1][1],
        changes=len(log) - 1,
        converged_within_budget=log[-1][0] <= stage_budget - quiescence_window + 1,
    )


def _halting_guess(run_of: Callable[[int], Run], halting: bool) -> Callable[[int, int], str]:
    """Guess 1 at (x, t) when the run ``run_of(x)`` has halted within t+1
    steps, or when it has not, if ``halting`` is false.

    The guess changes at most once as t grows, so its limit is 1 exactly on
    the halting (or, if not ``halting``, the diverging) x.  One run per x
    backs all its stages, so a full stage sweep costs one bounded run, not
    one per stage.
    """
    runs: dict[int, Run] = {}

    def guess(x: int, stage: int) -> str:
        run = runs.get(x)
        if run is None:
            run = runs[x] = run_of(x)
        return "1" if run.halted_by(stage + 1) == halting else "0"

    return guess


def halting_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Guess 1 as soon as the described machine has halted within t+1 steps,
    whatever x; changes 0 -> 1 at most once."""
    run = Run(decode(description), input_word)
    return LimitFunction("halting", _halting_guess(lambda _x: run, True), "Σ1")


def divergence_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Pointwise complement of halting_as_limit; changes 1 -> 0 at most once."""
    run = Run(decode(description), input_word)
    return LimitFunction("divergence", _halting_guess(lambda _x: run, False), "Π1")


def _indexed_run(x: int) -> Run:
    """The x-th enumerated machine run on the x-th word."""
    return Run(decode(nth_description(x)), index_word(x))


_BUILTINS: dict[str, Callable[[], LimitFunction]] = {
    "constant": lambda: LimitFunction("constant", lambda x, t: "1"),
    "oscillator": lambda: LimitFunction("oscillator", lambda x, t: str(t % 2)),
    "halting": lambda: LimitFunction("halting", _halting_guess(_indexed_run, True), "Σ1"),
    "divergence": lambda: LimitFunction("divergence", _halting_guess(_indexed_run, False), "Π1"),
}

BUILTIN_LIMIT_FUNCTIONS = tuple(_BUILTINS)


def builtin_limit_function(name: str) -> LimitFunction:
    """Registry for the CLI: constant, oscillator, halting, divergence.

    The halting/divergence entries take x to the halting behaviour of the
    x-th enumerated machine on the x-th word.
    """
    make = _BUILTINS.get(name)
    if make is None:
        raise InputError(f"unknown limit function {name!r}")
    return make()
