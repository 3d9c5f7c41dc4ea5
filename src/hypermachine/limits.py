"""Functions computed in the limit of a total guessing procedure.

A limit function carries a total guess g(x, t); its value at x is whatever
the guesses settle on as the stage t grows.  Convergence can never be
certified at a finite stage, so reports only state whether the trailing
``quiescence_window`` guesses were identical - an observation, not a limit
claim.  Guesses are words, sharing the comparison and logging conventions of
output tapes.

A limit function also names the next stage at which its guess may change
(``next_change``), and ``limit_eval`` calls the guess only at stage 0 and at
those stages.  By default that is every stage; the constant guess never
changes, and the halting and divergence guesses change at most once, at the
step where their run halts, so their reports cost O(changes) guess calls
whatever the stage budget.  Both read the halting log of the run that
``inductive`` observes, the log that ``halts`` prints; a non-halting
certificate stops that run, so a certified non-halter answers at once, and
only an uncertified one costs the steps up to the stage budget.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .codec import Description, decode, index_word, nth_description
from .machine import HypermachineError, InputError, _Record

_HaltingLog = Callable[[int], tuple[tuple[int, str], ...]]  # a run's halting log, by the budget it is advanced to


class GuessEvaluationError(HypermachineError):
    """A guess procedure failed; names the offending (x, stage) pair."""

    def __init__(self, name: str, x: int, stage: int):
        super().__init__(f"guess procedure {name!r} failed at x={x}, stage={stage}")
        self.x = x
        self.stage = stage


def _every_stage(x: int, t: int, horizon: int) -> int | None:
    """The change-point rule of an opaque guess: any stage may change it."""
    return t + 1 if t < horizon else None


class LimitFunction(_Record):
    """A total guess g(x, t) with a change-point rule.

    ``next_change(x, t, horizon)`` is the least stage in (t, horizon] at
    which ``guess(x, ·)`` may differ from ``guess(x, t)``, or ``None`` when
    the guess equals ``guess(x, t)`` all the way to ``horizon``.  Two limit
    functions are equal only when they share their name, their guess and
    their change-point function.
    """

    name: str
    guess: Callable[[int, int], str]
    next_change: Callable[[int, int, int], int | None] = _every_stage


class LimitReport(_Record):
    """The change points of one limit function's guesses at one x, up to a stage budget."""

    x: int
    stages_evaluated: int  # the stages 0..stage_budget the report covers, not the guess calls
    guesses_log: tuple[tuple[int, str], ...]
    final_guess: str
    changes: int
    converged_within_budget: bool


def limit_eval(f: LimitFunction, x: int, stage_budget: int, quiescence_window: int) -> LimitReport:
    """Report the change points of g(x, t) for t = 0..stage_budget.

    The guess is called at stage 0 and then only at the stages that
    ``f.next_change`` names, so the report equals one built from every
    stage.  converged_within_budget holds exactly when the last
    quiescence_window guesses are identical.
    """
    if x < 0:
        raise InputError("x must be >= 0")
    if quiescence_window < 1:
        raise InputError("quiescence_window must be >= 1")
    if stage_budget < quiescence_window:
        raise InputError("stage_budget must be at least quiescence_window")
    log: list[tuple[int, str]] = []
    last: str | None = None
    t: int | None = 0
    while t is not None:
        try:
            g = f.guess(x, t)
            after = f.next_change(x, t, stage_budget)
        except HypermachineError:
            raise
        except Exception as exc:
            raise GuessEvaluationError(f.name, x, t) from exc
        if after is not None and not t < after <= stage_budget:
            raise GuessEvaluationError(f.name, x, t)  # the rule does not move forward within the budget
        if g != last:
            log.append((t, g))
            last = g
        t = after
    return LimitReport(
        x=x,
        stages_evaluated=stage_budget + 1,
        guesses_log=tuple(log),
        final_guess=log[-1][1],
        changes=len(log) - 1,
        converged_within_budget=log[-1][0] <= stage_budget - quiescence_window + 1,
    )


def _halting(log_at: Callable[[int], _HaltingLog]) -> LimitFunction:
    """Guess 1 at (x, t) once the observed run of x has halted within t+1
    steps: the last entry at or before t of the run's halting log, which
    ``halts`` prints, whose next entry is the next change.

    ``log_at`` reads one observed run per x, which backs all its stages, so
    a full stage sweep costs one advance to the last stage, with guess calls
    only at stage 0 and at the change.  A non-halting certificate stops the
    run, as it proves that no halt follows, so the guess is final there.
    """

    def guess(x: int, t: int) -> str:
        for s, g in reversed(log_at(x)(t + 1)):
            if s <= t:
                return g

    def next_change(x: int, t: int, horizon: int) -> int | None:
        for s, _ in log_at(x)(horizon + 1):
            if t < s <= horizon:
                return s
        return None

    return LimitFunction("halting", guess, next_change)


def _divergence(halting: LimitFunction) -> LimitFunction:
    """The pointwise complement of ``halting``, with its change points."""
    return LimitFunction("divergence", lambda x, t: "1" if halting.guess(x, t) == "0" else "0", halting.next_change)


def halting_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Guess 1 as soon as the described machine has halted within t+1 steps,
    whatever x; changes 0 -> 1 at most once."""
    log = _observed(description, input_word)
    return _halting(lambda _x: log)


def divergence_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Pointwise complement of halting_as_limit; changes 1 -> 0 at most once."""
    return _divergence(halting_as_limit(description, input_word))


def _observed(description: Description, input_word: str) -> _HaltingLog:
    """The halting log, by budget, of a run that ``inductive`` observes.

    Imported here, so that the constant and oscillator functions do not
    load ``inductive``.
    """
    from .inductive import _halting_log

    return _halting_log(decode(description), input_word)


def _indexed_log(x: int) -> _HaltingLog:
    """The halting log of the x-th enumerated machine on the x-th word."""
    return _observed(nth_description(x), index_word(x))


_BUILTINS: dict[str, Callable[[], LimitFunction]] = {
    "constant": lambda: LimitFunction("constant", lambda x, t: "1", next_change=lambda x, t, horizon: None),
    "oscillator": lambda: LimitFunction("oscillator", lambda x, t: str(t % 2)),
    # limit_eval asks about one x at a time, so each function keeps one run
    "halting": lambda: _halting(lru_cache(maxsize=1)(_indexed_log)),
    "divergence": lambda: _divergence(_halting(lru_cache(maxsize=1)(_indexed_log))),
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
