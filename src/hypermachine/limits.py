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
from .machine import HaltProbe, HypermachineError, InputError


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


def halting_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Guess 1 as soon as the described machine has halted within t+1 steps.

    The guess is monotone (it changes 0 -> 1 at most once), so its limit is 1
    exactly on halting pairs.  A persistent simulation backs all stages, so a
    full stage sweep costs one bounded run, not one per stage.
    """
    probe = HaltProbe(decode(description), input_word)

    def guess(_x: int, stage: int) -> str:
        return "1" if probe.halted_by(stage + 1) else "0"

    return LimitFunction(name="halting", guess=guess, hierarchy_tag="Σ1")


def divergence_as_limit(description: Description, input_word: str) -> LimitFunction:
    """Pointwise complement of halting_as_limit; changes 1 -> 0 at most once."""
    probe = HaltProbe(decode(description), input_word)

    def guess(_x: int, stage: int) -> str:
        return "0" if probe.halted_by(stage + 1) else "1"

    return LimitFunction(name="divergence", guess=guess, hierarchy_tag="Π1")


def _indexed_probe_guess(halting: bool) -> Callable[[int, int], str]:
    """Guess for the x-indexed built-ins: x names the x-th enumerated machine
    run on the x-th word."""
    probes: dict[int, HaltProbe] = {}

    def guess(x: int, stage: int) -> str:
        probe = probes.get(x)
        if probe is None:
            probe = HaltProbe(decode(nth_description(x)), index_word(x))
            probes[x] = probe
        halted = probe.halted_by(stage + 1)
        return "1" if halted == halting else "0"

    return guess


def builtin_limit_function(name: str) -> LimitFunction:
    """Registry for the CLI: constant, oscillator, halting, divergence.

    The halting/divergence entries take x to the halting behaviour of the
    x-th enumerated machine on the x-th word.
    """
    if name == "constant":
        return LimitFunction("constant", lambda x, t: "1")
    if name == "oscillator":
        return LimitFunction("oscillator", lambda x, t: str(t % 2))
    if name == "halting":
        return LimitFunction("halting", _indexed_probe_guess(True), "Σ1")
    if name == "divergence":
        return LimitFunction("divergence", _indexed_probe_guess(False), "Π1")
    raise InputError(f"unknown limit function {name!r}")


BUILTIN_LIMIT_FUNCTIONS = ("constant", "oscillator", "halting", "divergence")
