"""Machines that edit their own rule table while running.

Edits are declared up front, attached to rules of the base machine: when the
rule for (state, symbols) fires, its attached action installs or replaces one
rule in the live table, after the write/move/state-change of the same step.
Everything an action may do is validated at construction time, so runs never
fail mid-flight and the table remains a deterministic partial function after
every edit.  Each run owns a private copy of the table; the machine's own
tables, edits included, are read-only, since the machine may be shared.

An edit fires through that private table: its rule enters a pause, a state
with no row, so the engine stops right after the rule fires; the run restores
the real next state, patches in the edit's target, logs it and advances again.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .machine import (
    Configuration,
    HaltedWithResult,
    InputError,
    Machine,
    RuleBody,
    RuleKey,
    Run,
    RunOutcome,
    StructureError,
    Symbols,
    _check_budget,
    _check_rules,
    _Record,
    run_bounded,
)


class EditAction(_Record):
    """The rule that an edit puts in the live table; an edit is one of the
    two kinds below, which compare unequal even on equal fields."""

    target_state: str
    target_symbols: Symbols
    next_state: str
    writes: Symbols
    moves: Symbols

    @property
    def rule(self) -> tuple[RuleKey, RuleBody]:
        return (self.target_state, self.target_symbols), (self.next_state, self.writes, self.moves)


class InstallRule(EditAction):
    """Add a rule for a pair that has none in the base table."""


class ReplaceRule(EditAction):
    """Overwrite the rule of a pair that already has one."""


class EditLog(_Record):
    """The edits a self-editing run fired, each with the step it fired at."""

    entries: tuple[tuple[int, EditAction], ...]


class ReflexiveMachine(_Record):
    """A base machine with edits attached to some of its rules."""

    base: Machine
    edits: Mapping[RuleKey, EditAction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edits", MappingProxyType(dict(self.edits)))
        base = self.base
        install_targets = {a.rule[0] for a in self.edits.values() if isinstance(a, InstallRule)}
        for key, action in self.edits.items():
            if key not in base.rules:
                raise StructureError(f"edit attached to nonexistent rule {key!r}", key)
            target, body = action.rule
            _check_rules(base, {target: body}, key)
            if isinstance(action, InstallRule) and target in base.rules:
                raise StructureError(f"install edit targets existing rule {target!r}", key)
            if isinstance(action, ReplaceRule) and target not in base.rules and target not in install_targets:
                raise StructureError(f"replace edit targets missing rule {target!r}", key)


class _Pause(NamedTuple):
    """The next state, in a run's table, of a rule that carries an edit: a
    pause has no row, so the run stops right after the rule fires."""

    next_state: str
    action: EditAction


def _paused(rm: ReflexiveMachine, key: RuleKey, body: RuleBody) -> RuleBody:
    """``body`` for the rule at ``key``, entering a pause if that rule carries an edit."""
    nstate, writes, moves = body
    return (_Pause(nstate, rm.edits[key]) if key in rm.edits else nstate), writes, moves


def _run(
    rm: ReflexiveMachine, input_word: str, budget: int, observe: Callable[..., None] | None = None
) -> tuple[RunOutcome, EditLog]:
    """The bounded self-editing run, advanced once and again after each edit.
    ``observe``, when given, is a traced run's hook (see ``Run``), also called
    with the last configuration, and the rule None, once the run stops."""
    _check_budget(budget)
    run = Run(rm.base, input_word, observe)
    run._traced = observe is not None
    for key in rm.edits:
        run.patch(key, _paused(rm, key, rm.base.rules[key]))
    log: list[tuple[int, EditAction]] = []
    while run.steps < budget and not run.halted:
        run.advance(budget)
        pause = run.state
        if type(pause) is _Pause:
            # the rule that fired last carries an edit: restore its next state,
            # patch in the target (paused again if it carries an edit) and log
            run.state = pause.next_state
            run.halted = False
            target, body = pause.action.rule
            run.patch(target, _paused(rm, target, body))
            log.append((run.steps, pause.action))
    if observe is not None:
        one = len(run.heads) == 1
        observe(run.state, run.tapes[0] if one else run.tapes, run.heads[0] if one else run.heads, run.steps, None)
    return run.outcome(), EditLog(tuple(log))


def reflexive_run(rm: ReflexiveMachine, input_word: str, budget: int) -> tuple[RunOutcome, EditLog]:
    """Bounded run applying attached edits to a private copy of the table.

    With an empty edit map this is step-for-step identical to running the
    base machine.
    """
    return _run(rm, input_word, budget)


def reflexive_config_sequence(
    rm: ReflexiveMachine, input_word: str, budget: int
) -> tuple[list[Configuration], EditLog]:
    """The visited configurations (initial one included) plus the edit log."""
    record: list[Configuration] = []

    def observe(state, tapes, heads, step, rule):
        if type(tapes) is dict:  # a hook on one tape is given the tape and the head
            tapes, heads = (tapes,), (heads,)
        record.append(Configuration(state, tuple(map(dict, tapes)), tuple(heads), step))

    _, log = _run(rm, input_word, budget, observe)
    return record, log


class EfficiencyRow(_Record):
    """One input's step counts under the plain and the self-editing machine."""

    word: str
    static_steps: int
    reflexive_steps: int
    same_result: bool


def compare_efficiency(
    static_m: Machine, rm: ReflexiveMachine, inputs: list[str], budget: int
) -> tuple[EfficiencyRow, ...]:
    """Step counts of a plain machine against a self-editing one, input by
    input; same_result compares result words only."""
    if set(static_m.input_alphabet) != set(rm.base.input_alphabet):
        raise InputError("machines do not share an input alphabet")
    rows = []
    for word in inputs:
        static_outcome = run_bounded(static_m, word, budget)
        reflexive_outcome, _ = reflexive_run(rm, word, budget)
        rows.append(
            EfficiencyRow(
                word=word,
                static_steps=static_outcome.steps,
                reflexive_steps=reflexive_outcome.steps,
                same_result=_result_word(static_outcome) == _result_word(reflexive_outcome),
            )
        )
    return tuple(rows)


def _result_word(outcome: RunOutcome) -> str | None:
    return outcome.result if isinstance(outcome, HaltedWithResult) else None
