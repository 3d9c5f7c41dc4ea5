"""Machines that edit their own rule table while running.

Edits are declared up front, attached to rules of the base machine: when the
rule for (state, symbols) fires, its attached action installs or replaces one
rule in the live table, after the write/move/state-change of the same step.
Everything an action may do is validated at construction time, so runs never
fail mid-flight and the table remains a deterministic partial function after
every edit.  Each run owns a private copy of the table; the machine itself is
immutable and shareable.

An edit fires through that private table: its rule enters a pause, a state
with no row, so the engine stops right after the rule fires; the run restores
the real next state, patches in the edit's target and logs the edit.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    run_bounded,
)


@dataclass(frozen=True)
class InstallRule:
    """Add a rule for a pair that has none in the base table."""

    target_state: str
    target_symbols: Symbols
    next_state: str
    writes: Symbols
    moves: Symbols


@dataclass(frozen=True)
class ReplaceRule:
    """Overwrite the rule of a pair that already has one."""

    target_state: str
    target_symbols: Symbols
    next_state: str
    writes: Symbols
    moves: Symbols


EditAction = InstallRule | ReplaceRule


@dataclass(frozen=True)
class EditLog:
    entries: tuple[tuple[int, EditAction], ...]


@dataclass(frozen=True)
class ReflexiveMachine:
    base: Machine
    edits: Mapping[RuleKey, EditAction]

    def __post_init__(self) -> None:
        base = self.base
        install_targets = {
            (a.target_state, a.target_symbols)
            for a in self.edits.values()
            if isinstance(a, InstallRule)
        }
        for key, action in self.edits.items():
            if key not in base.rules:
                raise StructureError(f"edit attached to nonexistent rule {key!r}", key)
            target, body = _action_rule(action)
            _check_rules(base, {target: body}, key)
            if isinstance(action, InstallRule) and target in base.rules:
                raise StructureError(f"install edit targets existing rule {target!r}", key)
            if isinstance(action, ReplaceRule) and target not in base.rules and target not in install_targets:
                raise StructureError(f"replace edit targets missing rule {target!r}", key)


def _action_rule(action: EditAction) -> tuple[RuleKey, RuleBody]:
    return (
        (action.target_state, action.target_symbols),
        (action.next_state, action.writes, action.moves),
    )


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
    rm: ReflexiveMachine, input_word: str, budget: int, visit: Callable[[Run], None] | None = None
) -> tuple[RunOutcome, EditLog]:
    """The bounded self-editing run; ``visit(run)``, when given, is called at
    every visited configuration, the initial one included."""
    _check_budget(budget)
    run = Run(rm.base, input_word)
    for key in rm.edits:
        run.patch(key, _paused(rm, key, rm.base.rules[key]))
    log: list[tuple[int, EditAction]] = []
    if visit is not None:
        visit(run)
    while run.steps < budget and not run.halted:
        run.advance(budget if visit is None else run.steps + 1)
        pause = run.state
        if type(pause) is _Pause:
            # the rule that fired last carries an edit: restore its next state,
            # patch in the target (paused again if it carries an edit) and log
            run.state = pause.next_state
            run.halted = False
            target, body = _action_rule(pause.action)
            run.patch(target, _paused(rm, target, body))
            log.append((run.steps, pause.action))
        if visit is not None and not run.halted:
            visit(run)
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
    _, log = _run(rm, input_word, budget, lambda run: record.append(run.snapshot()))
    return record, log


@dataclass(frozen=True)
class EfficiencyRow:
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
