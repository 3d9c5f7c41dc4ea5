"""Byte-stable trace records and the sample-while-running watch mode."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .machine import InputError, Machine, RunOutcome, _retrim, trimmed_word

if TYPE_CHECKING:  # inductive and reflexive are loaded by the calls that run them
    from .inductive import InductiveOutcome
    from .reflexive import EditLog, ReflexiveMachine


class TraceRecord(NamedTuple):
    step: int
    state: str
    heads: tuple[int, ...]
    tapes: tuple[str, ...]  # trimmed contents

    def render(self) -> str:
        step, state, heads, tapes = self
        line = f"step={step}\tstate={state}\thead={heads[0]}\ttape={tapes[0]}"
        if len(heads) == 1:
            return line
        for i in range(1, len(heads)):
            line += f"\thead{i + 1}={heads[i]}\ttape{i + 1}={tapes[i]}"
        return f"{line}\tout={tapes[2]}" if len(tapes) == 3 else line  # 3 tapes: an inductive run's output


def record_of(
    machine: Machine,
    state: str,
    tapes: Sequence[dict[int, str]],
    heads: Sequence[int],
    step: int,
) -> TraceRecord:
    """The record of one configuration, every tape trimmed again in full: the
    reference that the tests compare ``traced_run``'s incremental records
    against."""
    return TraceRecord(step, state, tuple(heads), tuple(trimmed_word(t, machine.blank) for t in tapes))


def traced_run(
    machine: Machine | ReflexiveMachine, input_word: str, budget: int
) -> tuple[list[TraceRecord], RunOutcome, EditLog]:
    """One record per visited configuration, the initial one included, with
    the run's outcome and edit log.  A plain machine runs as a reflexive one
    without edits, step for step the same.

    The run's observer builds each record, a named tuple, and keeps each
    tape's trimmed word, updated only at the cell its head left, the one
    cell the step wrote: a record costs the changed cells and its words."""
    from .reflexive import ReflexiveMachine, _run

    rm = machine if isinstance(machine, ReflexiveMachine) else ReflexiveMachine(machine, {})
    blank, n = rm.base.blank, rm.base.tape_count
    records: list[TraceRecord] = []
    if n == 1:
        word, lo, cell = input_word, 0, 0  # the last record's trimmed word, its leftmost cell and head

        def observe(state, tape, head, step, rule):
            nonlocal word, lo, cell
            word, lo = _retrim(word, lo, cell, tape.get(cell, blank), blank)
            cell = head
            records.append(TraceRecord(step, state, (head,), (word,)))

    else:
        words, los, cells = [input_word] + [""] * (n - 1), [0] * n, [0] * n  # as word, lo and cell, per tape

        def observe(state, tapes, heads, step, rule):
            for i, cell in enumerate(cells):
                words[i], los[i] = _retrim(words[i], los[i], cell, tapes[i].get(cell, blank), blank)
            cells[:] = heads
            records.append(TraceRecord(step, state, tuple(heads), tuple(words)))

    outcome, log = _run(rm, input_word, budget, observe)
    return records, outcome, log


def trace_run(machine: Machine | ReflexiveMachine, input_word: str, budget: int) -> list[TraceRecord]:
    """The records of ``traced_run``."""
    return traced_run(machine, input_word, budget)[0]


def emit_trace(records: list[TraceRecord]) -> str:
    """Each record's ``render`` on a line of its own; an empty stream renders
    as empty output."""
    return "".join([f"{record.render()}\n" for record in records])


def watch(machine: Machine, input_word: str, interval: int, budget: int) -> tuple[list[str], InductiveOutcome]:
    """Run inductively, reporting the output every ``interval`` steps.

    The run ends at halt, certificate, or budget; a summary line always
    follows the snapshots, and is the only line when the run ends before the
    first sampling point.
    """
    from .inductive import describe_status, inductive_run, summary_line

    if interval < 1:
        raise InputError("interval must be >= 1")
    outcome = inductive_run(machine, input_word, budget)
    entries = outcome.log.entries
    lines = []
    change = 0  # the last output change at or before the sample step
    for at in range(interval, outcome.steps_executed + 1, interval):
        while change + 1 < len(entries) and entries[change + 1][0] <= at:
            change += 1
        status = describe_status(outcome.status) if at == outcome.steps_executed else "provisional"
        lines.append(f"step={at}\tout={entries[change][1]}\tstatus={status}")
    lines.append(summary_line(outcome))
    return lines, outcome
