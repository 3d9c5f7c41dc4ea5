"""Byte-stable trace records and the sample-while-running watch mode."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .inductive import (
    BlankRunaway,
    CertifiedStable,
    ConfigurationCycle,
    Halted,
    InductiveOutcome,
    Provisional,
    inductive_run,
)
from .machine import InputError, Machine, Run, RunOutcome, _retrim, trimmed_word
from .reflexive import EditLog, ReflexiveMachine, _run


@dataclass(frozen=True)
class TraceRecord:
    step: int
    state: str
    heads: tuple[int, ...]
    tapes: tuple[str, ...]  # trimmed contents

    def render(self) -> str:
        parts = [f"step={self.step}", f"state={self.state}", f"head={self.heads[0]}", f"tape={self.tapes[0]}"]
        for i in range(1, len(self.heads)):
            parts.append(f"head{i + 1}={self.heads[i]}")
            parts.append(f"tape{i + 1}={self.tapes[i]}")
        if len(self.tapes) == 3:  # an inductive run's output tape
            parts.append(f"out={self.tapes[2]}")
        return "\t".join(parts)


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

    Each tape's trimmed word is kept from step to step and updated only at
    the cell its head left, the one cell the step wrote, so a record costs
    the changed cells plus a copy of its words."""
    rm = machine if isinstance(machine, ReflexiveMachine) else ReflexiveMachine(machine, {})
    base = rm.base
    blank = base.blank
    records: list[TraceRecord] = []
    words = [input_word] + [""] * (base.tape_count - 1)  # the initial tapes, trimmed
    los = [0] * base.tape_count
    written: tuple[int, ...] = ()  # the head cells of the last record

    def visit(run: Run) -> None:
        nonlocal written
        for i, cell in enumerate(written):
            words[i], los[i] = _retrim(words[i], los[i], cell, run.tapes[i].get(cell, blank), blank)
        written = tuple(run.heads)
        records.append(TraceRecord(run.steps, run.state, written, tuple(words)))

    outcome, log = _run(rm, input_word, budget, visit)
    return records, outcome, log


def trace_run(machine: Machine | ReflexiveMachine, input_word: str, budget: int) -> list[TraceRecord]:
    """The records of ``traced_run``."""
    return traced_run(machine, input_word, budget)[0]


def emit_trace(records: list[TraceRecord]) -> str:
    """Line-oriented rendering; an empty stream renders as empty output."""
    return "".join(record.render() + "\n" for record in records)


def describe_status(status: CertifiedStable | Provisional) -> str:
    if isinstance(status, Provisional):
        return "provisional"
    reason = status.reason
    if isinstance(reason, Halted):
        return "certified-halted"
    if isinstance(reason, ConfigurationCycle):
        return f"certified-nonhalting:cycle(period={reason.period},first_repeat={reason.first_repeat_step})"
    if isinstance(reason, BlankRunaway):
        direction = "".join(reason.direction)
        return f"certified-nonhalting:runaway(state={reason.state},direction={direction},onset={reason.onset_step})"
    raise AssertionError(f"unknown status {status!r}")


def summary_line(outcome: InductiveOutcome) -> str:
    return (
        f"summary\tsteps={outcome.steps_executed}\tout={outcome.current_output}"
        f"\tlast_change={outcome.last_change_step}\tstatus={describe_status(outcome.status)}"
    )


def watch(machine: Machine, input_word: str, interval: int, budget: int) -> tuple[list[str], InductiveOutcome]:
    """Run inductively, reporting the output every ``interval`` steps.

    The run ends at halt, certificate, or budget; a summary line always
    follows the snapshots, and is the only line when the run ends before the
    first sampling point.
    """
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
