"""Trace records and the watch stream."""

import pytest

from hypermachine.corpus import corpus_machine
from hypermachine.inductive import CertifiedStable, Provisional
from hypermachine.machine import InputError
from hypermachine.trace import emit_trace, trace_run, watch

FLIP = corpus_machine("flip")


def test_flip_trace_is_byte_exact():
    text = emit_trace(trace_run(FLIP, "0", 10))
    assert text == "step=0\tstate=q0\thead=0\ttape=0\nstep=1\tstate=qf\thead=0\ttape=1\n"


def test_loop_trace_heads_advance():
    records = trace_run(corpus_machine("loop"), "", 3)
    assert [r.step for r in records] == [0, 1, 2, 3]
    assert [r.heads[0] for r in records] == [0, 1, 2, 3]
    assert all(r.tapes == ("",) for r in records)


def test_empty_stream_renders_empty():
    assert emit_trace([]) == ""


def test_trace_is_deterministic():
    one = emit_trace(trace_run(corpus_machine("eraser"), "0110", 100))
    two = emit_trace(trace_run(corpus_machine("eraser"), "0110", 100))
    assert one == two


def test_three_tape_trace_carries_output_field():
    records = trace_run(corpus_machine("halt3"), "", 100)
    final = records[-1].render()
    assert "head2=" in final and "tape3=" in final
    assert final.endswith("out=10")


def test_watch_samples_and_summarizes():
    lines, outcome = watch(corpus_machine("flicker"), "", 3, 100)
    assert lines[0] == "step=3\tout=0\tstatus=provisional"
    assert lines[1] == "step=6\tout=1\tstatus=provisional"
    assert lines[-1].startswith("summary\tsteps=7\tout=1\tlast_change=6\tstatus=certified-nonhalting:runaway")
    assert isinstance(outcome.status, CertifiedStable)


def test_watch_budget_below_interval_gives_only_the_summary():
    lines, _ = watch(corpus_machine("quiet_worker"), "", 100, 60)
    assert len(lines) == 1
    assert lines[0].startswith("summary\t")


def test_watch_provisional_run_samples_to_the_budget():
    lines, outcome = watch(corpus_machine("quiet_worker"), "", 100, 500)
    assert len(lines) == 6  # five snapshots plus the summary
    assert outcome.status == Provisional()
    assert [line.split("\t")[0] for line in lines[:-1]] == [f"step={k}" for k in range(100, 501, 100)]


def test_watch_validates_interval():
    with pytest.raises(InputError):
        watch(corpus_machine("flicker"), "", 0, 10)
