"""Trace records and the watch stream."""

import pytest

from hypermachine import machine as engine
from hypermachine.corpus import corpus_machine
from hypermachine.dsl import parse_machine_spec
from hypermachine.inductive import CertifiedStable, Provisional
from hypermachine.machine import InputError
from hypermachine.trace import emit_trace, trace_run, traced_run, watch

FLIP = corpus_machine("flip")


def test_flip_trace_is_byte_exact():
    text = emit_trace(trace_run(FLIP, "0", 10))
    assert text == "step=0\tstate=q0\thead=0\ttape=0\nstep=1\tstate=qf\thead=0\ttape=1\n"


def test_loop_trace_heads_advance():
    records = trace_run(corpus_machine("loop"), "", 3)
    assert [r.step for r in records] == [0, 1, 2, 3]
    assert [r.heads[0] for r in records] == [0, 1, 2, 3]
    assert all(r.tapes == ("",) for r in records)


def test_a_traced_run_advances_once_per_edit(monkeypatch):
    # the trace is taken by an observer that sees every step, so a run is
    # advanced once to its budget, and again only after each edit it fires
    calls = []
    advance = engine.Run.advance

    def counting_advance(self, budget):
        calls.append(budget)
        advance(self, budget)

    monkeypatch.setattr(engine.Run, "advance", counting_advance)
    assert len(trace_run(corpus_machine("ping_pong"), "", 1000)) == 1001
    assert len(calls) <= 2
    calls.clear()
    records, _, log = traced_run(corpus_machine("specializer"), "0" * 16, 1000)
    assert len(records) == 22 and log.entries
    assert len(calls) <= len(log.entries) + 2


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


def test_two_tape_trace_is_byte_exact():
    copier = parse_machine_spec(
        "machine copier\ntapes: 2\nstart: q0\nfinal: qf\n"
        "rule q0 0 _ -> q0 0 0 R R\nrule q0 1 _ -> q0 1 1 R R\nrule q0 _ _ -> qf _ _ S L\n"
    ).machine
    assert emit_trace(trace_run(copier, "01", 10)) == (
        "step=0\tstate=q0\thead=0\ttape=01\thead2=0\ttape2=\n"
        "step=1\tstate=q0\thead=1\ttape=01\thead2=1\ttape2=0\n"
        "step=2\tstate=q0\thead=2\ttape=01\thead2=2\ttape2=01\n"
        "step=3\tstate=qf\thead=2\ttape=01\thead2=1\ttape2=01\n"
    )


def test_three_tape_trace_is_byte_exact():
    assert emit_trace(trace_run(corpus_machine("halt3"), "", 100)) == (
        "step=0\tstate=h0\thead=0\ttape=\thead2=0\ttape2=\thead3=0\ttape3=\tout=\n"
        "step=1\tstate=h1\thead=0\ttape=\thead2=0\ttape2=\thead3=1\ttape3=1\tout=1\n"
        "step=2\tstate=h2\thead=0\ttape=\thead2=0\ttape2=\thead3=1\ttape3=10\tout=10\n"
        "step=3\tstate=h3\thead=0\ttape=\thead2=0\ttape2=\thead3=1\ttape3=10\tout=10\n"
        "step=4\tstate=hf\thead=0\ttape=\thead2=0\ttape2=\thead3=1\ttape3=10\tout=10\n"
    )


def test_a_record_reprs_its_fields():
    assert repr(trace_run(FLIP, "0", 10)[0]) == "TraceRecord(step=0, state='q0', heads=(0,), tapes=('0',))"


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
