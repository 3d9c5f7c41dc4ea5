"""Self-editing machines: bisimulation with the base, the specializer pair,
the efficiency harness, and the step reference for runs that fire edits."""

import dataclasses
import itertools
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermachine.corpus import CORPUS_SPECS, corpus_machine, encodable_corpus
from hypermachine.dsl import parse_machine_spec
from hypermachine.machine import (
    BudgetExhausted,
    HaltedResultless,
    HaltedWithResult,
    InputError,
    Machine,
    NextConfig,
    StructureError,
    config_sequence,
    initial_configuration,
    result_tape_index,
    run_bounded,
    single_tape_machine,
    step,
    trimmed_word,
    words_over,
)
from hypermachine.reflexive import (
    EditLog,
    InstallRule,
    ReflexiveMachine,
    ReplaceRule,
    compare_efficiency,
    reflexive_config_sequence,
    reflexive_run,
)
from hypermachine.trace import record_of, trace_run

INTERP = corpus_machine("interp")
SPECIALIZER = corpus_machine("specializer")
SELF_REPLACING = parse_machine_spec(
    """
machine self-replacing
start: a
rule a _ -> a 1 R ! replace(a, _ -> a, 0, R)
"""
).machine


def test_no_edit_wrapper_is_bisimilar_to_its_base():
    for name, machine in encodable_corpus().items():
        wrapper = ReflexiveMachine(machine, {})
        for word in ("", "0", "01", "0011"):
            plain = config_sequence(machine, word, 60)
            mirrored, log = reflexive_config_sequence(wrapper, word, 60)
            assert mirrored == plain, (name, word)
            assert log == EditLog(())


def test_no_edit_outcomes_match_run_bounded():
    machine = corpus_machine("eraser")
    wrapper = ReflexiveMachine(machine, {})
    for word in words_over(("0", "1"), 4):
        outcome, _ = reflexive_run(wrapper, word, 200)
        assert outcome == run_bounded(machine, word, 200), word


def test_specializer_golden_step_counts():
    rows = compare_efficiency(INTERP, SPECIALIZER, ["0" * 4, "0" * 8, "0" * 16], 10_000)
    assert [(r.static_steps, r.reflexive_steps) for r in rows] == [(21, 9), (41, 13), (81, 21)]
    assert all(r.same_result for r in rows)
    assert all(r.reflexive_steps < r.static_steps for r in rows)
    gaps = [r.static_steps - r.reflexive_steps for r in rows]
    assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps)


def test_specializer_result_and_edit_log():
    outcome, log = reflexive_run(SPECIALIZER, "0" * 8, 1000)
    assert outcome == HaltedWithResult("1" * 8, 13)
    assert len(log.entries) == 1
    at, action = log.entries[0]
    assert at == 5
    assert isinstance(action, ReplaceRule)
    assert action.target_state == "scan"
    assert action.next_state == "scan"


def test_edit_fires_every_time_its_rule_fires():
    # the specializer's edit rule fires only once: afterwards the replaced
    # dispatch rule short-circuits it
    _, log = reflexive_run(SPECIALIZER, "0" * 16, 1000)
    assert len(log.entries) == 1
    # a rule that replaces itself still carries its edit
    _, log = reflexive_run(SELF_REPLACING, "", 3)
    assert [at for at, _ in log.entries] == [1, 2, 3]


def test_power_parity_with_the_static_machine():
    # same results on every short word, echoing equality of computing power
    for word in words_over(("0", "1"), 6):
        static = run_bounded(INTERP, word, 2000)
        dynamic, _ = reflexive_run(SPECIALIZER, word, 2000)
        assert type(static) is type(dynamic), word
        if isinstance(static, HaltedWithResult):
            assert static.result == dynamic.result, word


def test_compare_efficiency_degenerate_and_empty():
    machine = corpus_machine("flip")
    wrapper = ReflexiveMachine(machine, {})
    rows = compare_efficiency(machine, wrapper, ["0", "1", ""], 100)
    assert all(r.static_steps == r.reflexive_steps and r.same_result for r in rows)
    assert compare_efficiency(machine, wrapper, [], 100) == ()


def test_compare_efficiency_requires_shared_alphabet():
    zeros = single_tape_machine("z", {("q0", "0"): ("q0", "0", "R")}, alphabet=("0",))
    with pytest.raises(InputError):
        compare_efficiency(zeros, ReflexiveMachine(corpus_machine("flip"), {}), ["0"], 10)


def test_budget_exhaustion_carries_through():
    looper = corpus_machine("loop")
    outcome, _ = reflexive_run(ReflexiveMachine(looper, {}), "", 25)
    assert isinstance(outcome, BudgetExhausted)
    assert outcome.steps == 25


# --- construction-time validation -------------------------------------------


def _base():
    return single_tape_machine(
        "base",
        {("q0", "0"): ("q1", "0", "R"), ("q1", "0"): ("q0", "0", "L")},
    )


def test_install_must_target_a_ruleless_pair():
    base = _base()
    with pytest.raises(StructureError):
        ReflexiveMachine(
            base,
            {("q0", ("0",)): InstallRule("q1", ("0",), "q1", ("0",), ("R",))},
        )


def test_replace_must_target_an_existing_rule():
    base = _base()
    with pytest.raises(StructureError):
        ReflexiveMachine(
            base,
            {("q0", ("0",)): ReplaceRule("q1", ("1",), "q1", ("0",), ("R",))},
        )


def test_replace_may_target_an_installed_rule():
    base = _base()
    machine = ReflexiveMachine(
        base,
        {
            ("q0", ("0",)): InstallRule("q0", ("1",), "q0", ("1",), ("R",)),
            ("q1", ("0",)): ReplaceRule("q0", ("1",), "q1", ("1",), ("R",)),
        },
    )
    assert len(machine.edits) == 2


def test_edit_references_must_be_declared():
    base = _base()
    with pytest.raises(StructureError):
        ReflexiveMachine(base, {("q0", ("0",)): InstallRule("zz", ("0",), "q0", ("0",), ("R",))})
    with pytest.raises(StructureError):
        ReflexiveMachine(base, {("q0", ("0",)): InstallRule("q0", ("7",), "q0", ("0",), ("R",))})
    with pytest.raises(StructureError):
        ReflexiveMachine(base, {("q9", ("0",)): InstallRule("q0", ("1",), "q0", ("0",), ("R",))})


def test_edit_arity_must_match_the_tape_count():
    base = _base()
    with pytest.raises(StructureError):
        ReflexiveMachine(
            base,
            {("q0", ("0",)): InstallRule("q0", ("1", "1"), "q0", ("0", "0"), ("R", "R"))},
        )


def test_install_semantics_extend_the_live_table():
    # base halts on 1; the edit installs a rule for it after the first step
    base = single_tape_machine(
        "grow",
        {("q0", "0"): ("q1", "0", "R"), ("q1", "1"): ("q1", "1", "R")},
        finals={"qf": True},
        extra_states=("qf",),
    )
    machine = ReflexiveMachine(
        base,
        {("q0", ("0",)): InstallRule("q1", ("0",), "qf", ("0",), ("S",))},
    )
    # without the edit the base gets stuck on the second 0
    assert run_bounded(base, "00", 100).steps == 1
    outcome, log = reflexive_run(machine, "00", 100)
    assert outcome == HaltedWithResult("00", 2)
    assert [at for at, _ in log.entries] == [1]


# --- the step reference -----------------------------------------------------


def _reference_run(rm, word, budget):
    """The visited configurations and the edit log by ``step`` over a live copy
    of the rules: after each rule that carries an edit fires, the edit's
    target body is installed and ``(step, action)`` logged."""
    base = rm.base
    live = dict(base.rules)
    config = initial_configuration(base, word)
    seq = [config]
    log = []
    while config.step < budget:
        key = (config.state, tuple(t.get(h, base.blank) for t, h in zip(config.tapes, config.heads)))
        nxt = step(dataclasses.replace(base, rules=live), config)
        if not isinstance(nxt, NextConfig):
            break
        config = nxt.config
        seq.append(config)
        if key in rm.edits:
            action = rm.edits[key]
            live[(action.target_state, action.target_symbols)] = (action.next_state, action.writes, action.moves)
            log.append((config.step, action))
    return seq, EditLog(tuple(log))


def _reference_outcome(machine, seq, budget):
    last = seq[-1]
    if last.step == budget:
        return BudgetExhausted(budget, last)
    if machine.finals.get(last.state):
        return HaltedWithResult(trimmed_word(last.tapes[result_tape_index(machine)]), last.step)
    return HaltedResultless(last.step)


_SYMS = ("_", "0", "1")


@st.composite
def edited_machines(draw):
    """A machine with 1 or 3 tapes and up to 4 install or replace edits; a draw
    the constructor rejects keeps the machine without edits."""
    tapes = draw(st.sampled_from((1, 3)))
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    flags = draw(st.lists(st.sampled_from([None, False, True]), min_size=len(states) - 1, max_size=len(states) - 1))
    finals = {q: flag for q, flag in zip(states[1:], flags) if flag is not None}
    # past the input tape only _ and 1 are written, so that a run meets fewer
    # distinct keys and more of its rules carry edits
    tape_syms = [_SYMS] + [("_", "1")] * (tapes - 1)
    keys = [(q, syms) for q in states if q not in finals for syms in itertools.product(*tape_syms)]

    def body():
        return (
            draw(st.sampled_from(states)),
            draw(st.tuples(*map(st.sampled_from, tape_syms))),
            draw(st.tuples(*[st.sampled_from("LRS")] * tapes)),
        )

    rules = {key: body() for key in keys if draw(st.integers(0, 7))}
    base = Machine("rand", tapes, _SYMS, "_", tuple(states), "s0", finals, rules)
    edits = {}
    for _ in range(draw(st.integers(0, 4)) if rules else 0):
        at = draw(st.sampled_from(sorted(rules)))
        target = draw(st.sampled_from(keys))
        action = ReplaceRule if target in rules else draw(st.sampled_from((InstallRule, InstallRule, ReplaceRule)))
        edits[at] = action(*target, *body())
    try:
        return ReflexiveMachine(base, edits)
    except StructureError:
        return ReflexiveMachine(base, {})


# an edit on three tapes that fires on every other step
_EDIT3 = parse_machine_spec(
    """
machine edit3
tapes: 3
start: s0
rule s0 _ _ _ -> s1 _ _ 1 S S R ! install(s1, _ _ _ -> s0, _ 0 _, S R S)
"""
).machine


@given(edited_machines(), st.sampled_from(("", "0", "1", "01", "110")), st.integers(1, 30))
@example(SELF_REPLACING, "", 3)
@example(_EDIT3, "", 6)
@example(SPECIALIZER, "0" * 8, 5)  # the edit fires on the last budgeted step
@settings(max_examples=300, deadline=None)
def test_self_editing_runs_match_the_step_reference(rm, word, budget):
    seq, log = _reference_run(rm, word, budget)
    assert reflexive_run(rm, word, budget) == (_reference_outcome(rm.base, seq, budget), log)
    assert reflexive_config_sequence(rm, word, budget) == (seq, log)
    assert trace_run(rm, word, budget) == [record_of(rm.base, c.state, c.tapes, c.heads, c.step) for c in seq]


def test_shared_corpus_machines_are_safe_under_threads():
    # the cached specializer is shared by every thread; each run patches only
    # its own private table
    word = "0" * 16
    expected = reflexive_run(SPECIALIZER, word, 1000)
    results = []
    errors = []

    def work():
        try:
            for _ in range(200):
                results.append(reflexive_run(corpus_machine("specializer"), word, 1000))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * 800
    fresh = parse_machine_spec(CORPUS_SPECS["specializer"]).machine
    assert SPECIALIZER.base.rules == fresh.base.rules
    assert SPECIALIZER.edits == fresh.edits
