"""Core engine tests: stepping, bounded runs, and behavioural comparison."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermachine import inductive, machine as engine
from hypermachine.codec import decode, encode, universal_run
from hypermachine.corpus import corpus_machine, delay_machine, encodable_corpus
from hypermachine.inductive import (
    BlankRunaway,
    Certificate,
    CertifiedStable,
    ConfigurationCycle,
    UNKNOWN,
    HaltsAt,
    _check,
    _observe,
    _same,
    certify_nonhalting,
    inductive_run,
)
from hypermachine.limits import halting_as_limit, limit_eval
from hypermachine.machine import (
    BLANK,
    AtFinal,
    BudgetExhausted,
    Configuration,
    Counterexample,
    EquivalentUpTo,
    HaltedResultless,
    HaltedWithResult,
    InputError,
    Machine,
    NextConfig,
    NoRule,
    Run,
    StructureError,
    _retrim,
    config_sequence,
    initial_configuration,
    observational_equiv,
    outcomes_agree,
    run_bounded,
    single_tape_machine,
    step,
    trimmed_word,
    words_over,
)
from hypermachine.reflexive import EditLog, InstallRule, ReflexiveMachine, reflexive_config_sequence, reflexive_run
from hypermachine.trace import emit_trace, record_of, trace_run, watch

FLIP = corpus_machine("flip")
ERASER = corpus_machine("eraser")
LOOP = corpus_machine("loop")


# --- step -------------------------------------------------------------------


def test_step_applies_single_forced_rule():
    config = initial_configuration(FLIP, "0")
    result = step(FLIP, config)
    assert isinstance(result, NextConfig)
    after = result.config
    assert after.state == "qf"
    assert after.tapes[0] == {0: "1"}
    assert after.heads == (0,)
    assert after.step == 1


def test_step_at_final_state():
    config = Configuration(state="qf", tapes=({},), heads=(0,), step=0)
    assert isinstance(step(FLIP, config), AtFinal)


def test_step_no_rule_on_empty_rule_set():
    idle = corpus_machine("idle")
    config = initial_configuration(idle, "0")
    assert isinstance(step(idle, config), NoRule)


def test_step_rejects_malformed_configuration():
    config = Configuration(state="q0", tapes=({}, {}), heads=(0, 0), step=0)
    with pytest.raises(StructureError):
        step(FLIP, config)
    with pytest.raises(StructureError):
        step(FLIP, Configuration(state="zz", tapes=({},), heads=(0,), step=0))


# --- run_bounded ------------------------------------------------------------


def test_flip_halts_in_one_step():
    assert run_bounded(FLIP, "0", 10) == HaltedWithResult("1", 1)
    assert run_bounded(FLIP, "1", 10) == HaltedWithResult("0", 1)


def test_loop_exhausts_budget():
    outcome = run_bounded(LOOP, "", 100)
    assert isinstance(outcome, BudgetExhausted)
    assert outcome.steps == 100
    assert outcome.config.heads == (100,)


def test_eraser_erases_and_halts():
    # hand trace: erase 0 (step 1), erase 1 (step 2), see blank, finish (step 3)
    assert run_bounded(ERASER, "01", 100) == HaltedWithResult("", 3)


def test_flip_on_empty_word_is_resultless():
    assert run_bounded(FLIP, "", 10) == HaltedResultless(0)


def test_halt_discovered_only_beyond_the_halt_step():
    # flip reaches its final state on step 1; a budget of exactly 1 cannot
    # observe the halt
    assert isinstance(run_bounded(FLIP, "0", 1), BudgetExhausted)
    assert run_bounded(FLIP, "0", 2) == HaltedWithResult("1", 1)


def test_final_start_state_halts_at_step_zero():
    identity = corpus_machine("identity")
    assert run_bounded(identity, "0110", 1) == HaltedWithResult("0110", 0)
    stop = corpus_machine("stop")
    assert run_bounded(stop, "01", 1) == HaltedResultless(0)


def test_input_validation():
    with pytest.raises(InputError):
        run_bounded(FLIP, "2", 10)
    with pytest.raises(InputError):
        run_bounded(FLIP, "_", 10)
    with pytest.raises(InputError):
        run_bounded(FLIP, "0", 0)
    with pytest.raises(InputError):
        trace_run(FLIP, "0", 0)


def test_trimmed_word():
    assert trimmed_word({}) == ""
    assert trimmed_word({0: "1"}) == "1"
    assert trimmed_word({-2: "0", 0: "1"}) == "0_1"
    assert trimmed_word({5: "1", 3: "0"}) == "0_1"


@given(
    st.dictionaries(st.integers(-6, 6), st.sampled_from("01"), max_size=8),
    st.integers(-9, 9),
    st.sampled_from((BLANK, "0", "1")),
)
@example({0: "1", 1: "0"}, 1, "1")  # a write inside the word
@example({0: "1", 2: "0"}, 0, BLANK)  # blank at the left end, across a hole
@example({0: "1", 2: "0"}, 2, BLANK)  # blank at the right end, across a hole
@example({3: "1"}, 3, BLANK)  # a one-cell word erased
@example({0: "1"}, -3, "0")  # a non-blank write left of the word, with a gap
@example({0: "1"}, 3, "0")  # a non-blank write right of the word, with a gap
@example({}, 4, "1")  # a write on an empty tape
@example({0: "1"}, 5, BLANK)  # a blank write outside the word
def test_retrim_matches_full_trim(tape, cell, sym):
    word, lo = _retrim(trimmed_word(tape), min(tape, default=0), cell, sym, BLANK)
    edited = dict(tape)
    if sym == BLANK:
        edited.pop(cell, None)
    else:
        edited[cell] = sym
    assert word == trimmed_word(edited)
    if edited:
        assert lo == min(edited)


# --- machine validation -----------------------------------------------------


def test_machine_rejects_rule_from_final_state():
    with pytest.raises(StructureError):
        single_tape_machine("bad", {("q0", "0"): ("q0", "0", "R")}, finals={"q0": True})


def test_machine_rejects_undeclared_references():
    with pytest.raises(StructureError):
        Machine(
            name="bad",
            tape_count=1,
            alphabet=("_", "0", "1"),
            blank="_",
            states=("q0",),
            start="q0",
            finals={},
            rules={("q0", ("0",)): ("zz", ("0",), ("R",))},
        )
    with pytest.raises(StructureError):
        single_tape_machine("bad", {("q0", "0"): ("q0", "0", "X")})


_ALPHABET = ("_", "0", "1")


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"tape_count": 0}, "tape_count must be >= 1, got 0"),
        ({"states": ("q0", "q0")}, "duplicate state names"),
        ({"alphabet": ("_", "0", "0")}, "duplicate alphabet symbols"),
        ({"alphabet": ("_", "01")}, "symbols must be single characters, got '01'"),
        ({"start": "q9"}, "start state 'q9' is not declared"),
        ({"finals": {"q9": True}}, "final state 'q9' is not declared"),
    ],
)
def test_machine_rejects_malformed_declarations(fields, message):
    declared = {"name": "bad", "tape_count": 1, "alphabet": _ALPHABET, "blank": "_", "states": ("q0",)}
    with pytest.raises(StructureError) as err:
        Machine(**{**declared, "start": "q0", "finals": {}, "rules": {}, **fields})
    assert str(err.value) == message and err.value.key is None


def test_machine_rejects_blankless_alphabet():
    with pytest.raises(StructureError):
        Machine(
            name="bad",
            tape_count=1,
            alphabet=("0", "1"),
            blank="_",
            states=("q0",),
            start="q0",
            finals={},
            rules={},
        )


# --- observational equivalence ----------------------------------------------


def test_equiv_is_reflexive():
    assert observational_equiv(FLIP, FLIP, 4, 100) == EquivalentUpTo(4, 100)


def test_equiv_flip_vs_eraser_differs_on_the_empty_word():
    # the empty word is compared first: flip is stuck at once, the eraser
    # finishes with an empty result
    result = observational_equiv(FLIP, ERASER, 4, 100)
    assert result == Counterexample("", HaltedResultless(0), HaltedWithResult("", 1))


def test_equiv_invariant_under_state_renaming():
    renamed = single_tape_machine(
        "flip2",
        {("a", "0"): ("b", "1", "S"), ("a", "1"): ("b", "0", "S")},
        finals={"b": True},
        start="a",
    )
    assert isinstance(observational_equiv(FLIP, renamed, 4, 100), EquivalentUpTo)


def test_rule_declaration_order_never_matters():
    reordered = single_tape_machine(
        "flip_reversed",
        {("q0", "1"): ("qf", "0", "S"), ("q0", "0"): ("qf", "1", "S")},
        finals={"qf": True},
    )
    for word in words_over(("0", "1"), 3):
        assert run_bounded(reordered, word, 50) == run_bounded(FLIP, word, 50)


def test_equiv_requires_shared_alphabet():
    zeros_only = single_tape_machine("z", {("q0", "0"): ("q0", "0", "R")}, alphabet=("0",))
    with pytest.raises(InputError):
        observational_equiv(FLIP, zeros_only, 3, 50)


def test_outcomes_agree_ignores_steps_and_configs():
    assert outcomes_agree(HaltedWithResult("1", 1), HaltedWithResult("1", 9))
    assert not outcomes_agree(HaltedWithResult("1", 1), HaltedWithResult("0", 1))
    assert not outcomes_agree(HaltedWithResult("", 1), HaltedResultless(1))
    cfg = Configuration("q0", ({},), (0,), 5)
    assert outcomes_agree(BudgetExhausted(5, cfg), BudgetExhausted(9, cfg))


def test_words_over_is_length_lex():
    assert list(words_over(("0", "1"), 2)) == ["", "0", "1", "00", "01", "10", "11"]


def test_a_negative_length_is_refused():
    # no word has a negative length, so an empty comparison would vouch for
    # machines that differ on the empty word
    accepts_empty = single_tape_machine("accepts-empty", {}, finals={"q0": True})
    stuck = single_tape_machine("stuck", {})
    assert isinstance(observational_equiv(accepts_empty, stuck, 0, 10), Counterexample)
    with pytest.raises(InputError, match="length must be >= 0, got -1"):
        words_over(("0", "1"), -1)
    with pytest.raises(InputError, match="length must be >= 0, got -1"):
        observational_equiv(accepts_empty, stuck, -1, 10)
    with pytest.raises(InputError, match="budget must be >= 1, got 0"):
        observational_equiv(accepts_empty, stuck, -1, 0)


# --- hypothesis properties ---------------------------------------------------

_SYMS = ("_", "0", "1")


@st.composite
def small_machines(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    states = [f"s{i}" for i in range(n)]
    flags = draw(st.lists(st.sampled_from([None, False, True]), min_size=n, max_size=n))
    finals = {q: flag for q, flag in zip(states, flags) if flag is not None}
    rules = {}
    for q in states:
        if q in finals:
            continue
        for sym in _SYMS:
            if draw(st.booleans()):
                rules[(q, sym)] = (
                    draw(st.sampled_from(states)),
                    draw(st.sampled_from(_SYMS)),
                    draw(st.sampled_from(["L", "R", "S"])),
                )
    return single_tape_machine("rand", rules, finals=finals, start=states[0], extra_states=tuple(states))


@given(small_machines(), st.sampled_from(["", "0", "1", "01", "10", "110"]))
@settings(max_examples=60, deadline=None)
def test_replay_reproduces_identical_configurations(machine, word):
    first = config_sequence(machine, word, 30)
    second = config_sequence(machine, word, 30)
    assert first == second
    for before, after in zip(first, first[1:]):
        assert after.step == before.step + 1
        # locality: one step touches at most one cell and moves the head by
        # at most one
        changed = {c for c in set(before.tapes[0]) | set(after.tapes[0])
                   if before.tapes[0].get(c) != after.tapes[0].get(c)}
        assert len(changed) <= 1
        assert abs(after.heads[0] - before.heads[0]) <= 1


@given(small_machines(), st.sampled_from(["", "0", "10"]), st.integers(1, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_budget_monotonicity(machine, word, b1, extra):
    small = run_bounded(machine, word, b1)
    if not isinstance(small, BudgetExhausted):
        assert run_bounded(machine, word, b1 + extra) == small


@given(small_machines(), st.sampled_from(["", "0", "01"]), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_a_run_advanced_over_growing_budgets_agrees_with_run_bounded(machine, word, budget):
    run = Run(machine, word)
    for b in range(1, budget + 1):
        run.advance(b)
        outcome = run_bounded(machine, word, b)
        assert run.halted == (not isinstance(outcome, BudgetExhausted))
        assert run.outcome() == outcome


@st.composite
def small_multi_tape_machines(draw):
    tape_count = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=1, max_value=3))
    states = [f"s{i}" for i in range(n)]
    flags = draw(st.lists(st.sampled_from([None, False, True]), min_size=n - 1, max_size=n - 1))
    finals = {q: flag for q, flag in zip(states[1:], flags) if flag is not None}
    rules = {}
    for q in states:
        if q in finals:
            continue
        for syms in itertools.product(_SYMS, repeat=tape_count):
            if draw(st.integers(0, 7)):  # dense, so that runs last
                # blank writes, writes of the scanned symbol and stays are
                # drawn more often, so that runaways, cycles and tapes that a
                # rule leaves alone show up
                rules[(q, syms)] = (
                    draw(st.sampled_from(states)),
                    tuple(draw(st.sampled_from((sym, sym, "_", "0", "1"))) for sym in syms),
                    draw(st.tuples(*[st.sampled_from(["L", "R", "S", "S"])] * tape_count)),
                )
    return Machine(
        name=f"rand{tape_count}",
        tape_count=tape_count,
        alphabet=_SYMS,
        blank="_",
        states=tuple(states),
        start=states[0],
        finals=finals,
        rules=rules,
    )


def _normal(config):
    return (
        config.state,
        tuple(tuple(sorted((c - h, s) for c, s in t.items())) for t, h in zip(config.tapes, config.heads)),
    )


def _reference_outcome(machine, seq, budget):
    last = seq[-1]
    if last.step == budget:
        return BudgetExhausted(budget, last)
    if machine.finals.get(last.state):
        return HaltedWithResult(trimmed_word(last.tapes[-1]), last.step)
    return HaltedResultless(last.step)


def _check_certificate_on(machine, seq, budget, cert):
    """Re-check a non-halting certificate on the reference sequence."""
    assert seq[-1].step == budget
    if isinstance(cert, ConfigurationCycle):
        repeat = cert.first_repeat_step + cert.period
        assert _normal(seq[cert.first_repeat_step]) == _normal(seq[repeat])
        # the first repeat: every earlier configuration is new (tapes this
        # short are always cycle-tracked)
        assert len({_normal(config) for config in seq[:repeat]}) == repeat
        return
    assert isinstance(cert, BlankRunaway)
    blanks = (machine.blank,) * machine.tape_count
    assert machine.rules[(cert.state, blanks)] == (cert.state, blanks, cert.direction)
    for config in seq[cert.onset_step :]:
        assert config.state == cert.state
        for tape, head, move in zip(config.tapes, config.heads, cert.direction):
            assert head not in tape
            if move == "R":
                assert not tape or head > max(tape)
            elif move == "L":
                assert not tape or head < min(tape)


# bouncers: a blank self-loop that heads back over written cells is no runaway
_BOUNCER = single_tape_machine("bouncer", {("q0", "1"): ("q0", "1", "R"), ("q0", "_"): ("q0", "_", "L")})
_BOUNCER3 = Machine(
    name="bouncer3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("s0",),
    start="s0",
    finals={},
    rules={
        ("s0", ("1", "_", "_")): ("s0", ("1", "_", "_"), ("R", "S", "S")),
        ("s0", ("_", "_", "_")): ("s0", ("_", "_", "_"), ("L", "S", "S")),
    },
)


# erases its leftmost cell, then writes left of the old extent and erases
# that cell again: the left end shrinks, regrows and shrinks across a hole
_ERASE_REGROW = single_tape_machine(
    "erase-regrow",
    {
        ("q0", "1"): ("q1", "_", "L"),  # 11 -> _1
        ("q1", "_"): ("q2", "0", "L"),  # _1 -> 0_1
        ("q2", "_"): ("q3", "_", "R"),
        ("q3", "0"): ("q3", "_", "R"),  # 0_1 -> 1
    },
)


def _on_output_tape(name, rules):
    """A 3-tape machine running single-tape ``rules`` (start state ``a``) on
    its output tape, whatever its input tape holds."""
    return Machine(
        name=name,
        tape_count=3,
        alphabet=_SYMS,
        blank="_",
        states=tuple(sorted({q for q, _ in rules} | {body[0] for body in rules.values()})),
        start="a",
        finals={},
        rules={
            (q, (s, "_", sym)): (nq, (s, "_", write), ("S", "S", move))
            for (q, sym), (nq, write, move) in rules.items()
            for s in _SYMS
        },
    )


# output words that shrink or gain a hole, then change inside the new extent
_WRITE_111 = {("a", "_"): ("b", "1", "R"), ("b", "_"): ("c", "1", "R")}
_ERASE_LEFTMOST = _on_output_tape(
    "erase-leftmost",
    {
        **_WRITE_111,
        ("c", "_"): ("d", "1", "L"),
        ("d", "1"): ("d", "1", "L"),
        ("d", "_"): ("e", "_", "R"),
        ("e", "1"): ("f", "_", "R"),  # 111 -> 11
        ("f", "1"): ("g", "0", "R"),  # 11 -> 01
    },
)
_ERASE_RIGHTMOST = _on_output_tape(
    "erase-rightmost",
    {
        **_WRITE_111,
        ("c", "_"): ("d", "1", "S"),
        ("d", "1"): ("e", "_", "L"),  # 111 -> 11
        ("e", "1"): ("f", "0", "S"),  # 11 -> 10
    },
)
_INTERIOR_BLANK = _on_output_tape(
    "interior-blank",
    {
        **_WRITE_111,
        ("c", "_"): ("d", "1", "L"),
        ("d", "1"): ("e", "_", "R"),  # 111 -> 1_1
        ("e", "1"): ("f", "0", "L"),  # 1_1 -> 1_0
        ("f", "_"): ("g", "1", "S"),  # 1_0 -> 110
    },
)
# the cycle certificate fires on a step whose rule rewrites the output, so
# that change must not be logged: the run stops before the rule fires
_OUTPUT_TOGGLER = _on_output_tape(
    "output-toggler",
    {("a", "_"): ("b", "1", "S"), ("b", "1"): ("a", "0", "S"), ("a", "0"): ("b", "1", "S")},
)


# writes a 0 on the output tape at every step, leftwards, for ever
_SWEEPER3 = Machine(
    name="sweeper3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("q1",),
    start="q1",
    finals={},
    rules={("q1", ("_", "_", "_")): ("q1", ("_", "_", "0"), ("S", "S", "L"))},
)


# keeps its state on blanks and changes nothing: it loops in place, no sweep
_STILL3 = Machine(**{**vars(_SWEEPER3), "name": "still3", "rules": {("q1", ("_",) * 3): ("q1", ("_",) * 3, ("S",) * 3)}})


@given(st.one_of(small_machines(), small_multi_tape_machines()))
@example(_BOUNCER)
@example(_BOUNCER3)
@example(_ERASE_REGROW)
@example(_ERASE_LEFTMOST)
@example(_ERASE_RIGHTMOST)
@example(_INTERIOR_BLANK)
@example(_OUTPUT_TOGGLER)
# multi-tape sweeps that an unhooked run ends in a jump within the budget
@example(_SWEEPER3)
@example(corpus_machine("quiet_worker"))
@example(corpus_machine("flicker"))
@example(_STILL3)
@settings(max_examples=80, deadline=None)
def test_run_via_step_matches_fast_engine(machine):
    budget = 25
    three_tape = machine.tape_count == 3
    for word in ("", "0", "11"):
        seq = config_sequence(machine, word, budget)
        last = seq[-1]
        outcome = run_bounded(machine, word, budget)
        assert outcome.steps == last.step
        if isinstance(outcome, BudgetExhausted):
            assert outcome.config == last
        assert outcome == _reference_outcome(machine, seq, budget)

        halt = None if last.step == budget else last.step
        probe = Run(machine, word)
        for b in range(1, budget + 1):
            probe.advance(b)
            assert probe.halted == (halt is not None and halt < b)
            assert probe.steps == (halt if probe.halted else b)

        answer = certify_nonhalting(machine, word, budget)
        if halt is not None:
            assert answer == HaltsAt(halt)
        elif isinstance(answer, Certificate):
            _check_certificate_on(machine, seq, budget, answer.certificate)

        if three_tape:
            observed = inductive_run(machine, word, budget)
            changes = [(0, "")]
            for config in seq[1 : observed.steps_executed + 1]:
                out = trimmed_word(config.tapes[-1])
                if out != changes[-1][1]:
                    changes.append((config.step, out))
            assert observed.log.entries == tuple(changes)
            for interval in (1, 2, 3):
                lines, _ = watch(machine, word, interval, budget)
                samples = range(interval, observed.steps_executed + 1, interval)
                assert [line.split("\t")[:2] for line in lines[:-1]] == [
                    [f"step={at}", f"out={trimmed_word(seq[at].tapes[-1])}"] for at in samples
                ]

        traced = trace_run(machine, word, budget)
        assert traced == [record_of(machine, c.state, c.tapes, c.heads, c.step) for c in seq]
        assert emit_trace(traced) == "".join(record.render() + "\n" for record in traced)
        assert trace_run(ReflexiveMachine(machine, {}), word, budget) == traced
        assert reflexive_config_sequence(ReflexiveMachine(machine, {}), word, budget) == (seq, EditLog(()))


@pytest.mark.parametrize("machine", [corpus_machine("trail"), corpus_machine("loop"), _SWEEPER3], ids=lambda m: m.name)
def test_traced_runs_past_the_hook_gate_match_the_step_reference(machine):
    # at budget 200 the tapes outgrow the 64 cells that gate a certificate
    # hook, and each machine is a sweep that an unobserved run ends in a
    # jump: a trace sees every step all the same
    seq = config_sequence(machine, "", 200)
    assert len(seq) == 201
    assert trace_run(machine, "", 200) == [record_of(machine, c.state, c.tapes, c.heads, c.step) for c in seq]


def test_delay_machine_halts_exactly_on_time():
    for k in (1, 4, 9):
        machine = delay_machine(k)
        assert run_bounded(machine, "", k + 1) == HaltedWithResult("", k)
        assert isinstance(run_bounded(machine, "", k), BudgetExhausted)


# --- the sweep jump ---------------------------------------------------------

TRAIL = corpus_machine("trail")
# writes 1s leftwards from the left end of its input
_LEFT_SWEEP = single_tape_machine("left-sweep", {("q0", "0"): ("q0", "1", "L"), ("q0", "_"): ("q0", "1", "L")})
# erases the 0s of 1001, walks back left through the gap (a sweep that finds
# the tape's extent beyond it), then fills the gap rightwards with 0s (a
# sweep over an interior blank) and trails 0s off the right end
_GAP_SWEEP = single_tape_machine(
    "gap-sweep",
    {
        ("e", "1"): ("e0", "1", "R"),
        ("e0", "0"): ("e0", "_", "R"),
        ("e0", "1"): ("b", "1", "L"),
        ("b", "_"): ("b", "_", "L"),
        ("b", "1"): ("r", "1", "R"),
        ("r", "_"): ("r", "0", "R"),
        ("r", "1"): ("r", "1", "R"),
    },
    start="e",
)


# walks right over its input, then sweeps right on tape 1, writing 1s on
# tape 2 going right and 0s on tape 3 going left, all three heads moving
_WALK_SWEEP3 = Machine(
    name="walk-sweep3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("q1",),
    start="q1",
    finals={},
    rules={
        ("q1", ("0", "_", "_")): ("q1", ("0", "_", "_"), ("R", "S", "S")),
        ("q1", ("_", "_", "_")): ("q1", ("_", "1", "0"), ("R", "R", "L")),
    },
)
# gap-sweep's walk on tape 1 of 3: it erases the 0s of 100001, sweeps left
# through the gap towards the input's first 1 while writing 1s leftwards on
# tape 3, then fills the gap with 0s and trails 0s off the input's right end
_GAP_SWEEP3 = Machine(
    name="gap-sweep3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("e", "e0", "b", "r"),
    start="e",
    finals={},
    rules={
        ("e", ("1", "_", "_")): ("e0", ("1", "_", "_"), ("R", "S", "S")),
        ("e0", ("0", "_", "_")): ("e0", ("_", "_", "_"), ("R", "S", "S")),
        ("e0", ("1", "_", "_")): ("b", ("1", "_", "_"), ("L", "S", "S")),
        ("b", ("_", "_", "_")): ("b", ("_", "_", "1"), ("L", "S", "L")),
        ("b", ("1", "_", "_")): ("r", ("1", "_", "_"), ("R", "S", "S")),
        ("r", ("_", "_", "_")): ("r", ("0", "_", "_"), ("R", "S", "S")),
        ("r", ("1", "_", "_")): ("r", ("1", "_", "_"), ("R", "S", "S")),
    },
)
# from step 1 a rule on blanks keeps its state and moves the output head, but
# its staying input head writes a 1, which no rule reads: it halts at step 2
_STAYING_WRITE3 = Machine(
    name="staying-write3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("a", "q1"),
    start="a",
    finals={},
    rules={
        ("a", ("_", "_", "_")): ("q1", ("_", "_", "_"), ("S", "S", "S")),
        ("q1", ("_", "_", "_")): ("q1", ("1", "_", "0"), ("S", "S", "L")),
    },
)


# sweeps blank on tapes 2 and 3 while its input head stays
_BLANK_SWEEP3 = Machine(
    name="blank-sweep3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("q1",),
    start="q1",
    finals={},
    rules={("q1", ("_", "_", "_")): ("q1", ("_", "_", "_"), ("S", "R", "L"))},
)
# sweeps that write only blank: loop's one head, flicker's three from step 7
# and two of the three heads of the sweeper above
_BLANK_SWEEPS = [(LOOP, ""), (corpus_machine("flicker"), ""), (_BLANK_SWEEP3, "")]

BLINK = corpus_machine("blink")
# writes 1 over each 0 of its input going right, then stays on the first 1
# it meets: a fixed point on a non-blank cell, from step 2 on 001
_SETTLE = single_tape_machine("settle", {("q0", "0"): ("q0", "1", "R"), ("q0", "1"): ("q0", "1", "S")})
# a rule on blanks with no effects: it keeps its state and every cell and head
_FIXED3 = Machine(
    name="fixed3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("q1",),
    start="q1",
    finals={},
    rules={("q1", ("_", "_", "_")): ("q1", ("_", "_", "_"), ("S", "S", "S"))},
)
# writes a 1 on tape 2 and a 0 on the output, all heads staying, then keeps
# every cell under its heads: a fixed point on non-blank cells from step 1
_SETTLE3 = Machine(
    name="settle3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("a", "q1"),
    start="a",
    finals={},
    rules={
        ("a", ("0", "_", "_")): ("q1", ("0", "1", "0"), ("S", "S", "S")),
        ("q1", ("0", "1", "0")): ("q1", ("0", "1", "0"), ("S", "S", "S")),
    },
)
# rules that change nothing, each the sweep that moves no head
_FIXED_POINTS = [(BLINK, ""), (_SETTLE, "001"), (_FIXED3, ""), (_SETTLE3, "0")]
# walks right over its input, then stays on the blank past it: on 70 0s, a
# fixed point from step 70 on a tape of 70 cells, past the 64 that a
# certificate hook tracks
_WALK_STAY = single_tape_machine("walk-stay", {("q0", "0"): ("q0", "0", "R"), ("q0", "_"): ("q0", "_", "S")})
# copies its input's length onto tape 2 as 1s, steps back onto the last 1 and
# stays there: on 70 0s, a fixed point from step 71 over 140 cells
_WALK_STAY3 = Machine(
    name="walk-stay3",
    tape_count=3,
    alphabet=_SYMS,
    blank="_",
    states=("a", "b"),
    start="a",
    finals={},
    rules={
        ("a", ("0", "_", "_")): ("a", ("0", "1", "_"), ("R", "R", "S")),
        ("a", ("_", "_", "_")): ("b", ("_", "_", "_"), ("S", "L", "S")),
        ("b", ("_", "1", "_")): ("b", ("_", "1", "_"), ("S", "S", "S")),
    },
)


def _last_config(machine, word, budget):
    """The reference configuration after ``budget`` steps (or at the halt),
    stepped one at a time without keeping the sequence."""
    config = initial_configuration(machine, word)
    while config.step < budget and isinstance(nxt := step(machine, config), NextConfig):
        config = nxt.config
    return config


def _run_to(machine, word, *budgets):
    run = Run(machine, word)
    for budget in budgets:
        run.advance(budget)
    return run.snapshot()


def test_blank_sweep_runs_a_trillion_steps_at_once():
    steps = 10**12
    assert run_bounded(LOOP, "", steps) == BudgetExhausted(steps, Configuration("q0", ({},), (steps,), steps))


def test_a_fixed_point_runs_a_trillion_steps_at_once():
    # a rule that keeps the state, moves no head and rewrites no cell fires
    # for ever from its first step: an unhooked run ends the budget in a jump
    steps = 10**12
    assert run_bounded(BLINK, "", steps) == BudgetExhausted(steps, Configuration("q0", ({},), (0,), steps))
    settled = Configuration("q0", ({0: "1", 1: "1", 2: "1"},), (2,), steps)
    assert run_bounded(_SETTLE, "001", steps) == BudgetExhausted(steps, settled)
    blank3 = Configuration("q1", ({}, {}, {}), (0, 0, 0), steps)
    assert run_bounded(_FIXED3, "", steps) == BudgetExhausted(steps, blank3)
    settled3 = Configuration("q1", ({0: "0"}, {0: "1"}, {0: "0"}), (0, 0, 0), steps)
    assert run_bounded(_SETTLE3, "0", steps) == BudgetExhausted(steps, settled3)
    assert reflexive_run(ReflexiveMachine(BLINK, {}), "", steps) == (run_bounded(BLINK, "", steps), EditLog(()))
    assert observational_equiv(BLINK, BLINK, 1, steps) == EquivalentUpTo(1, steps)
    assert observational_equiv(_SETTLE3, _SETTLE3, 1, steps) == EquivalentUpTo(1, steps)
    assert universal_run(encode(BLINK), "", steps) == BudgetExhausted(steps, Configuration("q1", ({},), (0,), steps))


@pytest.mark.parametrize(
    "machine,word,onset",
    [
        (BLINK, "", 0),
        (_SETTLE, "001", 2),
        (_FIXED3, "", 0),
        (_SETTLE3, "0", 1),
        (_WALK_STAY, "0" * 70, 70),
        (_WALK_STAY3, "0" * 70, 71),
    ],
    ids=["blink", "settle", "fixed3", "settle3", "walk-stay", "walk-stay3"],
)
def test_a_fixed_point_under_a_certificate_hook_is_a_cycle_at_its_first_repeat(machine, word, onset):
    # the hook sees the fixed point's first step and the next, where the
    # cycle check reports it, whatever the budget and the tape's size: a
    # rule that moves no head is no runaway, and a hooked run never jumps it
    for budget in (onset + 2, 1000, 10**12):
        run, _ = _observe(machine, word, budget)
        assert (run.checked, run.steps) == (ConfigurationCycle(1, onset), onset + 1)
        assert certify_nonhalting(machine, word, budget) == Certificate(ConfigurationCycle(1, onset))
    if machine.tape_count == 3:
        observed = inductive_run(machine, word, 10**12)
        assert observed.status == CertifiedStable(ConfigurationCycle(1, onset))
        assert observed.steps_executed == onset + 1


def test_a_fixed_point_past_the_hook_gate_is_stepped_under_a_hook():
    # the head walks right over 70 cells and then stays on the blank past
    # them: above the 64 cells that gate a certificate hook, the hook sees
    # the fixed point's first step and the next, where it reports the cycle,
    # while an unhooked run jumps the fixed point to the budget
    word = "0" * 70
    check = _check(_WALK_STAY, word, [])
    seen = []
    run = Run(_WALK_STAY, word, lambda *args: seen.append(args[3]) or check(*args))
    run.advance(500)
    assert (seen, run.steps, run.checked, run.heads) == ([70, 71], 71, ConfigurationCycle(1, 70), [70])
    assert run_bounded(_WALK_STAY, word, 10**12).steps == 10**12


@st.composite
def _extent_cases(draw):
    """A compiled sweep over 1 or 3 small tapes, with the heads anywhere."""
    tape_count = draw(st.sampled_from((1, 3)))
    cells = st.dictionaries(st.integers(-6, 6), st.sampled_from("01"), max_size=6)
    tapes = tuple(draw(cells) for _ in range(tape_count))
    heads = [draw(st.integers(-8, 8)) for _ in range(tape_count)]
    moving = draw(st.lists(st.integers(0, tape_count - 1), min_size=1, max_size=tape_count, unique=True))
    sweep = tuple((i, draw(st.sampled_from((None, "0", "1"))), draw(st.sampled_from((-1, 1)))) for i in sorted(moving))
    return sweep, tapes, heads


@settings(max_examples=500, deadline=None)
@given(_extent_cases())
@example((((0, None, 1),), ({},), [0]))  # an empty tape
@example((((0, None, 1),), ({1: "1"},), [0]))  # a stored neighbour ahead
@example((((0, "1", -1),), ({1: "1"},), [0]))  # a stored neighbour behind
@example((((0, None, 1),), ({-2: "0", 3: "1"},), [0]))  # a gap, with a cell past it
@example((((0, None, 1),), ({0: "1"},), [0]))  # a stored cell under the head
# the second of two moving heads meets a cell
@example((((1, None, 1), (2, "0", -1)), ({0: "1"}, {}, {-3: "1"}), [0, 0, -1]))
def test_the_extent_test_finds_no_stored_cell_at_or_past_a_moving_head(case):
    sweep, tapes, heads = case
    expected = all((cell - heads[i]) * delta < 0 for i, _, delta in sweep for cell in tapes[i])
    assert engine._moving_heads_beyond(sweep, tapes, heads) == expected


@pytest.mark.parametrize(
    "machine,word",
    [
        (TRAIL, ""),
        (_LEFT_SWEEP, "00"),
        (_GAP_SWEEP, "1001"),
        (_SWEEPER3, ""),
        (_WALK_SWEEP3, "00"),
        (_GAP_SWEEP3, "100001"),
        *_BLANK_SWEEPS,
        *_FIXED_POINTS,
    ],
)
def test_sweep_jump_matches_the_reference(machine, word):
    expected = _last_config(machine, word, 2000)
    assert _run_to(machine, word, 2000) == expected
    assert _run_to(machine, word, 50, 2000) == expected
    assert _run_to(machine, word, 1, 2, 3, 2000) == expected
    assert run_bounded(machine, word, 2000) == BudgetExhausted(2000, expected)
    # a jump leaves cells to fill only when some moving head writes non-blank
    assert ("config" in vars(run_bounded(machine, word, 2000))) == ((machine, word) in _BLANK_SWEEPS + _FIXED_POINTS)
    # the run ends in its jump: a trillion steps move each head as the last
    # step did, each that many times over (its tapes are left unread, as
    # reading them writes every cell a jump passed)
    moves = [a - b for a, b in zip(expected.heads, _last_config(machine, word, 1999).heads)]
    far = Run(machine, word)
    far.advance(10**12)
    assert (far.state, far.steps) == (expected.state, 10**12)
    assert far.heads == [head + move * (10**12 - 2000) for head, move in zip(expected.heads, moves)]
    # the outcome writes the jumped cells when its configuration is read,
    # and keeps the configuration it reported as the run goes on
    run = Run(machine, word)
    run.advance(2000)
    outcome = run.outcome()
    run.advance(5000)
    assert repr(outcome) == repr(BudgetExhausted(2000, expected)) and outcome.config == expected
    with pytest.raises(AttributeError):
        outcome.steps = 0


def test_a_jumped_multi_tape_outcome_is_the_reference_configuration():
    # the sweeper jumps from step 1 and leaves its 0s to its outcome, which
    # writes them when its configuration is read
    outcome = run_bounded(_SWEEPER3, "", 300)
    assert "config" not in vars(outcome)
    assert outcome.config == config_sequence(_SWEEPER3, "", 300)[-1]


@pytest.mark.parametrize("machine,word", [(_STAYING_WRITE3, ""), (_GAP_SWEEP3, "100001")])
def test_a_multi_tape_rule_that_stops_repeating_is_stepped(machine, word):
    # a staying head that writes non-blank, or a stored cell ahead of a
    # moving head, ends the rule's repeats, so no jump may pass them
    for budget in (*range(1, 20), 300):
        expected = _reference_outcome(machine, config_sequence(machine, word, budget), budget)
        assert run_bounded(machine, word, budget) == expected, budget
    assert run_bounded(_STAYING_WRITE3, "", 300) == HaltedResultless(2)


def test_a_jumped_multi_tape_run_advanced_again_stores_no_jumped_cell():
    run = Run(_SWEEPER3, "")
    run.advance(10**6)
    run.advance(2 * 10**6)
    assert not run.halted
    assert run.steps == 2 * 10**6 and run.heads == [0, 0, -2 * 10**6]
    assert sum(map(len, run._tapes)) == 1  # the 0 of step 0, which the run stepped


def test_a_hooked_multi_tape_sweep_is_stepped():
    # an output sweeper that writes 1 changes the output at every step, which
    # the hook logs, so an observed run never jumps
    writer = Machine(**{**vars(_SWEEPER3), "rules": {("q1", ("_",) * 3): ("q1", ("_", "_", "1"), ("S", "S", "L"))}})
    observed = inductive_run(writer, "", 300)
    seq = config_sequence(writer, "", 300)
    assert observed.steps_executed == 300
    assert observed.log.entries == tuple((c.step, trimmed_word(c.tapes[-1])) for c in seq)


def _recording_run(machine, word):
    seen = []
    return Run(machine, word, lambda state, tape, head, steps, rule: seen.append(steps)), seen


def test_a_hook_sees_every_step_where_a_certificate_can_fire():
    # the hook sees every tracked step and every sweep, and a sweep that it
    # passes beyond the extent ends in a jump from the step it saw: on trail
    # and left-sweep that is step 1, the first step an advance may jump from
    for machine, word in ((TRAIL, ""), (_LEFT_SWEEP, "00")):
        run, seen = _recording_run(machine, word)
        run.advance(400)
        assert seen == [0, 1] and run.snapshot() == _last_config(machine, word, 400)
    run, _ = _observe(TRAIL, "", 400)
    assert run.checked is None and run.snapshot() == _last_config(TRAIL, "", 400)
    assert certify_nonhalting(TRAIL, "", 400) == UNKNOWN
    # gap-sweep starts its last sweep at step 10, on the blank right of 1001's
    # last 1, and jumps from there; its earlier sweeps lie inside the extent
    run, seen = _recording_run(_GAP_SWEEP, "1001")
    run.advance(400)
    last = _last_config(_GAP_SWEEP, "1001", 10)
    assert (last.state, last.heads, max(last.tapes[0])) == ("r", (4,), 3)
    assert seen == list(range(11)) and run.snapshot() == _last_config(_GAP_SWEEP, "1001", 400)
    # a sweep that writes blank beyond the extent is a runaway, which the
    # check reports before the engine tries a jump
    runaway = single_tape_machine("runaway", {("q0", "1"): ("q0", "1", "R"), ("q0", "_"): ("q0", "_", "R")})
    assert certify_nonhalting(runaway, "1" * 200, 1000) == Certificate(BlankRunaway("q0", ("R",), 200))


def test_a_hook_that_never_stops_a_run_leaves_it_advancing_as_it_would():
    # loop sweeps blank rightwards from step 0: the hook sees the first step
    # and the one that the jump starts from, and no more
    calls = []
    run = Run(LOOP, "", lambda *args: calls.append(args[3]))
    run.advance(10**5)
    assert len(calls) <= 2 and run.steps == 10**5
    # on several tapes the hooked run steps where the plain run jumps
    multi_tape = {name: corpus_machine(name) for name in ("flicker", "halt3", "quiet_worker")}
    for name, machine in {**encodable_corpus(), **multi_tape, "sweeper3": _SWEEPER3}.items():
        for word in words_over(machine.input_alphabet, 3):
            for budget in (1, 7, 100, 5000):
                hooked = Run(machine, word, lambda *args: None)
                hooked.advance(budget)
                plain = Run(machine, word)
                plain.advance(budget)
                assert (hooked.halted, hooked.snapshot()) == (plain.halted, plain.snapshot()), (name, word, budget)


def test_a_bounce_off_the_tape_end_never_scans_the_tape(monkeypatch):
    # the head walks right over 1s and bounces off the blank past them, a
    # sweep that writes blank with a stored cell right behind it: the check's
    # runaway test and the engine's jump test both answer from that cell
    bouncer = single_tape_machine("bouncer", {("q0", "1"): ("q0", "1", "R"), ("q0", "_"): ("q0", "_", "L")})
    scans = []

    def counted(scan):
        def counting(*args, **kwargs):
            scans.append(scan.__name__)
            return scan(*args, **kwargs)

        return counting

    monkeypatch.setitem(vars(engine), "min", counted(min))
    monkeypatch.setitem(vars(engine), "max", counted(max))
    assert certify_nonhalting(bouncer, "1" * 200, 10**4) == UNKNOWN
    assert scans == []


@pytest.mark.parametrize("machine,word", [(TRAIL, ""), (_LEFT_SWEEP, "00"), (_GAP_SWEEP, "1001")])
def test_a_jumped_sweep_is_written_when_the_tapes_are_read(machine, word):
    expected = _last_config(machine, word, 2000)
    run, _ = _recording_run(machine, word)
    run.advance(400)
    run.advance(2000)
    assert run.snapshot() == expected
    run, _ = _recording_run(machine, word)
    run.advance(2000)
    assert len(run._tapes[0]) < len(expected.tapes[0])  # the jump left its cells unwritten
    assert run.tapes == expected.tapes and run.heads == list(expected.heads)
    # a cycle check replays hookless runs, which jump too, and compares their tapes
    reference = _last_config(machine, word, 400)
    assert _same(machine, word, 400, reference.state, reference.tapes, reference.heads)


def test_a_module_loads_only_the_modules_that_it_imports():
    # the package root re-exports nothing, so importing the engine, which
    # imports no other module, loads no other module; a fresh interpreter
    # shows it, as this one has loaded them all.  A trace loads the
    # self-editing engine only for the traced runs that use it
    script = (
        "import sys\n"
        "def loaded(): print(sorted(m for m in sys.modules if m.startswith('hypermachine.')))\n"
        "import hypermachine.machine; loaded()\n"
        "import hypermachine.subrec; loaded()\n"
        "import hypermachine.trace; loaded()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert child.stdout.splitlines() == [
        "['hypermachine.machine']",
        "['hypermachine.machine', 'hypermachine.subrec']",
        "['hypermachine.machine', 'hypermachine.subrec', 'hypermachine.trace']",
    ]


def test_shared_machines_are_read_only():
    # corpus_machine and decode hand every caller the same machine, so no
    # caller may change its tables for the others
    with pytest.raises(AttributeError):
        corpus_machine("flip").rules.clear()
    with pytest.raises(TypeError):
        corpus_machine("flip").finals["q9"] = True
    with pytest.raises(AttributeError):
        decode(encode(FLIP)).rules.clear()
    with pytest.raises(AttributeError):
        corpus_machine("specializer").edits.clear()
    assert run_bounded(corpus_machine("flip"), "0", 10) == HaltedWithResult("1", 1)


def test_a_machine_keeps_its_own_tables():
    finals = {"qf": True}
    rules = {("q0", ("0",)): ("qf", ("1",), ("S",))}
    edits = {("q0", ("0",)): InstallRule("q0", ("1",), "qf", ("0",), ("S",))}
    machine = Machine("m", 1, ("_", "0", "1"), "_", ("q0", "qf"), "q0", finals, rules)
    rm = ReflexiveMachine(machine, edits)
    finals["qf"] = False
    rules[("q0", ("1",))] = ("qf", ("1",), ("S",))
    edits.clear()
    assert machine.finals == {"qf": True} and len(machine.rules) == 1 and len(rm.edits) == 1
    assert run_bounded(machine, "0", 10) == HaltedWithResult("1", 1)
    assert run_bounded(machine, "1", 10) == HaltedResultless(0)


_SWEEPER = single_tape_machine("sweeper", {("q1", "_"): ("q1", "0", "L")}, start="q1")


def _growing_budgets(budget):
    run = Run(_SWEEPER, "")
    for b in (1, budget // 4, budget // 2, budget, budget // 2):
        run.advance(b)
    return run.outcome()


def _two_limit_evals(budget):
    limit = halting_as_limit(encode(_SWEEPER), "")
    return [limit_eval(limit, x, budget, 10).guesses_log for x in (0, 1)]


@pytest.mark.parametrize(
    "answer",
    [
        lambda budget: run_bounded(_SWEEPER, "", budget),
        lambda budget: reflexive_run(ReflexiveMachine(_SWEEPER, {}), "", budget),
        lambda budget: observational_equiv(_SWEEPER, _SWEEPER, 0, budget),
        _growing_budgets,
        _two_limit_evals,
        lambda budget: run_bounded(_SWEEPER3, "", budget),
        lambda budget: observational_equiv(_SWEEPER3, _SWEEPER3, 0, budget),
    ],
    ids=[
        "run_bounded",
        "reflexive_run",
        "observational_equiv",
        "growing_budgets",
        "limit_eval",
        "run_bounded_3_tapes",
        "observational_equiv_3_tapes",
    ],
)
def test_a_jumped_sweep_outcome_runs_in_constant_memory(answer):
    # each sweeper writes a 0 on a fresh blank at every step: an outcome read
    # for its status never writes the cells that the jump passed, and nor
    # does a later advance of the jumped run, to any budget
    tracemalloc.start()
    try:
        answer(2 * 10**5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 1


def test_an_exhausted_outcome_has_no_result():
    # a caller may read ``getattr(outcome, "result", None)`` of any outcome,
    # as perfbench's enumeration does; a pending outcome stays unwritten
    run = Run(_SWEEPER, "")
    run.advance(1000)
    plain, pending = run_bounded(LOOP, "", 10), run.outcome()
    assert getattr(plain, "result", None) is None and getattr(pending, "result", None) is None
    assert "config" not in vars(pending)


def test_a_run_advanced_to_a_budget_that_it_has_reached_is_left_as_it_is():
    run, _ = _observe(corpus_machine("ping_pong"), "", 1000)
    certificate, steps = run.checked, run.steps
    assert isinstance(certificate, ConfigurationCycle)
    for budget in (steps, 1):
        run.advance(budget)
        assert (run.checked, run.steps) == (certificate, steps)
    run = Run(_SWEEPER, "")
    run.advance(1000)
    run.advance(500)
    assert run.steps == 1000 and run._tapes == ({0: "0"},)  # the jumped cells stay unwritten
    assert run.snapshot() == _last_config(_SWEEPER, "", 1000)


def test_a_run_that_its_hook_stopped_is_left_as_it_is(monkeypatch):
    # blink stays in place on a blank, so its hook finds the cycle at step 1;
    # advancing the stopped run again must not ask the hook, nor confirm the
    # cycle by another replay
    machine = corpus_machine("blink")
    check = _check(machine, "", [])
    hooked, replays = [], []

    def hook(*args):
        hooked.append(args[3])
        return check(*args)

    replay = inductive._replay
    monkeypatch.setattr(inductive, "_replay", lambda *args: replays.append(args[2]) or replay(*args))
    run = Run(machine, "", hook)
    run.advance(1000)
    assert (run.checked, run.steps, hooked, replays) == (ConfigurationCycle(1, 0), 1, [0, 1], [0])
    run.advance(2000)
    run.advance(3000)
    assert (run.halted, run.checked, run.steps, hooked, replays) == (False, ConfigurationCycle(1, 0), 1, [0, 1], [0])


def test_a_rule_patched_after_a_jump_reads_the_jumped_cells():
    # the sweeper writes 0s leftwards; once its cells are pending after a
    # jump, a patched rule turns it back over them, rewriting each 0 as 1
    machine = single_tape_machine("turn", {("q1", "_"): ("q1", "0", "L"), ("back", "0"): ("back", "1", "R")}, start="q1")
    key, body = ("q1", ("_",)), ("back", ("1",), ("R",))
    patched = Machine(**{**vars(machine), "rules": {**machine.rules, key: body}})
    run = Run(machine, "")
    run.advance(100)
    run.patch(key, body)
    run.advance(300)
    config = _last_config(machine, "", 100)
    while config.step < 300 and isinstance(nxt := step(patched, config), NextConfig):
        config = nxt.config
    assert run.halted and run.snapshot() == config and config.step == 201
