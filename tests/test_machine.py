"""Core engine tests: stepping, bounded runs, and behavioural comparison."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermachine.corpus import corpus_machine, delay_machine
from hypermachine.inductive import (
    BlankRunaway,
    Certificate,
    ConfigurationCycle,
    HaltsAt,
    certify_nonhalting,
    inductive_run,
)
from hypermachine.machine import (
    BLANK,
    AtFinal,
    BudgetExhausted,
    Configuration,
    Counterexample,
    EquivalentUpTo,
    HaltProbe,
    HaltedResultless,
    HaltedWithResult,
    InputError,
    Machine,
    NextConfig,
    NoRule,
    StructureError,
    _retrim,
    config_sequence,
    initial_configuration,
    observational_equiv,
    outcomes_agree,
    result_tape_index,
    run_bounded,
    single_tape_machine,
    step,
    trimmed_word,
    words_over,
)
from hypermachine.reflexive import EditLog, ReflexiveMachine, reflexive_config_sequence
from hypermachine.trace import record_of, trace_run, watch

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
def test_halt_probe_agrees_with_run_bounded(machine, word, budget):
    probe = HaltProbe(machine, word)
    assert probe.halted_by(budget) == (not isinstance(run_bounded(machine, word, budget), BudgetExhausted))


@st.composite
def small_three_tape_machines(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    states = [f"s{i}" for i in range(n)]
    flags = draw(st.lists(st.sampled_from([None, False, True]), min_size=n - 1, max_size=n - 1))
    finals = {q: flag for q, flag in zip(states[1:], flags) if flag is not None}
    rules = {}
    for q in states:
        if q in finals:
            continue
        for syms in itertools.product(_SYMS, repeat=3):
            if draw(st.integers(0, 7)):  # dense, so that runs last
                # blank writes and stays are drawn more often, so that
                # runaways and cycles show up
                rules[(q, syms)] = (
                    draw(st.sampled_from(states)),
                    draw(st.tuples(*[st.sampled_from(("_", "_", "0", "1"))] * 3)),
                    draw(st.tuples(*[st.sampled_from(["L", "R", "S", "S"])] * 3)),
                )
    return Machine(
        name="rand3",
        tape_count=3,
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
        return HaltedWithResult(trimmed_word(last.tapes[result_tape_index(machine)]), last.step)
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


@given(st.one_of(small_machines(), small_three_tape_machines()))
@example(_BOUNCER)
@example(_BOUNCER3)
@example(_ERASE_REGROW)
@example(_ERASE_LEFTMOST)
@example(_ERASE_RIGHTMOST)
@example(_INTERIOR_BLANK)
@example(_OUTPUT_TOGGLER)
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
        probe = HaltProbe(machine, word)
        for b in [*range(1, budget + 1), *range(budget, 0, -1)]:
            assert probe.halted_by(b) == (halt is not None and halt < b)

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
        assert trace_run(ReflexiveMachine(machine, {}), word, budget) == traced
        assert reflexive_config_sequence(ReflexiveMachine(machine, {}), word, budget) == (seq, EditLog(()))


def test_delay_machine_halts_exactly_on_time():
    for k in (1, 4, 9):
        machine = delay_machine(k)
        assert run_bounded(machine, "", k + 1) == HaltedWithResult("", k)
        assert isinstance(run_bounded(machine, "", k), BudgetExhausted)


def test_halt_probe_answers_out_of_order_queries():
    probe = HaltProbe(delay_machine(4), "")
    assert probe.halted_by(50)
    assert not probe.halted_by(4)  # asked after the probe advanced past it
    assert probe.halted_by(5)
    assert probe.halt_step == 4
