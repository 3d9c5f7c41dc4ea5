"""Limit-function evaluation and the halting/divergence pair."""

import sys
import threading
import tracemalloc
from itertools import islice

import pytest

from hypermachine.codec import encode
from hypermachine.corpus import corpus_machine, delay_machine, encodable_corpus, two_state_family
from hypermachine.inductive import halting_limit_decider
from hypermachine.limits import (
    GuessEvaluationError,
    LimitFunction,
    _every_stage,
    builtin_limit_function,
    divergence_as_limit,
    halting_as_limit,
    limit_eval,
)
from hypermachine.machine import BudgetExhausted, InputError, run_bounded, single_tape_machine, words_over

FLIP_D = encode(corpus_machine("flip"))
LOOP_D = encode(corpus_machine("loop"))


def test_constant_converges_without_changes():
    report = limit_eval(builtin_limit_function("constant"), 0, 50, 10)
    assert report.final_guess == "1"
    assert report.changes == 0
    assert report.converged_within_budget
    assert report.guesses_log == ((0, "1"),)
    assert report.stages_evaluated == 51


def test_oscillator_changes_every_stage_and_never_quiesces():
    report = limit_eval(builtin_limit_function("oscillator"), 0, 60, 2)
    assert report.changes == 60
    assert not report.converged_within_budget
    assert report.final_guess == "0"


def test_halting_limit_of_a_halting_machine():
    report = limit_eval(halting_as_limit(FLIP_D, "0"), 0, 100, 10)
    assert report.guesses_log == ((0, "0"), (1, "1"))
    assert report.final_guess == "1"
    assert report.changes == 1
    assert report.converged_within_budget


def test_halting_limit_of_a_nonhalting_machine():
    report = limit_eval(halting_as_limit(LOOP_D, ""), 0, 100, 10)
    assert report.guesses_log == ((0, "0"),)
    assert report.final_guess == "0"
    assert report.changes == 0
    assert report.converged_within_budget


def test_divergence_mirrors_halting():
    report = limit_eval(divergence_as_limit(FLIP_D, "0"), 0, 100, 10)
    assert report.guesses_log == ((0, "1"), (1, "0"))
    assert limit_eval(divergence_as_limit(LOOP_D, ""), 0, 100, 10).final_guess == "1"


def test_halting_guesses_are_monotone_with_at_most_one_change():
    for name, machine in encodable_corpus().items():
        description = encode(machine)
        for word in words_over(("0", "1"), 2):
            up = limit_eval(halting_as_limit(description, word), 0, 300, 5)
            down = limit_eval(divergence_as_limit(description, word), 0, 300, 5)
            assert up.changes <= 1, (name, word)
            assert down.changes <= 1, (name, word)
            if up.changes:
                assert [g for _, g in up.guesses_log] == ["0", "1"], (name, word)
            # pointwise complements at every stage
            flip = {"0": "1", "1": "0"}
            assert [(t, flip[g]) for t, g in up.guesses_log] == list(down.guesses_log), (name, word)


def test_guess_log_is_stage_budget_monotone():
    logs = [
        limit_eval(halting_as_limit(FLIP_D, "0"), 0, budget, 1).guesses_log
        for budget in (1, 2, 5, 40)
    ]
    for shorter, longer in zip(logs, logs[1:]):
        assert longer[: len(shorter)] == shorter


def test_limit_eval_validates_window_and_budget():
    constant = builtin_limit_function("constant")
    with pytest.raises(InputError):
        limit_eval(constant, 0, 5, 0)
    with pytest.raises(InputError):
        limit_eval(constant, 0, 3, 4)


def test_limit_eval_refuses_a_negative_x():
    functions = [builtin_limit_function(name) for name in ("constant", "oscillator", "halting", "divergence")]
    for f in (*functions, halting_as_limit(FLIP_D, "0")):
        with pytest.raises(InputError, match="^x must be >= 0$"):
            limit_eval(f, -5, 10, 2)


def test_window_of_one_is_vacuous():
    report = limit_eval(builtin_limit_function("oscillator"), 0, 10, 1)
    assert report.converged_within_budget


def test_failing_guess_names_the_stage():
    def bad(x, t):
        if t == 3:
            raise ValueError("boom")
        return "0"

    with pytest.raises(GuessEvaluationError) as err:
        limit_eval(LimitFunction("bad", bad), 7, 10, 2)
    assert err.value.x == 7
    assert err.value.stage == 3


def test_a_package_error_in_a_guess_propagates_unwrapped():
    def bad(x, t):
        raise InputError("boom")

    with pytest.raises(InputError, match="^boom$") as err:
        limit_eval(LimitFunction("bad", bad), 7, 10, 2)
    assert type(err.value) is InputError


def test_indexed_builtin_halting():
    # machine 3 halts immediately on its word; machine 1024 spins in place on
    # the leading 0 of its word (certified configuration cycle)
    halting = builtin_limit_function("halting")
    divergence = builtin_limit_function("divergence")
    assert limit_eval(halting, 3, 50, 5).final_guess == "1"
    assert limit_eval(halting, 1024, 50, 5).final_guess == "0"
    assert limit_eval(divergence, 3, 50, 5).final_guess == "0"
    assert limit_eval(divergence, 1024, 50, 5).final_guess == "1"


def test_unknown_builtin_is_rejected():
    with pytest.raises(InputError):
        builtin_limit_function("zeta")


def test_bad_description_is_rejected_up_front():
    from hypermachine.codec import Description, InvalidEncoding

    with pytest.raises(InvalidEncoding):
        halting_as_limit(Description("10"), "")
    with pytest.raises(InvalidEncoding):
        divergence_as_limit(Description("10"), "")


# Change-point evaluation: the per-stage rule is the reference.


def _per_stage(f):
    return LimitFunction(**{**vars(f), "next_change": _every_stage})


def _agree(make, x, stages, window):
    """limit_eval over change points equals per-stage evaluation, each on a
    limit function of its own, so no run is shared between the two."""
    fast = limit_eval(make(), x, stages, window)
    assert fast == limit_eval(_per_stage(make()), x, stages, window)
    return fast


def test_change_points_match_per_stage_on_the_corpus():
    for machine in encodable_corpus().values():
        description = encode(machine)
        for word in words_over(("0", "1"), 3):
            for as_limit in (halting_as_limit, divergence_as_limit):
                for stages in (40, 300):
                    _agree(lambda: as_limit(description, word), 0, stages, 5)


def test_change_points_match_per_stage_on_a_family_sample():
    for machine in islice(two_state_family(), 0, None, 8):
        description = encode(machine)
        for word in words_over(("0", "1"), 2):
            _agree(lambda: halting_as_limit(description, word), 0, 40, 3)


def test_change_points_match_per_stage_on_the_indexed_builtins():
    for name in ("halting", "divergence"):
        for x in (*range(301), 1024):
            _agree(lambda: builtin_limit_function(name), x, 200, 10)


def _reference_log(machine, word, stages, halting):
    """The guess log read off one bounded run: the guess is 1 from the halt
    step on (or, for divergence, before it), and a halt at step h shows
    first at stage h, whose run has h + 1 steps."""
    outcome = run_bounded(machine, word, stages + 1)
    up, down = ("1", "0") if halting else ("0", "1")
    if isinstance(outcome, BudgetExhausted):
        return ((0, down),)
    return ((0, up),) if outcome.steps == 0 else ((0, down), (outcome.steps, up))


def _agree_with_a_bounded_run(machine, word, stages):
    description = encode(machine)
    for as_limit, halting in ((halting_as_limit, True), (divergence_as_limit, False)):
        report = limit_eval(as_limit(description, word), 0, stages, 5)
        assert report.guesses_log == _reference_log(machine, word, stages, halting), (machine.name, word, stages)
    # halts prints the same log as the halting limit
    decided = halting_limit_decider(description, word, stages + 1)
    assert decided.log.entries == _reference_log(machine, word, stages, True), (machine.name, word, stages)


def test_halting_guesses_match_a_bounded_run_on_the_corpus():
    for machine in encodable_corpus().values():
        for word in words_over(("0", "1"), 3):
            for stages in (40, 300):
                _agree_with_a_bounded_run(machine, word, stages)


def test_halting_guesses_match_a_bounded_run_on_a_family_sample():
    for machine in islice(two_state_family(), 0, None, 8):
        for word in words_over(("0", "1"), 2):
            for stages in (40, 300):
                _agree_with_a_bounded_run(machine, word, stages)


def test_halting_guesses_answer_stages_out_of_order():
    # the guesses of one function share one run: a stage asked after the run
    # has passed it is read off the run's halting log, and a change past the
    # horizon is no change
    machine = encode(delay_machine(4))
    halting, divergence = halting_as_limit(machine, ""), divergence_as_limit(machine, "")
    assert [halting.guess(0, t) for t in (49, 3, 4)] == ["1", "0", "1"]
    assert [divergence.guess(0, t) for t in (49, 3, 4)] == ["0", "1", "0"]
    assert [halting.next_change(0, t, horizon) for t, horizon in ((0, 49), (0, 3), (3, 4), (4, 49))] == [4, None, 4, None]
    with pytest.raises(InputError, match="^budget must be >= 1, got 0$"):
        divergence.guess(0, -1)  # no stage precedes stage 0


def _counting(f):
    calls = []

    def guess(x, t):
        calls.append(t)
        return f.guess(x, t)

    return LimitFunction(**{**vars(f), "guess": guess}), calls


def test_a_halting_limit_costs_its_changes_not_its_stages():
    halting, calls = _counting(builtin_limit_function("halting"))
    report = limit_eval(halting, 3, 10**12, 10)
    assert len(calls) <= 2
    assert report.guesses_log == ((0, "1"),)
    assert report.stages_evaluated == 10**12 + 1
    assert report.converged_within_budget

    # the rows below 2,000 that never halt each cycle from step 0: the
    # certificate ends the run, so the guess is final at once
    for x in (1024, 1455, 1483):
        for name, guess in (("halting", "0"), ("divergence", "1")):
            f, calls = _counting(builtin_limit_function(name))
            assert limit_eval(f, x, 10**12, 10).guesses_log == ((0, guess),), (name, x)
            assert len(calls) <= 2, (name, x)

    constant, calls = _counting(builtin_limit_function("constant"))
    assert limit_eval(constant, 0, 10**12, 10).guesses_log == ((0, "1"),)
    assert calls == [0]

    oscillator, calls = _counting(builtin_limit_function("oscillator"))
    limit_eval(oscillator, 0, 60, 2)
    assert calls == list(range(61))


def test_a_builtin_keeps_only_the_current_run():
    # each x has its own run, with its hook's hash history; a sweep over
    # many x must not keep them all
    tracemalloc.start()
    try:
        halting = builtin_limit_function("halting")
        before = tracemalloc.get_traced_memory()[0]
        for x in range(2000):
            limit_eval(halting, x, 10**4, 10)
        held_mb = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()
    assert held_mb < 1


def test_a_sweeper_limit_runs_in_constant_memory():
    # it writes a 0 on a fresh blank at every step, so no certificate fires;
    # the hook passes the sweep, so the observed run ends the trillion steps
    # in one jump and never writes the cells out
    sweeper = single_tape_machine("sweeper", {("q1", "_"): ("q1", "0", "L")}, finals={"q2": False}, start="q1")
    reports = []
    tracemalloc.start()
    try:
        reports.append(limit_eval(halting_as_limit(encode(sweeper), ""), 0, 10**12, 10))
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 1
    assert reports[0].guesses_log == ((0, "0"),)


def test_a_change_point_rule_that_stalls_or_fails_names_the_stage():
    def stalls(x, t, horizon):
        return 5 if t < 5 else t

    def fails(x, t, horizon):
        if t == 4:
            raise ValueError("boom")
        return t + 1

    for rule, stage in ((stalls, 5), (fails, 4)):
        with pytest.raises(GuessEvaluationError) as err:
            limit_eval(LimitFunction("bad", lambda x, t: "0", next_change=rule), 7, 10, 2)
        assert (err.value.x, err.value.stage) == (7, stage)


def test_a_shared_halting_limit_is_safe_under_threads():
    # a binary counter that halts when its count overflows; four threads ask
    # one limit function for guesses on both sides of the halt, so they
    # contend for advancing its one observed run
    counter = single_tape_machine(
        "counter",
        {
            ("go", "0"): ("go", "0", "R"),
            ("go", "1"): ("go", "1", "R"),
            ("go", "_"): ("inc", "_", "L"),
            ("inc", "1"): ("inc", "0", "L"),
            ("inc", "0"): ("ret", "1", "R"),
            ("inc", "_"): ("done", "_", "S"),
            ("ret", "0"): ("ret", "0", "R"),
            ("ret", "1"): ("ret", "1", "R"),
            ("ret", "_"): ("inc", "_", "L"),
        },
        finals={"done": False},
        start="go",
    )
    description, word = encode(counter), "0" * 11
    halt = run_bounded(counter, word, 10**6).steps
    assert halt == 8190
    stages = (halt + 5, halt - 1, halt + 5, halt // 2)
    expected = ["1" if t >= halt else "0" for t in stages]
    wrong = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(50):
            halting = halting_as_limit(description, word)
            guesses = [None] * len(stages)

            def ask(i):
                try:
                    guesses[i] = halting.guess(0, stages[i])
                except Exception as exc:  # reported below
                    guesses[i] = exc

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(stages))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            if guesses != expected:
                wrong.append((trial, guesses))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
