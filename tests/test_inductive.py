"""Stabilizing runs, non-halting certificates, the halting limit-decider,
and the diagonal construction."""

import hashlib
import tracemalloc
from collections import Counter
from itertools import islice, takewhile

import pytest

from hypermachine import inductive
from hypermachine import machine as engine
from hypermachine.codec import Description, InvalidEncoding, decode, encode, index_word, iter_descriptions, nth_description
from hypermachine.codec import UnsupportedMachineError
from hypermachine.corpus import corpus_machine, delay_machine, two_state_family
from hypermachine.dsl import parse_machine_spec
from hypermachine.inductive import (
    BlankRunaway,
    Certificate,
    CertifiedStable,
    ConfigurationCycle,
    HaltsAt,
    Halted,
    Provisional,
    Unknown,
    audit_decider,
    budget_decider,
    certified_decider,
    certify_nonhalting,
    diagonalize,
    halting_limit_decider,
    inductive_run,
)
from hypermachine.machine import BudgetExhausted, HaltedWithResult, InputError, Machine, run_bounded, single_tape_machine

FLIP = corpus_machine("flip")
LOOP = corpus_machine("loop")


# --- inductive runs -----------------------------------------------------------


def test_flicker_stabilizes_after_its_last_rewrite():
    # hand trace: writes 0 on the output at step 1, rewrites it to 1 at step
    # 6, steps off at 7, and then runs right over blanks forever
    outcome = inductive_run(corpus_machine("flicker"), "", 1000)
    assert outcome.current_output == "1"
    assert outcome.last_change_step == 6
    assert outcome.log.entries == ((0, ""), (1, "0"), (6, "1"))
    assert isinstance(outcome.status, CertifiedStable)
    assert isinstance(outcome.status.reason, BlankRunaway)
    assert outcome.status.reason.direction == ("R", "R", "R")


def test_halting_three_tape_machine():
    outcome = inductive_run(corpus_machine("halt3"), "", 1000)
    assert outcome.current_output == "10"
    assert outcome.last_change_step == 2
    assert outcome.steps_executed == 4
    assert outcome.status == CertifiedStable(Halted())


def test_machine_that_never_touches_its_output():
    outcome = inductive_run(corpus_machine("quiet_worker"), "", 100)
    assert outcome.current_output == ""
    assert outcome.last_change_step == 0
    assert outcome.log.entries == ((0, ""),)
    assert outcome.status == Provisional()
    assert outcome.steps_executed == 100


def test_inductive_run_requires_three_tapes():
    with pytest.raises(UnsupportedMachineError):
        inductive_run(FLIP, "0", 10)


def test_observation_log_is_budget_monotone():
    machine = corpus_machine("flicker")
    logs = [inductive_run(machine, "", budget).log.entries for budget in (1, 3, 6, 7, 50, 500)]
    for shorter, longer in zip(logs, logs[1:]):
        assert longer[: len(shorter)] == shorter


def test_certified_output_never_changes_with_more_budget():
    machine = corpus_machine("flicker")
    base = inductive_run(machine, "", 100)
    assert isinstance(base.status, CertifiedStable)
    for budget in (200, 1000, 5000):
        again = inductive_run(machine, "", budget)
        assert again.current_output == base.current_output


# --- certificates --------------------------------------------------------------


def test_ping_pong_yields_a_configuration_cycle():
    result = certify_nonhalting(corpus_machine("ping_pong"), "", 100)
    assert isinstance(result, Certificate)
    assert result.certificate == ConfigurationCycle(period=2, first_repeat_step=0)


def test_loop_yields_a_blank_runaway():
    result = certify_nonhalting(LOOP, "", 100)
    assert isinstance(result, Certificate)
    cert = result.certificate
    assert isinstance(cert, BlankRunaway)
    assert cert.state == "q0"
    assert cert.direction == ("R",)
    assert cert.onset_step == 0


def test_blink_yields_a_period_one_cycle():
    result = certify_nonhalting(corpus_machine("blink"), "", 100)
    assert result.certificate == ConfigurationCycle(period=1, first_repeat_step=0)


def test_halting_machine_reports_halt_step():
    assert certify_nonhalting(FLIP, "0", 100) == HaltsAt(1)
    assert certify_nonhalting(corpus_machine("identity"), "", 100) == HaltsAt(0)


def test_divergence_without_pattern_is_unknown():
    assert certify_nonhalting(corpus_machine("trail"), "", 500) == Unknown()


def test_certificates_are_never_false():
    # spot check: every certified machine stays unhalted far beyond the
    # certificate's onset
    for name in ("loop", "blink", "ping_pong"):
        machine = corpus_machine(name)
        result = certify_nonhalting(machine, "", 50)
        assert isinstance(result, Certificate)
        cert = result.certificate
        onset = cert.onset_step if isinstance(cert, BlankRunaway) else (
            cert.first_repeat_step + cert.period
        )
        budget = max(100 * (onset + 1), 1000)
        assert isinstance(run_bounded(machine, "", budget), BudgetExhausted)


def test_certify_validates_budget():
    with pytest.raises(InputError):
        certify_nonhalting(LOOP, "", 0)


# By hand: the machine erases its input left to right, one cell per step, so
# at step n = len(word) it sits in state a on a blank tape; then a _ -> b moves
# right and b _ -> a moves back, and the configuration of step n recurs at step
# n + 2.  Every earlier configuration still holds input cells, their count
# falling by one per step, so none repeats.
ERASE_THEN_BOUNCE = single_tape_machine(
    "erase_then_bounce",
    {("a", "1"): ("a", "_", "R"), ("a", "_"): ("b", "_", "R"), ("b", "_"): ("a", "_", "L")},
    start="a",
    alphabet=("1",),
)


def test_a_cycle_that_starts_late_is_found_by_the_brent_phase():
    n = 2**16 + 1000  # the cycle starts after the exact history ends
    expected = Certificate(ConfigurationCycle(period=2, first_repeat_step=n))
    for budget in (10**5, 10**5 + 1, 3 * 10**5):
        assert certify_nonhalting(ERASE_THEN_BOUNCE, "1" * n, budget) == expected


def test_the_exact_history_reports_a_cycle_at_its_first_repeat():
    # the cycle starts at step len(word) and first repeats two steps later;
    # Brent's checkpoints alone would see it only at a later repeat
    cycle = Certificate(ConfigurationCycle(period=2, first_repeat_step=900))
    assert certify_nonhalting(ERASE_THEN_BOUNCE, "1" * 900, 903) == cycle
    assert certify_nonhalting(ERASE_THEN_BOUNCE, "1" * 900, 902) == Unknown()
    assert certify_nonhalting(ERASE_THEN_BOUNCE, "1" * 40, 50) == Certificate(ConfigurationCycle(2, 40))
    outcome = halting_limit_decider(encode(ERASE_THEN_BOUNCE), "1" * 900, 1000)
    assert outcome.steps_executed == 902
    assert outcome.status == CertifiedStable(cycle.certificate)


def test_the_brent_phase_alone_gives_the_same_certificates(monkeypatch):
    # the toggler's cycle starts at step 0 on 65 cells, too many to track, so
    # its certificate starts at step 1, where one cell is erased
    toggler = single_tape_machine("toggler", {("a", "1"): ("b", "_", "S"), ("b", "_"): ("a", "1", "S")}, start="a")
    cases = [(m, w) for m in islice(two_state_family(), 0, None, 7) for w in ("", "0110")]
    cases.append((toggler, "1" * 65))
    expected = [certify_nonhalting(m, w, 1000) for m, w in cases]
    assert expected[-1] == Certificate(ConfigurationCycle(period=2, first_repeat_step=1))
    assert sum(isinstance(a, Certificate) and isinstance(a.certificate, ConfigurationCycle) for a in expected) > 50
    monkeypatch.setattr(inductive, "_HISTORY_STEPS", 0)  # no exact history at all
    assert [certify_nonhalting(m, w, 1000) for m, w in cases] == expected


def _on_output_tape(machine):
    """A 3-tape machine running the single-tape ``machine`` on its output
    tape, whatever its input tape holds."""
    blank = machine.blank
    return Machine(
        name=machine.name,
        tape_count=3,
        alphabet=machine.alphabet,
        blank=blank,
        states=machine.states,
        start=machine.start,
        finals=machine.finals,
        rules={
            (q, (s, blank, sym)): (nq, (s, blank, write), ("S", "S", move))
            for (q, (sym,)), (nq, (write,), (move,)) in machine.rules.items()
            for s in machine.alphabet
        },
    )


def test_the_brent_phase_alone_gives_the_same_multi_tape_answers(monkeypatch):
    cases = [(_on_output_tape(m), w) for m in islice(two_state_family(), 0, None, 97) for w in ("", "0110")]
    certified = [certify_nonhalting(m, w, 1000) for m, w in cases]
    observed = [inductive_run(m, w, 1000) for m, w in cases]
    assert sum(isinstance(a, Certificate) and isinstance(a.certificate, ConfigurationCycle) for a in certified) > 25
    monkeypatch.setattr(inductive, "_HISTORY_STEPS", 0)  # no exact history at all
    assert [certify_nonhalting(m, w, 1000) for m, w in cases] == certified
    assert [inductive_run(m, w, 1000) for m, w in cases] == observed


# Over 1, x and y, the shared rules turn the input 1^k into x^k y^2k, one 1 per
# round: the leftmost 1 becomes x and yy is appended at the right end.  In
# state s the head then stands on the first y.  With k = 50 the tape grows
# from 50 cells, tracked, to 150, more than the engine shows the hook.
_GROW = {
    ("s", "1"): ("a", "x", "R"),
    ("a", "1"): ("a", "1", "R"),
    ("a", "y"): ("a", "y", "R"),
    ("a", "_"): ("b", "y", "R"),
    ("b", "_"): ("c", "y", "L"),
    ("c", "y"): ("c", "y", "L"),
    ("c", "1"): ("c", "1", "L"),
    ("c", "x"): ("s", "x", "R"),
}


def _grown(name, rules):
    return single_tape_machine(name, {**_GROW, **rules}, start="s", alphabet=("1", "x", "y"))


# then undoes the growth, two y erased and the rightmost x back to 1 per
# round, and returns to the start configuration without moving
EXCURSION = _grown(
    "excursion",
    {
        ("s", "y"): ("t", "y", "R"),
        ("t", "y"): ("t", "y", "R"),
        ("t", "x"): ("t", "x", "R"),
        ("t", "1"): ("t", "1", "R"),
        ("t", "_"): ("u", "_", "L"),
        ("u", "y"): ("v", "_", "L"),
        ("v", "y"): ("w", "_", "L"),
        ("w", "y"): ("w", "y", "L"),
        ("w", "1"): ("w", "1", "L"),
        ("w", "x"): ("z", "1", "L"),
        ("z", "x"): ("z", "x", "L"),
        ("z", "_"): ("r", "_", "R"),
        ("r", "x"): ("t", "x", "R"),
        ("r", "1"): ("s", "1", "S"),
    },
)
# then erases every y from the right and bounces on the blank after the x block
BOUNCE = _grown(
    "bounce",
    {
        ("s", "y"): ("e", "y", "R"),
        ("e", "y"): ("e", "y", "R"),
        ("e", "_"): ("f", "_", "L"),
        ("f", "y"): ("f", "_", "L"),
        ("f", "x"): ("g", "x", "R"),
        ("g", "_"): ("h", "_", "R"),
        ("h", "_"): ("g", "_", "L"),
    },
)
# then runs right over blanks with all 150 cells on the tape
FAR_RUNAWAY = _grown(
    "far_runaway",
    {("s", "y"): ("e", "y", "R"), ("e", "y"): ("e", "y", "R"), ("e", "_"): ("e", "_", "R")},
)


def _on_input_tape(machine):
    """A 3-tape machine running the single-tape ``machine`` on its input
    tape, with the other two heads parked on blank."""
    blank = machine.blank
    return Machine(
        name=machine.name,
        tape_count=3,
        alphabet=machine.alphabet,
        blank=blank,
        states=machine.states,
        start=machine.start,
        finals=machine.finals,
        rules={
            (q, (sym, blank, blank)): (nq, (write, blank, blank), (move, "S", "S"))
            for (q, (sym,)), (nq, (write,), (move,)) in machine.rules.items()
        },
    )


def test_cycles_through_a_large_tape_are_found_once_it_shrinks():
    # expected values as the hook gave them on every step: the excursion's
    # start configuration recurs only after 150 cells, so its repeat is seen
    # only if the hash is rebuilt after the steps the engine skipped
    excursion = ConfigurationCycle(17751, 0)
    # the bounce repeats on the 50 x cells, after 100 y were erased
    bounce = ConfigurationCycle(2, 7802)
    assert certify_nonhalting(EXCURSION, "1" * 50, 10**5) == Certificate(excursion)
    assert certify_nonhalting(BOUNCE, "1" * 50, 10**5) == Certificate(bounce)
    # on three tapes the hook sees every step and keeps its hashes throughout
    for machine, cycle in ((EXCURSION, excursion), (BOUNCE, bounce)):
        three = _on_input_tape(machine)
        assert certify_nonhalting(three, "1" * 50, 10**5) == Certificate(cycle)
        assert inductive_run(three, "1" * 50, 10**5).status == CertifiedStable(cycle)


# walks right over its input, then from the blank past it writes a 1 (one
# cell more than the input), steps onto the blank beyond, comes back and
# erases the 1: every period leaves the tracked configurations and returns
CROSSER = single_tape_machine(
    "crosser",
    {
        ("s0", "1"): ("s0", "1", "R"),
        ("s0", "_"): ("s", "_", "S"),
        ("s", "_"): ("t", "1", "R"),
        ("t", "_"): ("u", "_", "L"),
        ("u", "1"): ("s", "_", "S"),
    },
    start="s0",
)


def test_a_cycle_that_crosses_the_cell_bound_on_every_period_is_found():
    # on 64 input cells the cycle's start holds 64 cells, the most that is
    # tracked, and its other two steps one more, so each repeat is seen only
    # if the hash is rebuilt on the first tracked step after untracked ones
    cycle = ConfigurationCycle(3, 65)
    word = "1" * 64
    assert certify_nonhalting(CROSSER, word, 1000) == Certificate(cycle)
    three = _on_input_tape(CROSSER)
    assert certify_nonhalting(three, word, 1000) == Certificate(cycle)
    assert inductive_run(three, word, 1000).status == CertifiedStable(cycle)


def test_a_runaway_on_a_large_tape_is_found():
    expected = Certificate(BlankRunaway("e", ("R",), 7700))
    assert certify_nonhalting(FAR_RUNAWAY, "1" * 50, 10**5) == expected
    runaway = BlankRunaway("e", ("R", "S", "S"), 7700)
    three = _on_input_tape(FAR_RUNAWAY)
    assert certify_nonhalting(three, "1" * 50, 10**5) == Certificate(runaway)
    assert inductive_run(three, "1" * 50, 10**5).status == CertifiedStable(runaway)


# erases the 0s past its 1s, then bounces forever through the gap of blank
# cells that they leave, between the last of those 1s and the 1 after them
GAP_BOUNCER = single_tape_machine(
    "gap_bouncer",
    {
        ("a", "1"): ("a", "1", "R"),
        ("a", "0"): ("e", "_", "R"),
        ("e", "0"): ("e", "_", "R"),
        ("e", "1"): ("b", "1", "L"),
        ("b", "_"): ("b", "_", "L"),
        ("b", "1"): ("r", "1", "R"),
        ("r", "_"): ("r", "_", "R"),
        ("r", "1"): ("b", "1", "L"),
    },
    start="a",
)


def test_a_sweep_through_a_gap_is_tested_for_a_runaway_once(monkeypatch):
    # inside the gap the cell next to the head is blank, so each extent test
    # scans the tape; a sweep is tested at its first step only, about one
    # scan per 20 steps instead of one per step
    scans = []

    def counted(scan):
        def counting(*args, **kwargs):
            scans.append(scan.__name__)
            return scan(*args, **kwargs)

        return counting

    monkeypatch.setitem(vars(engine), "min", counted(min))
    monkeypatch.setitem(vars(engine), "max", counted(max))
    word = "1" * 200 + "0" * 20 + "1"
    for machine in (GAP_BOUNCER, _on_input_tape(GAP_BOUNCER)):
        scans.clear()
        assert certify_nonhalting(machine, word, 10**4) == Unknown()
        assert len(scans) <= 1000, machine.tape_count


def test_the_hook_on_every_step_gives_the_same_certificates(monkeypatch):
    family = [(m, w, 1000) for m in islice(two_state_family(), 0, None, 7) for w in ("", "0110")]
    cases = family + [(m, "1" * 50, 10**5) for m in (EXCURSION, BOUNCE, FAR_RUNAWAY)]
    expected = [certify_nonhalting(*case) for case in cases]
    # the engine skips the hook on many of these runs
    grown = [run_bounded(*case) for case in family]
    assert sum(isinstance(o, BudgetExhausted) and len(o.config.tapes[0]) > engine._HOOK_CELLS for o in grown) > 500
    monkeypatch.setattr(engine, "_HOOK_CELLS", float("inf"))
    assert [certify_nonhalting(*case) for case in cases] == expected


def test_forced_hash_collisions_change_no_certificate(monkeypatch):
    machines = list(islice(two_state_family(), 0, None, 7))
    words = ("", "0110")
    budget = 100
    expected = [certify_nonhalting(m, w, budget) for m in machines for w in words]
    confirmations = []
    same = inductive._Cycles._same

    def counted(self, *args):
        confirmations.append(same(self, *args))
        return confirmations[-1]

    monkeypatch.setattr(inductive, "_MODULUS", 31)  # keys now collide often
    monkeypatch.setattr(inductive._Cycles, "_same", counted)
    assert [certify_nonhalting(m, w, budget) for m in machines for w in words] == expected
    assert confirmations.count(False) > 100  # collisions were met and rejected
    assert True in confirmations


COUNTER_SPEC = """
machine counter
start: go
rule go 0 -> go 0 R
rule go 1 -> go 1 R
rule go _ -> inc _ L
rule inc 1 -> inc 0 L
rule inc 0 -> ret 1 R
rule inc _ -> ret 1 R
rule ret 0 -> ret 0 R
rule ret 1 -> ret 1 R
rule ret _ -> inc _ L
"""

# the same rules acting on the output tape, the other heads parked on blank
COUNTER3_SPEC = """
machine counter3
tapes: 3
start: go
rule go _ _ 0 -> go _ _ 0 S S R
rule go _ _ 1 -> go _ _ 1 S S R
rule go _ _ _ -> inc _ _ _ S S L
rule inc _ _ 1 -> inc _ _ 0 S S L
rule inc _ _ 0 -> ret _ _ 1 S S R
rule inc _ _ _ -> ret _ _ 1 S S R
rule ret _ _ 0 -> ret _ _ 0 S S R
rule ret _ _ 1 -> ret _ _ 1 S S R
rule ret _ _ _ -> inc _ _ _ S S L
"""


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_cycle_detection_memory_is_bounded():
    # binary counters: their tapes stay short, so every configuration is
    # cycle-tracked, and none ever repeats
    counter = parse_machine_spec(COUNTER_SPEC).machine
    assert _traced_peak_mb(certify_nonhalting, counter, "0", 200_000) < 20
    # the observation log itself takes an entry every other step here, so
    # the inductive run is measured over fewer steps
    counter3 = parse_machine_spec(COUNTER3_SPEC).machine
    assert _traced_peak_mb(inductive_run, counter3, "", 50_000) < 20


def test_an_observed_sweeper_runs_in_constant_memory():
    # it writes a 0 on a fresh blank at every step, so a run that wrote out
    # every cell it passes would hold as many cells as the budget has steps
    sweeper = single_tape_machine("sweeper", {("q1", "_"): ("q1", "0", "L")}, finals={"q2": False}, start="q1")
    assert encode(sweeper) == Description("011001010101010010")
    budget = 200_000
    answers = []
    assert _traced_peak_mb(lambda: answers.append(certify_nonhalting(sweeper, "", budget))) < 1
    assert _traced_peak_mb(lambda: answers.append(halting_limit_decider(encode(sweeper), "", budget))) < 1
    certified, decided = answers
    assert certified == Unknown()
    assert isinstance(decided.status, Provisional) and decided.steps_executed == budget
    assert (decided.current_output, decided.last_change_step) == ("0", 0)


def _census(machines):
    counts = Counter()
    for machine in machines:
        answer = certify_nonhalting(machine, "", 1000)
        counts[type(answer.certificate).__name__ if isinstance(answer, Certificate) else type(answer).__name__] += 1
    return counts


def test_the_certificate_census_on_the_empty_word():
    """The answers at budget 1000 on "", pinned so that any change in what
    the certifier finds shows here.  New certificate kinds and statuses
    (ROADMAP items 2 and 3) move these counts on purpose; the change that
    moves them updates them here and explains the move in its CHANGES.md
    entry."""
    assert _census(two_state_family()) == {
        "HaltsAt": 8020,
        "ConfigurationCycle": 1046,
        "BlankRunaway": 1444,
        "Unknown": 3208,
    }
    short = takewhile(lambda description: len(description.bits) <= 31, iter_descriptions())
    assert _census(map(decode, short)) == {
        "HaltsAt": 41_054,
        "ConfigurationCycle": 425,
        "BlankRunaway": 1_327,
        "Unknown": 1_676,
    }


def test_the_certificate_digest_on_five_words():
    """The sha256 over ``str(answer) + "\n"`` of every certify_nonhalting
    answer at budget 1000 on the family x "" 0 1 01 110 (68,590 runs, machine
    by machine).  Like the census above, a change that moves it explains the
    move in its CHANGES.md entry."""
    digest = hashlib.sha256()
    for machine in two_state_family():
        for word in ("", "0", "1", "01", "110"):
            digest.update((str(certify_nonhalting(machine, word, 1000)) + "\n").encode())
    assert digest.hexdigest() == "cd1d0b859d8875672ed25511ffafe4f600dc474c38eccacb313e34151b24c2de"


# --- halting limit-decider ------------------------------------------------------


def test_decider_on_a_halting_machine():
    outcome = halting_limit_decider(encode(FLIP), "0", 100)
    assert outcome.current_output == "1"
    assert outcome.last_change_step == 1
    assert outcome.log.entries == ((0, "0"), (1, "1"))
    assert outcome.status == CertifiedStable(Halted())


def test_decider_on_a_certified_nonhalter():
    outcome = halting_limit_decider(encode(LOOP), "", 1000)
    assert outcome.current_output == "0"
    assert outcome.last_change_step == 0
    assert isinstance(outcome.status, CertifiedStable)
    assert isinstance(outcome.status.reason, BlankRunaway)


def test_decider_on_a_machine_halting_just_past_the_budget():
    budget = 50
    machine = delay_machine(budget + 1)
    outcome = halting_limit_decider(encode(machine), "", budget)
    assert outcome.current_output == "0"
    assert outcome.status == Provisional()


def test_decider_on_an_immediate_halter():
    outcome = halting_limit_decider(encode(corpus_machine("identity")), "", 10)
    assert outcome.current_output == "1"
    assert outcome.log.entries == ((0, "1"),)
    assert outcome.status == CertifiedStable(Halted())


def test_decider_propagates_invalid_encodings():
    with pytest.raises(InvalidEncoding):
        halting_limit_decider(Description("10"), "", 10)


def test_decider_agrees_with_certify_route():
    # the decider simulates the decoded machine, so certificates carry the
    # canonical state names; compare everything but those
    for name in ("flip", "loop", "blink", "ping_pong", "trail", "identity"):
        machine = corpus_machine(name)
        word = "0" if name == "flip" else ""
        decided = halting_limit_decider(encode(machine), word, 500)
        observed = certify_nonhalting(machine, word, 500)
        assert decided.current_output == ("1" if isinstance(observed, HaltsAt) else "0")
        if isinstance(observed, Certificate):
            assert isinstance(decided.status, CertifiedStable)
            mirrored = decided.status.reason
            original = observed.certificate
            assert type(mirrored) is type(original)
            if isinstance(original, ConfigurationCycle):
                assert mirrored == original
            else:
                assert (mirrored.direction, mirrored.onset_step) == (original.direction, original.onset_step)
        elif isinstance(observed, Unknown):
            assert decided.status == Provisional()


# --- diagonalization -------------------------------------------------------------


def _never(description, word):
    return False


def _always(description, word):
    return True


def test_claimed_nonhalt_gives_zero():
    for word in ("", "0", "11", "010"):
        assert diagonalize(_never, word, 100) == "0"


def test_diagonal_flips_an_observed_result():
    # machine 3 returns its own word: T_3("00") = "00", so the diagonal
    # answers 1 and differs
    word = index_word(3)
    observed = run_bounded(decode_t(3), word, 100)
    assert observed == HaltedWithResult("00", 0)
    assert diagonalize(budget_decider(100), word, 100) == "1"
    assert diagonalize(budget_decider(100), word, 100) != observed.result


def decode_t(n):
    return decode(nth_description(n))


def test_diagonal_branches_via_explicit_rows():
    rows = [
        (encode(FLIP), "0"),  # halts with result 1 -> diagonal 0
        (encode(FLIP), ""),  # halts resultless -> diagonal 1
        (encode(corpus_machine("eraser")), "01"),  # halts with result "" -> diagonal 1
    ]
    report = audit_decider(budget_decider(100), 0, 200, 100, rows=rows)
    assert [row.diagonal for row in report.rows] == ["0", "1", "1"]
    assert not any(row.contradiction for row in report.rows)
    assert all(row.completed for row in report.rows)


def test_budget_exhaustion_inside_the_diagonal_is_flagged():
    report = audit_decider(_always, 0, 200, 50, rows=[(encode(LOOP), "")])
    row = report.rows[0]
    assert row.diagonal == "1"
    assert row.tie_break
    assert not row.completed


# --- audits ----------------------------------------------------------------------


def test_empty_audit():
    report = audit_decider(budget_decider(10), 0, 100, 50)
    assert report.rows == ()
    assert "index" in report.to_tsv().splitlines()[0]


def test_exact_decider_survives_the_audit():
    report = audit_decider(certified_decider(10_000), 50, 10_000, 10_000)
    assert report.contradictions == ()
    for row in report.rows:
        if row.completed and isinstance(row.observed, HaltedWithResult):
            assert row.diagonal != row.observed.result


def test_shallow_decider_is_convicted_by_a_late_halter():
    rows = [
        (encode(delay_machine(9)), ""),  # halts at step 9, past the decider's budget
        (encode(FLIP), ""),
        (encode(LOOP), ""),
    ]
    report = audit_decider(budget_decider(5), 0, 100, 50, rows=rows)
    flags = [row.contradiction for row in report.rows]
    assert flags == [True, False, False]
    convicted = report.rows[0]
    assert not convicted.claims_halt
    assert convicted.observed == HaltedWithResult("", 9)


def test_audit_validates_budgets():
    with pytest.raises(InputError):
        audit_decider(budget_decider(5), 3, 10, 20)
    with pytest.raises(InputError):
        audit_decider(budget_decider(5), -1, 20, 10)


def test_audit_tsv_is_line_oriented():
    report = audit_decider(budget_decider(50), 4, 100, 50)
    lines = report.to_tsv().splitlines()
    assert lines[0].split("\t") == [
        "index", "word", "claim", "observed", "diagonal", "contradiction", "completed", "tie_break",
    ]
    assert len(lines) == 5
    assert lines[1].startswith("0\t")
