"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
The exhaustive study set is the declared two-state family (start state with
any rule table over {_, 0, 1}, one final state): 13718 machines.  Ground
truth for it is computed once and shared.
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from hypermachine.cli import main as cli_main
from hypermachine.codec import (
    Description,
    decode,
    encode,
    enumerate_machines,
    iter_descriptions,
    universal_run,
)
from hypermachine.corpus import (
    CORPUS_SPECS,
    LOCATABLE,
    corpus_machine,
    delay_machine,
    encodable_corpus,
    two_state_family,
    two_state_family_size,
)
from hypermachine.dsl import parse_machine_spec, unparse
from hypermachine.inductive import (
    Certificate,
    CertifiedStable,
    Halted,
    Provisional,
    audit_decider,
    budget_decider,
    certified_decider,
    certify_nonhalting,
    halting_limit_decider,
)
from hypermachine.limits import (
    builtin_limit_function,
    divergence_as_limit,
    halting_as_limit,
    limit_eval,
)
from hypermachine.machine import (
    BudgetExhausted,
    EquivalentUpTo,
    HaltedWithResult,
    Machine,
    config_sequence,
    observational_equiv,
    run_bounded,
    words_over,
)
from hypermachine.reflexive import ReflexiveMachine, compare_efficiency, reflexive_config_sequence
from hypermachine.subrec import DfaFound, NoDfaMatches, sample_anbn, sample_parity, separation_search

TRUTH_BUDGET = 10_000


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


@dataclass(frozen=True)
class FamilyRow:
    machine: Machine
    bits: str
    halted: bool
    halt_steps: int
    result: str | None
    certificate: object  # Certificate | Unknown for non-halters, None otherwise


@pytest.fixture(scope="module")
def family_truth():
    rows = []
    for machine in two_state_family():
        bits = encode(machine).bits
        truth = run_bounded(machine, "", TRUTH_BUDGET)
        if isinstance(truth, BudgetExhausted):
            cert = certify_nonhalting(machine, "", TRUTH_BUDGET)
            rows.append(FamilyRow(machine, bits, False, -1, None, cert))
        else:
            result = truth.result if isinstance(truth, HaltedWithResult) else None
            rows.append(FamilyRow(machine, bits, True, truth.steps, result, None))
    assert len(rows) == two_state_family_size()
    return rows


def test_criterion_1_universal_fidelity():
    with criterion(1, "universal fidelity"):
        inputs = list(words_over(("0", "1"), 2))
        checked = 0
        for machine in two_state_family():
            description = encode(machine)
            for word in inputs:
                mirrored = universal_run(description, word, 200)
                direct = run_bounded(machine, word, 200)
                assert type(mirrored) is type(direct)
                assert mirrored.steps == direct.steps
                if isinstance(direct, HaltedWithResult):
                    assert mirrored.result == direct.result
                checked += 1
        assert checked == two_state_family_size() * len(inputs)


def test_criterion_2_enumerator_soundness_and_completeness():
    with criterion(2, "enumerator soundness + bounded completeness"):
        for description in enumerate_machines(500):
            machine = decode(description)
            assert encode(machine).bits == description.bits
        # every locatable corpus machine appears within the recorded bound,
        # including flip with its full rule table and final section
        targets = {encode(corpus_machine(name)).bits: name for name in LOCATABLE}
        targets[encode(corpus_machine("flip")).bits] = "flip"
        assert len(targets) >= 10
        bound = 1_209_755  # flip's frozen enumeration index
        found = {}
        for n, description in enumerate(iter_descriptions()):
            name = targets.get(description.bits)
            if name is not None:
                found[name] = n
                if len(found) == len(targets):
                    break
            if n > bound:
                break
        assert set(found) == set(targets.values()), f"missing {set(targets.values()) - set(found)}"
        assert found["flip"] == bound


def test_criterion_3_halting_limit_decider(family_truth):
    with criterion(3, "halting limit-decider correctness"):
        for row in family_truth:
            outcome = halting_limit_decider(Description(row.bits), "", TRUTH_BUDGET)
            assert (outcome.current_output == "1") == row.halted
            if row.halted:
                assert outcome.status == CertifiedStable(Halted())
                assert outcome.last_change_step == row.halt_steps
            elif isinstance(row.certificate, Certificate):
                assert isinstance(outcome.status, CertifiedStable)
                inner = outcome.status.reason
                assert type(inner) is type(row.certificate.certificate)
            else:
                assert outcome.status == Provisional()


def test_criterion_4_diagonal_inequality():
    with criterion(4, "diagonal inequality"):
        report = audit_decider(certified_decider(TRUTH_BUDGET), 50, TRUTH_BUDGET, TRUTH_BUDGET)
        assert report.contradictions == ()
        completed_results = 0
        for row in report.rows:
            if row.completed and isinstance(row.observed, HaltedWithResult):
                assert row.diagonal != row.observed.result
                completed_results += 1
        assert completed_results > 0
        # a shallow decider is convicted by a machine halting past its budget
        rows = [
            (encode(delay_machine(9)), ""),
            (encode(corpus_machine("flip")), ""),
            (encode(corpus_machine("loop")), ""),
            (encode(corpus_machine("identity")), ""),
        ]
        shallow = audit_decider(budget_decider(5), 0, 100, 50, rows=rows)
        assert [r.contradiction for r in shallow.rows] == [True, False, False, False]


def test_criterion_5_limit_framework(family_truth):
    with criterion(5, "limit framework"):
        constant = limit_eval(builtin_limit_function("constant"), 0, 100, 10)
        assert constant.changes == 0 and constant.converged_within_budget
        oscillator = builtin_limit_function("oscillator")
        for budget in range(2, 1001):
            assert not limit_eval(oscillator, 0, budget, 2).converged_within_budget
        flip_map = {"0": "1", "1": "0"}
        for row in family_truth:
            description = Description(row.bits)
            stages = max(row.halt_steps + 3, 40) if row.halted else 40
            up = limit_eval(halting_as_limit(description, ""), 0, stages, 3)
            down = limit_eval(divergence_as_limit(description, ""), 0, stages, 3)
            assert [(t, flip_map[g]) for t, g in up.guesses_log] == list(down.guesses_log)
            assert up.changes <= 1 and down.changes <= 1
            if row.halted:
                assert up.final_guess == "1" and down.final_guess == "0"
            elif isinstance(row.certificate, Certificate):
                # certified non-halters: the guess is definitionally 0 forever
                assert up.final_guess == "0" and down.final_guess == "1"
                assert up.changes == 0
        # spot checks at the full stage budget
        sample = [family_truth[i] for i in range(0, len(family_truth), 1500)]
        for row in sample:
            report = limit_eval(halting_as_limit(Description(row.bits), ""), 0, TRUTH_BUDGET, 10)
            assert (report.final_guess == "1") == row.halted


def test_criterion_6_reflexive_machines():
    with criterion(6, "reflexive machines"):
        for name, text in CORPUS_SPECS.items():
            machine = parse_machine_spec(text).machine
            if not isinstance(machine, Machine):
                continue
            wrapper = ReflexiveMachine(machine, {})
            for word in ("", "0", "01", "0011"):
                assert reflexive_config_sequence(wrapper, word, 60)[0] == config_sequence(machine, word, 60), (name, word)
        interp = corpus_machine("interp")
        specializer = corpus_machine("specializer")
        rows = compare_efficiency(interp, specializer, ["0" * 4, "0" * 8, "0" * 16], 10_000)
        assert [(r.static_steps, r.reflexive_steps) for r in rows] == [(21, 9), (41, 13), (81, 21)]
        assert all(r.same_result for r in rows)
        gaps = [r.static_steps - r.reflexive_steps for r in rows]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_criterion_7_subrecursive_separation():
    with criterion(7, "subrecursive separation"):
        sample = sample_anbn(6, max_n=3)
        report = separation_search(sample, 3)
        assert report.witness == NoDfaMatches()
        recognizer = corpus_machine("anbn")
        for word, bit in sample.items():
            outcome = run_bounded(recognizer, word, 10_000)
            assert isinstance(outcome, HaltedWithResult) and outcome.result == str(bit), word
        parity = separation_search(sample_parity(4), 2)
        assert isinstance(parity.witness, DfaFound)


def test_criterion_8_pipeline_and_format_stability(tmp_path, capsys):
    with criterion(8, "pipeline and format stability"):
        for name, machine in encodable_corpus().items():
            reparsed = parse_machine_spec(unparse(decode(encode(machine)))).machine
            verdict = observational_equiv(machine, reparsed, 4, 400)
            assert isinstance(verdict, EquivalentUpTo), name
        spec_path = tmp_path / "eraser.tm"
        spec_path.write_text(CORPUS_SPECS["eraser"])
        traces = []
        for stem in ("one", "two"):
            out = tmp_path / f"{stem}.trace"
            code = cli_main(["run", str(spec_path), "--input", "0110", "--trace", str(out)])
            capsys.readouterr()
            assert code == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        assert traces[0].startswith(b"step=0\t")


@pytest.mark.filterwarnings("default::UserWarning")
def test_criterion_9_performance_target():
    with criterion(9, "performance target"):
        # ping_pong changes state on every step, so no sweep jump shortens the run
        machine = corpus_machine("ping_pong")
        steps = 10_000_000
        started = time.perf_counter()
        outcome = run_bounded(machine, "", steps)
        elapsed = time.perf_counter() - started
        assert isinstance(outcome, BudgetExhausted) and outcome.steps == steps
        rate = steps / elapsed
        print(f"\nmeasured engine rate: {rate:,.0f} steps/s over {steps} steps ({elapsed:.2f}s)")
        if rate < 1_000_000:
            warnings.warn(f"engine rate {rate:,.0f} steps/s is below the 1e6 soft target")
