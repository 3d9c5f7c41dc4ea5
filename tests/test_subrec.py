"""DFA semantics, exact equivalence, and the exhaustive separation search."""

from typing import Iterator, Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermachine import subrec
from hypermachine.corpus import corpus_machine
from hypermachine.machine import HaltedWithResult, InputError, run_bounded, words_over
from hypermachine.subrec import (
    Counterexample,
    Dfa,
    DfaFound,
    Equivalent,
    NoDfaMatches,
    SearchSpaceError,
    SeparationReport,
    _build_dfa,
    _completion_counts,
    dfa_equiv,
    dfa_run,
    sample_anbn,
    sample_palindrome,
    sample_parity,
    separation_search,
)


def parity_dfa(names=("even", "odd")):
    even, odd = names
    return Dfa(
        states=(even, odd),
        start=even,
        accepting=frozenset({even}),
        delta={
            (even, "0"): even,
            (even, "1"): odd,
            (odd, "0"): odd,
            (odd, "1"): even,
        },
    )


ALL_ACCEPTING = Dfa(states=("s",), start="s", accepting=frozenset({"s"}), delta={("s", "0"): "s", ("s", "1"): "s"})


def test_dfa_run_parity():
    dfa = parity_dfa()
    assert dfa_run(dfa, "11")
    assert not dfa_run(dfa, "1")
    assert dfa_run(dfa, "")  # empty fold accepts iff the start state accepts
    with pytest.raises(InputError):
        dfa_run(dfa, "02")


def test_dfa_requires_total_delta():
    with pytest.raises(InputError):
        Dfa(states=("a",), start="a", accepting=frozenset(), delta={("a", "0"): "a"})


_TWO_STATES = {"states": ("a", "b"), "start": "a", "accepting": frozenset({"b"})}
_DELTA = {("a", "0"): "b", ("a", "1"): "a", ("b", "0"): "a", ("b", "1"): "b"}


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Dfa(**{**_TWO_STATES, "start": "z"}, delta=_DELTA), "start state 'z' is not declared"),
        (
            lambda: Dfa(**{**_TWO_STATES, "accepting": frozenset({"z"})}, delta=_DELTA),
            "accepting states must be declared states",
        ),
        (lambda: Dfa(**_TWO_STATES, delta={**_DELTA, ("b", "1"): "z"}), "delta target 'z' is not declared"),
        (
            lambda: dfa_equiv(
                Dfa(**_TWO_STATES, delta=_DELTA),
                Dfa(**_TWO_STATES, delta={("a", "0"): "b", ("b", "0"): "a"}, alphabet=("0",)),
            ),
            "DFAs do not share an alphabet",
        ),
        (lambda: separation_search({"0": 1}, 0), "max_states must be >= 1"),
    ],
    ids=["start", "accepting", "target", "alphabets", "max_states"],
)
def test_malformed_dfas_and_searches_are_rejected(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_dfa_equiv_modulo_renaming():
    assert dfa_equiv(parity_dfa(), parity_dfa(("x", "y"))) == Equivalent()


def test_dfa_equiv_reflexive():
    assert dfa_equiv(ALL_ACCEPTING, ALL_ACCEPTING) == Equivalent()


def test_dfa_equiv_shortest_counterexample():
    assert dfa_equiv(parity_dfa(), ALL_ACCEPTING) == Counterexample("1")


def test_dfa_equiv_counterexample_is_shortest_and_lex_least():
    # accepts words ending in 1 vs words ending in 11: first difference is "1"
    ends1 = Dfa(
        states=("a", "b"),
        start="a",
        accepting=frozenset({"b"}),
        delta={("a", "0"): "a", ("a", "1"): "b", ("b", "0"): "a", ("b", "1"): "b"},
    )
    ends11 = Dfa(
        states=("a", "b", "c"),
        start="a",
        accepting=frozenset({"c"}),
        delta={
            ("a", "0"): "a", ("a", "1"): "b",
            ("b", "0"): "a", ("b", "1"): "c",
            ("c", "0"): "a", ("c", "1"): "c",
        },
    )
    result = dfa_equiv(ends1, ends11)
    assert result == Counterexample("1")
    # brute-force confirmation: no shorter or lex-smaller disagreement
    for word in words_over(("0", "1"), len(result.word)):
        if word == result.word:
            break
        assert dfa_run(ends1, word) == dfa_run(ends11, word)


def test_dfa_equiv_agrees_with_bounded_word_comparison():
    pairs = [
        (parity_dfa(), parity_dfa(("x", "y"))),
        (parity_dfa(), ALL_ACCEPTING),
        (ALL_ACCEPTING, ALL_ACCEPTING),
    ]
    for d1, d2 in pairs:
        bound = len(d1.states) * len(d2.states)
        agree = all(dfa_run(d1, w) == dfa_run(d2, w) for w in words_over(("0", "1"), bound))
        assert (dfa_equiv(d1, d2) == Equivalent()) == agree


# --- separation search --------------------------------------------------------


def test_anbn_sample_defeats_two_state_dfas():
    sample = {w: b for w, b in sample_anbn(6).items() if b == 1 and len(w) <= 4}
    sample.update({w: 0 for w, b in sample_anbn(6).items() if b == 0})
    report = separation_search(sample, 2)
    assert report.witness == NoDfaMatches()
    assert report.dfas_searched > 0


def test_parity_needs_exactly_two_states():
    sample = sample_parity(4)
    report = separation_search(sample, 2)
    assert isinstance(report.witness, DfaFound)
    found = report.witness.dfa
    assert len(found.states) == 2
    # independent check: the found DFA is the parity language exactly
    assert dfa_equiv(found, parity_dfa()) == Equivalent()
    assert separation_search(sample, 1).witness == NoDfaMatches()


def test_empty_sample_matches_vacuously():
    report = separation_search({}, 1)
    assert isinstance(report.witness, DfaFound)
    assert len(report.witness.dfa.states) == 1


def test_separation_search_is_deterministic():
    sample = sample_parity(4)
    first = separation_search(sample, 2)
    second = separation_search(sample, 2)
    assert first == second


def test_separation_search_validates_sample():
    for word in ("2", "012", "1 "):
        with pytest.raises(InputError, match=f"sample word {word!r} is not over"):
            separation_search({"0": 1, word: 1}, 1)
    with pytest.raises(InputError):
        separation_search({"0": 7}, 1)
    with pytest.raises(InputError):
        separation_search([("0", 1), ("0", 0)], 1)
    with pytest.raises(InputError):
        separation_search([("", 1), ("", 0)], 1)  # the root labelled twice
    with pytest.raises(InputError):
        separation_search([("0", 1), ("1", 1), ("0", 1)], 1)  # a repeat with an equal label


def test_the_work_bound_counts_work_done_not_states_allowed(monkeypatch):
    # a state bound far past what the answer needs costs nothing extra
    report = separation_search({}, 3000)
    assert isinstance(report.witness, DfaFound)
    assert len(report.witness.dfa.states) == 1
    monkeypatch.setattr(subrec, "_WORK_BOUND", 5_000)  # 3,358 units answer k=5
    refusals = []
    for _ in range(2):
        with pytest.raises(SearchSpaceError) as err:
            separation_search(sample_anbn(6), 6)
        refusals.append(err.value.states)
    assert refusals == [6, 6]


def _canonical_deltas(n: int) -> Iterator[tuple[int, ...]]:
    """The reference order of ``_walk_tables``: every canonical transition
    table of n states (flat, cell 2*state+bit) in first-use numbering with
    every state mentioned, in lexicographic order, generated outright."""
    cells = 2 * n
    table = [0] * cells

    def rec(idx: int, max_seen: int) -> Iterator[tuple[int, ...]]:
        if idx == cells:
            if max_seen == n - 1:
                yield tuple(table)
            return
        if (n - 1 - max_seen) > (cells - idx):
            return
        for target in range(min(max_seen + 1, n - 1) + 1):
            table[idx] = target
            yield from rec(idx + 1, max(max_seen, target))

    yield from rec(0, 0)


def _forced_accepting(delta: tuple[int, ...], sample: tuple[tuple[str, int], ...]) -> frozenset[int] | None:
    """The accepting states a sample forces under this table, or None on
    conflict.  Unconstrained states stay rejecting, which picks the first
    matching DFA in canonical (ascending accepting-mask) order.  This whole
    table check is the reference for ``_walk_tables``."""
    forced: dict[int, int] = {}
    for word, bit in sample:
        state = 0
        for ch in word:
            state = delta[2 * state + (ch == "1")]
        old = forced.setdefault(state, bit)
        if old != bit:
            return None
    return frozenset(state for state, bit in forced.items() if bit == 1)


def _brute_force_search(sample, max_states):
    """The reference: every canonical table in order, each checked whole."""
    pairs = tuple(sample.items() if isinstance(sample, Mapping) else sample)
    searched = 0
    for n in range(1, max_states + 1):
        for delta in _canonical_deltas(n):
            searched += 2**n
            accepting = _forced_accepting(delta, pairs)
            if accepting is not None:
                return SeparationReport(max_states, searched, DfaFound(_build_dfa(n, delta, accepting)))
    return SeparationReport(max_states, searched, NoDfaMatches())


@given(
    st.dictionaries(st.text(alphabet="01", max_size=6), st.integers(0, 1), max_size=12),
    st.integers(1, 4),
)
@example({}, 4)
@example({"0110": 1, "1": 0, "111": 1}, 4)  # not prefix-closed
@example(sample_anbn(6), 4)
@settings(max_examples=300, deadline=None)
def test_pruned_search_matches_brute_force(sample, max_states):
    expected = _brute_force_search(sample, max_states)
    assert separation_search(sample, max_states) == expected
    assert separation_search(list(reversed(sample.items())), max_states) == expected


def test_completion_counts_match_the_canonical_tables():
    for n in range(1, 6):
        assert _completion_counts(n)[0][0] == sum(1 for _ in _canonical_deltas(n))


def test_anbn_defeats_five_state_dfas():
    report = separation_search(sample_anbn(6), 5)
    assert report.dfas_searched == 8_022_150
    assert report.witness == NoDfaMatches()


def test_anbn_up_to_six_needs_exactly_seven_states():
    report = separation_search(sample_anbn(6), 6)
    assert report.dfas_searched == 604_586_118
    assert report.witness == NoDfaMatches()
    report = separation_search(sample_anbn(6), 7)
    assert report.dfas_searched == 45_321_939_334
    assert isinstance(report.witness, DfaFound)
    assert len(report.witness.dfa.states) == 7
    assert all(dfa_run(report.witness.dfa, word) == bool(bit) for word, bit in sample_anbn(6).items())


def test_palindrome_sample_shape():
    sample = sample_palindrome(3)
    assert sample[""] == 1 and sample["010"] == 1 and sample["01"] == 0


def test_recognizer_machine_agrees_with_the_anbn_sample():
    machine = corpus_machine("anbn")
    for word, bit in sample_anbn(6).items():
        outcome = run_bounded(machine, word, 10_000)
        assert isinstance(outcome, HaltedWithResult), word
        assert outcome.result == str(bit), word
