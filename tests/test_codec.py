"""Encoding layout, word numbering, enumeration, and universal simulation."""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hypermachine.codec import (
    Description,
    InvalidEncoding,
    UnsupportedMachineError,
    decode,
    descriptions_of_length,
    encode,
    enumerate_machines,
    index_word,
    iter_descriptions,
    nth_description,
    universal_run,
    word_index,
)
from hypermachine.codec import _NTH_CACHE, _decode_bits
from hypermachine.corpus import LOCATABLE, corpus_machine, encodable_corpus
from hypermachine.machine import (
    BudgetExhausted,
    EquivalentUpTo,
    HaltedWithResult,
    InputError,
    observational_equiv,
    run_bounded,
    single_tape_machine,
    words_over,
)

FLIP = corpus_machine("flip")


# --- word numbering ---------------------------------------------------------


@pytest.mark.parametrize(
    "word,index",
    [("", 0), ("0", 1), ("1", 2), ("00", 3), ("01", 4), ("10", 5), ("11", 6)],
)
def test_word_index_defined_order(word, index):
    assert word_index(word) == index
    assert index_word(index) == word


def test_word_numbering_is_a_bijection_up_to_length_ten():
    words = list(words_over(("0", "1"), 10))
    indices = [word_index(w) for w in words]
    assert indices == list(range(len(words)))
    for n, w in enumerate(words):
        assert index_word(n) == w


def test_word_numbering_rejects_bad_input():
    with pytest.raises(InputError):
        word_index("02")
    with pytest.raises(InputError):
        index_word(-1)


# --- encoding layout ---------------------------------------------------------

# independent restatement of the layout: states from 1, blank=1 "0"=2 "1"=3,
# moves L=1 R=2 S=3, rule = 0^i 1 0^j 1 0^k 1 0^l 1 0^m, joined by 11, after
# a 0^f 11 header and one 0^q 1 0^g 1 entry per final state
_BLANK, _ZERO, _ONE = 1, 2, 3
_L, _R, _S = 1, 2, 3


def _entry(q, g):
    return "0" * q + "1" + "0" * g + "1"


def _rule(i, j, k, l, m):
    return "0" * i + "1" + "0" * j + "1" + "0" * k + "1" + "0" * l + "1" + "0" * m


def test_encode_flip_against_hand_layout():
    # flip: start state is 1, its 0-rule uses the final state first, so the
    # final state is numbered 2 and is result-bearing (flag 2)
    expected = (
        "0" + "11"
        + _entry(2, 2)
        + _rule(1, _ZERO, 2, _ONE, _S)
        + "11"
        + _rule(1, _ONE, 2, _ZERO, _S)
    )
    assert encode(FLIP).bits == expected


def test_encode_loop_against_hand_layout():
    expected = "11" + _rule(1, _BLANK, 1, _BLANK, _R)
    assert encode(corpus_machine("loop")).bits == expected


def test_encode_is_constant_on_renaming_classes():
    renamed = single_tape_machine(
        "other_name",
        {("a", "0"): ("b", "1", "S"), ("a", "1"): ("b", "0", "S")},
        finals={"b": True},
        start="a",
    )
    assert encode(renamed).bits == encode(FLIP).bits


def test_encode_rejects_unencodable_machines():
    wide = single_tape_machine("wide", {("q0", "2"): ("q0", "2", "R")}, alphabet=("0", "1", "2"))
    with pytest.raises(UnsupportedMachineError):
        encode(wide)
    with pytest.raises(UnsupportedMachineError):
        encode(corpus_machine("flicker"))


# --- decoding ----------------------------------------------------------------


def test_decode_roundtrips_every_encodable_corpus_machine():
    for name, machine in encodable_corpus().items():
        recovered = decode(encode(machine))
        verdict = observational_equiv(machine, recovered, 4, 400)
        assert isinstance(verdict, EquivalentUpTo), (name, verdict)


def test_encode_decode_identity_on_descriptions():
    for name, machine in encodable_corpus().items():
        description = encode(machine)
        assert encode(decode(description)).bits == description.bits, name


def test_decode_rejects_short_bits_with_position():
    with pytest.raises(InvalidEncoding) as err:
        decode(Description("110"))
    assert err.value.position == 3


def test_decode_rejects_noncanonical_rule_order():
    bits = encode(FLIP).bits
    # swap the two rules around the 11 joiner: same machine, wrong order
    header_and_finals = bits[: 3 + 6]
    body = bits[3 + 6 :]
    first, second = body.split("11")
    swapped = header_and_finals + second + "11" + first
    with pytest.raises(InvalidEncoding):
        decode(Description(swapped))


def test_decode_rejects_duplicate_rule_keys():
    rule = _rule(1, _BLANK, 1, _BLANK, _R)
    with pytest.raises(InvalidEncoding):
        decode(Description("11" + rule + "11" + rule))


def test_description_rejects_non_binary_text():
    # interior and edge non-bits alike, whitespace included
    for bits in ("012", "0a1", " 01", "01 ", "0\n1"):
        with pytest.raises(InputError, match=r"descriptions are words over \{0,1\}"):
            Description(bits)


# --- enumeration -------------------------------------------------------------


def test_enumeration_golden_prefix():
    assert [d.bits for d in enumerate_machines(3)] == ["11", "0110101", "01100101"]


def test_enumeration_prefix_decodes_and_is_canonical():
    seen = set()
    previous = None
    for description in enumerate_machines(500):
        machine = decode(description)
        assert encode(machine).bits == description.bits
        assert description.bits not in seen
        seen.add(description.bits)
        key = (len(description.bits), description.bits)
        assert previous is None or previous < key
        previous = key


def test_enumeration_matches_brute_force_filter():
    # independent oracle: filter every bit string by the decoder
    for length in range(1, 15):
        brute = []
        for chars in itertools.product("01", repeat=length):
            bits = "".join(chars)
            try:
                _decode_bits(bits)
            except InvalidEncoding:
                continue
            brute.append(bits)
        assert descriptions_of_length(length) == brute, length


def test_enumeration_of_two_rule_descriptions():
    # frozen from a brute-force filter over all strings of these lengths
    # with the finals-free header (the shortest rule-joiner cases)
    two_rules_23 = [b for b in descriptions_of_length(23) if b.startswith("11") and "11" in b[2:]]
    assert two_rules_23 == ["11010101010110010101010", "11010101010110100101010"]
    for bits in two_rules_23:
        machine = decode(Description(bits))
        assert len(machine.rules) == 2
    two_rules_24 = [b for b in descriptions_of_length(24) if b.startswith("11") and "11" in b[2:]]
    assert len(two_rules_24) == 16
    assert two_rules_24[0] == "110100101010110010101010"
    assert two_rules_24[-1] == "110101010101101001010100"


# frozen by scanning the enumeration once; decoding is re-verified below
CORPUS_INDICES = {
    "idle": 0,
    "stop": 1,
    "identity": 3,
    "loop": 17,
    "trail": 33,
    "blink": 34,
    "stepper": 997,
    "write0": 1485,
    "write1": 2174,
    "ping_pong": 5116,
    "right_scanner": 28927,
}


def test_locatable_corpus_machines_appear_at_frozen_indices():
    assert set(CORPUS_INDICES) == set(LOCATABLE)
    bound = max(CORPUS_INDICES.values())
    stream = {}
    for n, description in enumerate(iter_descriptions()):
        stream[n] = description.bits
        if n == bound:
            break
    for name, index in CORPUS_INDICES.items():
        machine = corpus_machine(name)
        assert stream[index] == encode(machine).bits, name
        verdict = observational_equiv(machine, decode(Description(stream[index])), 4, 400)
        assert isinstance(verdict, EquivalentUpTo), name


def test_nth_description_matches_enumerate():
    listed = enumerate_machines(40)
    for n, description in enumerate(listed):
        assert nth_description(n).bits == description.bits


def test_nth_description_is_safe_under_threads():
    # more threads than cores, each walking past the cached prefix so that
    # they contend for the shared enumeration source
    start = len(_NTH_CACHE)
    errors = []

    def walk():
        try:
            for n in range(start, start + 3000):
                nth_description(n)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _NTH_CACHE == enumerate_machines(len(_NTH_CACHE))


def test_first_enumerated_description_decodes():
    machine = decode(enumerate_machines(1)[0])
    assert machine.start == "q1"
    assert machine.rules == {}


def test_enumerate_machines_validates_count():
    with pytest.raises(InputError):
        enumerate_machines(0)


# --- universal simulation ----------------------------------------------------


def test_universal_run_flip():
    assert universal_run(encode(FLIP), "0", 10) == HaltedWithResult("1", 1)


def test_universal_run_loop_exhausts_budget():
    outcome = universal_run(encode(corpus_machine("loop")), "", 50)
    assert isinstance(outcome, BudgetExhausted)
    assert outcome.steps == 50


def test_universal_run_matches_direct_runs_exactly():
    for name, machine in encodable_corpus().items():
        description = encode(machine)
        for word in words_over(("0", "1"), 3):
            mirrored = universal_run(description, word, 200)
            direct = run_bounded(machine, word, 200)
            assert type(mirrored) is type(direct), (name, word)
            assert mirrored.steps == direct.steps, (name, word)
            if isinstance(direct, HaltedWithResult):
                assert mirrored.result == direct.result, (name, word)


def test_universal_run_propagates_invalid_encoding():
    with pytest.raises(InvalidEncoding):
        universal_run(Description("10"), "", 10)


# --- randomized roundtrip ----------------------------------------------------

_SYMS = ("_", "0", "1")


@st.composite
def encodable_machines(draw):
    n = draw(st.integers(min_value=1, max_value=3))
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


@given(encodable_machines())
@settings(max_examples=60, deadline=None)
def test_random_machines_roundtrip_observationally(machine):
    recovered = decode(encode(machine))
    assert isinstance(observational_equiv(machine, recovered, 3, 100), EquivalentUpTo)


@given(encodable_machines())
@settings(max_examples=60, deadline=None)
def test_random_machine_descriptions_are_fixed_points(machine):
    description = encode(machine)
    assert encode(decode(description)).bits == description.bits
