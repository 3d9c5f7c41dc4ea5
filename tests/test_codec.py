"""Encoding layout, word numbering, enumeration, and universal simulation."""

import functools
import itertools
import sys
import threading
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

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
from hypermachine.codec import _decode_bits, _descriptions_of, _numbering_canonical
from hypermachine.corpus import (
    LOCATABLE,
    corpus_machine,
    delay_machine,
    encodable_corpus,
    two_state_family,
    two_state_family_size,
)
from hypermachine.machine import (
    BLANK,
    BudgetExhausted,
    EquivalentUpTo,
    HaltedWithResult,
    InputError,
    Machine,
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

# The reference decoder: a cursor walk over the bits, machines built with
# fresh state names, and validity decided by re-encoding.  decode must agree
# with it on every bit string, in its machine or in its error.


class _Cursor:
    def __init__(self, bits):
        self.bits = bits
        self.pos = 0

    def zeros(self):
        start = self.pos
        while self.pos < len(self.bits) and self.bits[self.pos] == "0":
            self.pos += 1
        return self.pos - start

    def one(self, what):
        if self.pos >= len(self.bits) or self.bits[self.pos] != "1":
            raise InvalidEncoding(f"expected 1 terminating {what}", self.pos)
        self.pos += 1

    def exhausted(self):
        return self.pos >= len(self.bits)


def _reference_parse(bits):
    cur = _Cursor(bits)
    f = cur.zeros()
    cur.one("final count")
    cur.one("header")
    finals = []
    seen_finals = set()
    for _ in range(f):
        at = cur.pos
        q = cur.zeros()
        if q == 0:
            raise InvalidEncoding("final state number must be positive", at)
        cur.one("final state")
        at = cur.pos
        g = cur.zeros()
        if g not in (1, 2):
            raise InvalidEncoding("final flag must be 1 or 2", at)
        cur.one("final flag")
        if q in seen_finals:
            raise InvalidEncoding(f"state {q} declared final twice", at)
        seen_finals.add(q)
        finals.append((q, g))
    rules = []
    keys = set()
    while not cur.exhausted():
        if rules:
            cur.one("rule joiner")
            cur.one("rule joiner")
            if cur.exhausted():
                raise InvalidEncoding("trailing rule joiner", cur.pos - 1)
        rule_at = cur.pos
        fields = []
        for name, hi in (("state", None), ("symbol", 3), ("state", None), ("symbol", 3), ("move", 3)):
            at = cur.pos
            value = cur.zeros()
            if value < 1 or (hi is not None and value > hi):
                raise InvalidEncoding(f"rule {name} field out of range", at)
            fields.append(value)
            if name != "move":
                cur.one(f"rule {name}")
        i, j, k, l, m = fields
        if (i, j) in keys:
            raise InvalidEncoding(f"duplicate rule for state {i}, symbol code {j}", rule_at)
        if i in seen_finals:
            raise InvalidEncoding(f"rule declared for final state {i}", rule_at)
        keys.add((i, j))
        rules.append((i, j, k, l, m))
    return finals, rules


_SYMBOL_OF = {_BLANK: BLANK, _ZERO: "0", _ONE: "1"}
_MOVE_OF = {_L: "L", _R: "R", _S: "S"}


def _reference_decode(bits):
    finals, rules = _reference_parse(bits)
    n = max([1] + [q for q, _ in finals] + [q for i, _, k, _, _ in rules for q in (i, k)])
    machine = Machine(
        name="decoded",
        tape_count=1,
        alphabet=(BLANK, "0", "1"),
        blank=BLANK,
        states=tuple(f"q{i}" for i in range(1, n + 1)),
        start="q1",
        finals={f"q{q}": g == 2 for q, g in finals},
        rules={
            (f"q{i}", (_SYMBOL_OF[j],)): (f"q{k}", (_SYMBOL_OF[l],), (_MOVE_OF[m],))
            for i, j, k, l, m in rules
        },
    )
    rebuilt = encode(machine).bits
    if rebuilt != bits:
        at = next((i for i, (a, b) in enumerate(zip(bits, rebuilt)) if a != b), min(len(bits), len(rebuilt)))
        raise InvalidEncoding("description is not in canonical form", at)
    return machine


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


def _same_verdict(bits):
    """The decoder and the reference agree on ``bits``: the same machine, or
    the same message at the same position; returns whether it is valid."""
    try:
        expected = _reference_decode(bits)
    except InvalidEncoding as err:
        with pytest.raises(InvalidEncoding) as got:
            _decode_bits(bits)
        assert (str(got.value), got.value.position) == (str(err), err.position), bits
        return False
    machine = _decode_bits(bits)
    assert machine == expected, bits
    # the decoder builds its machine without Machine's checks: running them
    # again, through Machine's public constructor, changes nothing, and the
    # tables are as read-only as Machine's
    assert Machine(**vars(machine)) == machine, bits
    assert type(machine.rules) is type(machine.finals) is MappingProxyType, bits
    return True


def _validated_family():
    """The two-state family rebuilt through ``single_tape_machine``, in its
    documented order: tables over the rule options of q1 on _, 0 and 1, each
    with the resultless and then the result-bearing q2."""
    options = [None] + list(itertools.product(("q1", "q2"), "_01", "LRS"))
    for n, table in enumerate(itertools.product(options, repeat=3)):
        rules = {("q1", sym): option for sym, option in zip("_01", table) if option is not None}
        for bearing in (False, True):
            yield single_tape_machine(f"fam{2 * n + bearing}", rules, finals={"q2": bearing}, start="q1")


def test_the_family_is_built_as_if_validated():
    # the family, too, is built without Machine's checks, from shared tables
    family = list(two_state_family())
    rebuilt = list(_validated_family())
    assert len(family) == len(rebuilt) == two_state_family_size()
    for machine, twin in zip(family, rebuilt):
        assert machine == twin, twin.name
        assert (machine.name, machine.states, list(machine.rules)) == (twin.name, twin.states, list(twin.rules))
        assert Machine(**vars(machine)) == machine, twin.name
        assert type(machine.rules) is type(machine.finals) is MappingProxyType, twin.name


def test_the_family_is_held_in_little_memory():
    # its machines share their rule bodies, states, alphabet and finals, and
    # a table's two machines its rules view: 7.2 MB, where private copies of
    # every table took 21.5 MB
    tracemalloc.start()
    try:
        family = list(two_state_family())
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert len(family) == two_state_family_size()
    assert peak_mb < 12


def test_enumeration_matches_brute_force_filter():
    # independent oracle: filter every bit string by the reference decoder,
    # which shares no parsing or canonical-form code with the enumerator
    for length in range(1, 15):
        brute = [
            bits
            for bits in map("".join, itertools.product("01", repeat=length))
            if _same_verdict(bits)
        ]
        assert descriptions_of_length(length) == brute, length


def test_numbering_check_matches_breadth_first_walk():
    # every sorted rule list on states 1-3 with up to three rules: the
    # one-pass check agrees with the walk it stands for
    def first_use_order(rules):
        order = [1]
        for q in order:
            for i, _, k, _, _ in rules:
                if i == q and k not in order:
                    order.append(k)
        return order

    keys = [(i, j) for i in (1, 2, 3) for j in (_BLANK, _ZERO, _ONE)]
    for size in range(4):
        for chosen in itertools.combinations(keys, size):
            for targets in itertools.product((1, 2, 3, 4), repeat=size):
                rules = [(i, j, k, _ZERO, _R) for (i, j), k in zip(chosen, targets)]
                order = first_use_order(rules)
                assert _numbering_canonical(rules) == (order == list(range(1, len(order) + 1))), rules


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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: nth_description(-1), "enumeration indices are non-negative"),
        (lambda: corpus_machine("nope"), "no corpus machine named 'nope'"),
        (lambda: delay_machine(0), "delay must be >= 1 step"),
    ],
    ids=["nth_description", "corpus_machine", "delay_machine"],
)
def test_out_of_range_indices_and_names_are_rejected(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_nth_description_matches_enumerate():
    listed = enumerate_machines(40)
    for n, description in enumerate(listed):
        assert nth_description(n).bits == description.bits


def test_nth_description_is_safe_under_threads():
    # more threads than cores, each walking an emptied cache so that they
    # contend for building the same lengths
    expected = enumerate_machines(3000)
    _descriptions_of.cache_clear()
    errors = []

    def walk():
        try:
            for n in range(3000):
                if nth_description(n) != expected[n]:
                    errors.append(n)
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


# --- decode against the reference on damaged descriptions ------------------


@functools.cache
def _family_descriptions():
    return [encode(machine).bits for machine in two_state_family()]


def _swap_rules(bits, a, b):
    try:
        finals, rules = _reference_parse(bits)
    except InvalidEncoding:
        return bits
    if len(rules) < 2:
        return bits
    a, b = a % len(rules), b % len(rules)
    rules[a], rules[b] = rules[b], rules[a]
    return "0" * len(finals) + "11" + "".join(_entry(q, g) for q, g in finals) + "11".join(_rule(*r) for r in rules)


def _mutate(bits, edit):
    kind, at, other = edit
    if kind == "swap":
        return _swap_rules(bits, at, other)
    if kind == "insert":
        at %= len(bits) + 1
        return bits[:at] + "01"[other % 2] + bits[at:]
    if not bits:
        return bits
    at %= len(bits)
    if kind == "flip":
        return bits[:at] + "10"[int(bits[at])] + bits[at + 1 :]
    return bits[:at] + bits[at + 1 :]  # delete


_FLIP_BITS = encode(FLIP).bits
_EDITS = st.tuples(
    st.sampled_from(["flip", "insert", "delete", "swap"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


@given(
    st.one_of(
        st.integers(min_value=0, max_value=499).map(lambda n: nth_description(n).bits),
        st.integers(min_value=0, max_value=13717).map(lambda n: _family_descriptions()[n]),
    ),
    st.lists(_EDITS, min_size=1, max_size=3),
)
@example("0011010100101", [("insert", 4, 0)])  # state 2 declared final twice
@example("01100101010101010", [("insert", 4, 1)])  # rule declared for final state 1
@example(_FLIP_BITS, [("delete", 28, 0)])  # duplicate rule for state 1, symbol code 2
@example("110101010100", [("insert", 12, 1), ("insert", 13, 1)])  # trailing rule joiner
@example(_FLIP_BITS, [("swap", 0, 1)])  # not in canonical form
# the rules out of order, then a trailing joiner: the parse fault wins
@example(_FLIP_BITS, [("swap", 0, 1), ("insert", 41, 1), ("insert", 42, 1)])
@example("11", [("flip", 1, 0), ("delete", 0, 0)])  # no 1 ends the final count
@example("0110101", [("delete", 6, 0), ("delete", 5, 0), ("delete", 4, 0)])  # no 1 ends the final state
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_on_damaged_descriptions(bits, edits):
    # enumerated and family descriptions, up to 58 bits, with bits flipped,
    # inserted or deleted and rules swapped: the same machine or the same error
    assert _same_verdict(bits)
    for edit in edits:
        bits = _mutate(bits, edit)
        _same_verdict(bits)


def test_decode_names_states_alike_under_threads():
    # descriptions whose one final state q outgrows every state-name tuple
    # decoded so far, taken by more threads than cores in different orders:
    # each machine still names its states q1..qq
    counts = list(range(65, 401))
    expected = {q: _reference_decode("011" + "0" * q + "101") for q in counts}
    start = threading.Barrier(8, timeout=60)
    errors = []

    def decode_all(order):
        try:
            start.wait()
            for q in order:
                machine = _decode_bits.__wrapped__("011" + "0" * q + "101")
                if machine != expected[q] or machine.states != tuple(f"q{i}" for i in range(1, q + 1)):
                    errors.append(q)
        except Exception as exc:  # reported below
            errors.append(exc)

    # from the top down, each thread starting one count lower than the last,
    # so that they all outgrow the names at once
    down = counts[::-1]
    orders = [down[s:] + down[:s] for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
