"""Binary machine descriptions, word numbering, enumeration, and simulation.

A single-tape machine over {0, 1, blank} is serialized as a self-delimiting
unary layout over the alphabet {0, 1}:

    description := 0^f 11 entry^f body
    entry       := 0^q 1 0^g 1          final state q, flag g (1 resultless,
                                        2 result-bearing); entries ascend by q
    body        := rule ("11" rule)*    possibly empty
    rule        := 0^i 1 0^j 1 0^k 1 0^l 1 0^m

with states numbered from 1 (the start state), symbol codes blank=1, "0"=2,
"1"=3, and move codes L=1, R=2, S=3.  Rules are listed in ascending
(state, symbol) order.  State numbering is canonical: breadth-first order of
first use from the start state, unreachable states appended in declaration
order.  Decoding decides validity on the parsed numbers: entries and rules
in ascending order and the canonical numbering.  That holds exactly when
re-encoding the result reproduces the same bit string, so `encode O decode`
is the identity on valid descriptions and encoding is constant on renaming
classes.  Re-encoding is done only to locate the first wrong bit of a
description that is not canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .machine import (
    BLANK,
    HypermachineError,
    InputError,
    Machine,
    RunOutcome,
    run_bounded,
)

SYMBOL_CODES = {BLANK: 1, "0": 2, "1": 3}
MOVE_CODES = {"L": 1, "R": 2, "S": 3}


class InvalidEncoding(HypermachineError):
    """A bit string is not a valid machine description.

    ``position`` is the 0-based index of the first violation; for canonical-
    form violations it is the first index where re-encoding disagrees.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"invalid encoding at bit {position}: {message}")
        self.position = position


class UnsupportedMachineError(HypermachineError):
    """The machine lies outside the encodable class."""


@dataclass(frozen=True)
class Description:
    bits: str

    def __post_init__(self) -> None:
        if self.bits.strip("01"):  # empty exactly when every character is 0 or 1
            raise InputError("descriptions are words over {0,1}")


# --- word numbering -------------------------------------------------------


def word_index(word: str) -> int:
    """Rank of a {0,1} word in length-lexicographic order (ε is 0)."""
    if any(ch not in "01" for ch in word):
        raise InputError("indexed words range over {0,1}")
    if not word:
        return 0
    return (1 << len(word)) - 1 + int(word, 2)


def index_word(index: int) -> str:
    """Inverse of word_index."""
    if index < 0:
        raise InputError("word indices are non-negative")
    length = (index + 1).bit_length() - 1
    if length == 0:
        return ""
    offset = index - ((1 << length) - 1)
    return format(offset, "b").zfill(length)


# --- encoding -------------------------------------------------------------


def canonical_state_order(machine: Machine) -> list[str]:
    """Breadth-first first-use order from the start, a state's rules taken by
    symbol code; unreachable states follow in declaration order."""
    per_state: dict[str, list[tuple[int, str]]] = {}
    for (state, syms), (nstate, _, _) in machine.rules.items():
        per_state.setdefault(state, []).append((SYMBOL_CODES[syms[0]], nstate))
    order = [machine.start]
    for q in order:  # grows while it is walked, so it is the queue as well
        for _, target in sorted(per_state.get(q, ())):
            if target not in order:
                order.append(target)
    for q in machine.states:
        if q not in order:
            order.append(q)
    return order


def _render(finals: list[tuple[int, int]], rules: list[tuple[int, int, int, int, int]]) -> str:
    parts = ["0" * len(finals), "11"]
    for q, g in finals:
        parts.append("0" * q + "1" + "0" * g + "1")
    for t, (i, j, k, l, m) in enumerate(rules):
        if t:
            parts.append("11")
        parts.append("0" * i + "1" + "0" * j + "1" + "0" * k + "1" + "0" * l + "1" + "0" * m)
    return "".join(parts)


def encode(machine: Machine) -> Description:
    """Canonical description of a single-tape machine over {0, 1, blank}."""
    if machine.tape_count != 1:
        raise UnsupportedMachineError("only single-tape machines are encodable")
    if not set(machine.alphabet) <= SYMBOL_CODES.keys() or machine.blank != BLANK:
        raise UnsupportedMachineError("only machines over the {0,1,_} alphabet are encodable")
    number = {q: n for n, q in enumerate(canonical_state_order(machine), start=1)}
    finals = sorted((number[q], 2 if bearing else 1) for q, bearing in machine.finals.items())
    rules = sorted(
        (
            number[state],
            SYMBOL_CODES[syms[0]],
            number[nstate],
            SYMBOL_CODES[writes[0]],
            MOVE_CODES[moves[0]],
        )
        for (state, syms), (nstate, writes, moves) in machine.rules.items()
    )
    return Description(_render(finals, rules))


# --- decoding -------------------------------------------------------------


_RULE_FIELDS = (("state", 0), ("symbol", 3), ("state", 0), ("symbol", 3))  # (name, largest value or 0)


def _parse(bits: str) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int, int]]]:
    """The final entries and rules of ``bits``, read in one pass over its runs
    of zeros; each run but the last is ended by one 1, and ``pos`` is the bit
    where the current run starts."""
    runs = list(map(len, bits.split("1")))
    last = len(runs) - 1
    f = runs[0]
    if not last:
        raise InvalidEncoding("expected 1 terminating final count", f)
    pos = f + 1
    if runs[1] or last == 1:
        raise InvalidEncoding("expected 1 terminating header", pos)
    pos += 1
    t = 2
    finals: list[tuple[int, int]] = []
    seen_finals: set[int] = set()
    for _ in range(f):
        q = runs[t]
        if not q:
            raise InvalidEncoding("final state number must be positive", pos)
        if t == last:
            raise InvalidEncoding("expected 1 terminating final state", pos + q)
        pos += q + 1
        t += 1
        g = runs[t]
        if g != 1 and g != 2:
            raise InvalidEncoding("final flag must be 1 or 2", pos)
        if t == last:
            raise InvalidEncoding("expected 1 terminating final flag", pos + g)
        if q in seen_finals:
            raise InvalidEncoding(f"state {q} declared final twice", pos)
        seen_finals.add(q)
        finals.append((q, g))
        pos += g + 1
        t += 1
    rules: list[tuple[int, int, int, int, int]] = []
    keys: set[tuple[int, int]] = set()
    if t == last and not runs[t]:
        return finals, rules
    while True:
        rule_at = pos
        fields = []
        for name, hi in _RULE_FIELDS:
            value = runs[t]
            if value < 1 or (hi and value > hi):
                raise InvalidEncoding(f"rule {name} field out of range", pos)
            if t == last:
                raise InvalidEncoding(f"expected 1 terminating rule {name}", pos + value)
            fields.append(value)
            pos += value + 1
            t += 1
        i, j, k, l = fields
        m = runs[t]
        if m < 1 or m > 3:
            raise InvalidEncoding("rule move field out of range", pos)
        if (i, j) in keys:
            raise InvalidEncoding(f"duplicate rule for state {i}, symbol code {j}", rule_at)
        if i in seen_finals:
            raise InvalidEncoding(f"rule declared for final state {i}", rule_at)
        keys.add((i, j))
        rules.append((i, j, k, l, m))
        if t == last:
            return finals, rules
        pos += m + 1  # the move's terminator is the joiner's first 1
        t += 1
        if runs[t] or t == last:
            raise InvalidEncoding("expected 1 terminating rule joiner", pos)
        pos += 1
        t += 1
        if t == last and not runs[t]:
            raise InvalidEncoding("trailing rule joiner", pos - 1)


# decoded machines share these tuples and their state names
_SYMBOL_TUPLES = {code: (sym,) for sym, code in SYMBOL_CODES.items()}
_MOVE_TUPLES = {code: (move,) for move, code in MOVE_CODES.items()}


@lru_cache(maxsize=64)
def _state_names(n: int) -> tuple[str, ...]:
    """``q1..qn``, one shared tuple per state count."""
    return tuple(f"q{i}" for i in range(1, n + 1))


def _machine_from_structure(
    finals: list[tuple[int, int]], rules: list[tuple[int, int, int, int, int]]
) -> Machine:
    n = max([1] + [q for q, _ in finals] + [max(i, k) for i, _, k, _, _ in rules])
    states = _state_names(n)
    return Machine(
        name="decoded",
        tape_count=1,
        alphabet=(BLANK, "0", "1"),
        blank=BLANK,
        states=states,
        start=states[0],
        finals={states[q - 1]: g == 2 for q, g in finals},
        rules={
            (states[i - 1], _SYMBOL_TUPLES[j]): (states[k - 1], _SYMBOL_TUPLES[l], _MOVE_TUPLES[m])
            for i, j, k, l, m in rules
        },
    )


# a caller decodes one description at most three times in a row and does
# not come back to it soon, so a few entries keep every hit there is
@lru_cache(maxsize=64)
def _decode_bits(bits: str) -> Machine:
    finals, rules = _parse(bits)
    machine = _machine_from_structure(finals, rules)
    # _parse rejects repeated final states and rule keys, so sorted here is
    # strictly ascending, the order encode renders
    if not (finals == sorted(finals) and rules == sorted(rules) and _numbering_canonical(rules)):
        rebuilt = encode(machine).bits
        at = next((i for i, (a, b) in enumerate(zip(bits, rebuilt)) if a != b), min(len(bits), len(rebuilt)))
        raise InvalidEncoding("description is not in canonical form", at)
    return machine


def decode(description: Description) -> Machine:
    """The unique machine of a valid description, states named q1..qn.

    Validity is decided on the parsed numbers: final entries must ascend by
    state, rules by (state, symbol), and the state numbering must be the
    canonical one.  That holds exactly when re-encoding the machine
    reproduces the description, so decode is a two-sided inverse of encode
    on its whole domain.  A description that parses but is not canonical
    is re-encoded only to report the first bit where it differs.
    """
    return _decode_bits(description.bits)


# --- enumeration ----------------------------------------------------------


def _gen_finals(count: int, min_q: int, budget: int) -> Iterator[tuple[list[tuple[int, int]], int]]:
    """Ascending final entries with total bit cost at most ``budget``."""
    if count == 0:
        yield [], 0
        return
    # remaining entries need at least (min_q + t) + 1 + 2 bits each
    q = min_q
    while q + 3 + (count - 1) * (q + 4) <= budget:
        for g in (1, 2):
            cost = q + g + 2
            if cost > budget:
                continue
            for rest, rest_cost in _gen_finals(count - 1, q + 1, budget - cost):
                yield [(q, g)] + rest, cost + rest_cost
        q += 1


def _gen_rules(
    budget: int, prev: tuple[int, int], final_states: frozenset[int]
) -> Iterator[list[tuple[int, int, int, int, int]]]:
    """Rule lists in ascending (state, symbol) order costing exactly ``budget``
    bits including the 2-bit joiner before each rule after the first."""
    if budget == 0:
        yield []
        return
    if budget < 9:
        return
    pi, pj = prev
    for i in range(max(pi, 1), budget - 7):
        if i in final_states:
            continue
        for j in (1, 2, 3):
            if (i, j) <= (pi, pj):
                continue
            base = i + j + 4
            for m in (1, 2, 3):
                for l in (1, 2, 3):
                    for k in range(1, budget - base - l - m + 1):
                        cost = base + k + l + m
                        rest = budget - cost
                        rule = (i, j, k, l, m)
                        if rest == 0:
                            yield [rule]
                        elif rest >= 11:  # joiner + minimal rule
                            for tail in _gen_rules(rest - 2, (i, j), final_states):
                                yield [rule] + tail


def _numbering_canonical(rules: list[tuple[int, int, int, int, int]]) -> bool:
    """True when the states reachable from state 1 are numbered 1..r in
    breadth-first first-use order, for ``rules`` listed in ascending
    (state, symbol) order as in a description.

    In that order the rules of the reachable states come exactly as the
    breadth-first walk takes them, so one pass checks that each state used
    for the first time takes the next number; the walk ends at the first
    rule of a state that was never reached."""
    fresh = 2  # the number the next first use must take
    for i, _, k, _, _ in rules:
        if i >= fresh:
            return True
        if k >= fresh:
            if k > fresh:
                return False
            fresh += 1
    return True


def descriptions_of_length(length: int) -> list[str]:
    """All valid descriptions of exactly ``length`` bits, lexicographic order."""
    found = []
    f = 0
    while f + 2 <= length:
        body_budget = length - f - 2
        for finals, fcost in _gen_finals(f, 1, body_budget):
            final_states = frozenset(q for q, _ in finals)
            for rules in _gen_rules(body_budget - fcost, (0, 0), final_states):
                if _numbering_canonical(rules):
                    found.append(_render(finals, rules))
        f += 1
    found.sort()
    return found


def iter_descriptions() -> Iterator[Description]:
    """Every valid description in length-lexicographic order."""
    length = 2
    while True:
        for bits in descriptions_of_length(length):
            yield Description(bits)
        length += 1


def enumerate_machines(count: int) -> list[Description]:
    """The first ``count`` valid descriptions in length-lexicographic order."""
    if count < 1:
        raise InputError("count must be >= 1")
    return list(islice(iter_descriptions(), count))


@lru_cache(maxsize=None)
def _descriptions_of(length: int) -> tuple[Description, ...]:
    return tuple(map(Description, descriptions_of_length(length)))


def nth_description(n: int) -> Description:
    """Element n (0-based) of the enumeration.

    The lengths are walked from 2 bits up, skipping each length's whole
    list until n falls inside one.  A length's list is built once per
    process and then shared by every call and thread; two threads may build
    the same list at once, and both get the same answer."""
    if n < 0:
        raise InputError("enumeration indices are non-negative")
    length = 2
    while n >= len(batch := _descriptions_of(length)):
        n -= len(batch)
        length += 1
    return batch[n]


# --- universal simulation -------------------------------------------------


def universal_run(description: Description, input_word: str, budget: int) -> RunOutcome:
    """Simulate the described machine with step-faithful accounting.

    The outcome (variant, result word, and step count) is identical to
    running the decoded machine directly.
    """
    return run_bounded(decode(description), input_word, budget)
