"""Finite automata as the weaker reference class, with exhaustive separation.

The separation harness enumerates every DFA over {0,1} up to a state bound, in
a fixed canonical order (start state first, breadth-first first-use numbering
of targets, so renamings are never revisited), and checks whether any of them
reproduces a labelled sample exactly.  Tables are built one transition at a
time against the sample's prefix trie, read once in any order, where a word
given twice is a node labelled twice: once two sample words with opposite
labels are sure to end in one state, every completion of that partial table is
refuted, so it is skipped and its completions are counted exactly.  A
NoDfaMatches verdict is a finite certificate: every DFA of that size disagrees
with the sample somewhere.  Nothing here claims the general theorem; every
claim is checked by exhaustion at desk scale.

The search bounds the work it does, not the size of the space it covers:
one call may place ``_WORK_BOUND`` trie nodes and partial tables in all,
over every state count it walks, and raises SearchSpaceError past that.
Time tracks this count, and where it stops depends only on the inputs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from .machine import HypermachineError, InputError, _Record, words_over

ALPHABET = ("0", "1")

# about 5 s of search at about 0.5 us per unit on a 2-core host
_WORK_BOUND = 10_000_000


class SearchSpaceError(HypermachineError):
    """The separation search did more work than ``_WORK_BOUND`` allows;
    ``states`` is the DFA size it was walking when it passed the bound."""

    def __init__(self, states: int):
        super().__init__(
            f"separation search passed its work bound of {_WORK_BOUND} "
            f"(trie nodes placed plus partial tables tried) at {states} states"
        )
        self.states = states


class Dfa(_Record):
    """A complete deterministic finite automaton over ``alphabet``."""

    states: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    delta: Mapping[tuple[str, str], str]
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.start not in declared:
            raise InputError(f"start state {self.start!r} is not declared")
        if not self.accepting <= declared:
            raise InputError("accepting states must be declared states")
        for q in self.states:
            for sym in self.alphabet:
                target = self.delta.get((q, sym))
                if target is None:
                    raise InputError(f"delta is not total: missing ({q!r}, {sym!r})")
                if target not in declared:
                    raise InputError(f"delta target {target!r} is not declared")


def dfa_run(dfa: Dfa, word: str) -> bool:
    state = dfa.start
    for ch in word:
        if ch not in dfa.alphabet:
            raise InputError(f"input symbol {ch!r} is not in the DFA alphabet")
        state = dfa.delta[(state, ch)]
    return state in dfa.accepting


class Equivalent(_Record):
    """The two DFAs accept the same language."""


class Counterexample(_Record):
    """A shortest word that one DFA accepts and the other rejects."""

    word: str


def dfa_equiv(d1: Dfa, d2: Dfa) -> Equivalent | Counterexample:
    """Exact decision via breadth-first search over the product automaton.

    The counterexample, if any, is a shortest distinguishing word and the
    lexicographically least among those.
    """
    if d1.alphabet != d2.alphabet:
        raise InputError("DFAs do not share an alphabet")
    queue = deque([(d1.start, d2.start, "")])
    visited = {(d1.start, d2.start)}
    while queue:
        s1, s2, word = queue.popleft()
        if (s1 in d1.accepting) != (s2 in d2.accepting):
            return Counterexample(word)
        for sym in d1.alphabet:
            pair = (d1.delta[(s1, sym)], d2.delta[(s2, sym)])
            if pair not in visited:
                visited.add(pair)
                queue.append((*pair, word + sym))
    return Equivalent()


# --- separation search ------------------------------------------------------


class NoDfaMatches(_Record):
    """No DFA within the state bound fits the sample."""


class DfaFound(_Record):
    """The first DFA in canonical order that fits the sample."""

    dfa: Dfa


class SeparationReport(_Record):
    """A separation search's state bound, DFA count and verdict."""

    max_states: int
    dfas_searched: int
    witness: NoDfaMatches | DfaFound


def _build_dfa(n: int, delta: tuple[int, ...], accepting: frozenset[int]) -> Dfa:
    states = tuple(f"s{i}" for i in range(n))
    return Dfa(
        states=states,
        start="s0",
        accepting=frozenset(f"s{i}" for i in accepting),
        delta={
            (f"s{s}", sym): f"s{delta[2 * s + b]}"
            for s in range(n)
            for b, sym in enumerate(ALPHABET)
        },
    )


def _completion_counts(n: int) -> list[list[int]]:
    """``counts[idx][top]``: how many canonical tables of n states extend a
    prefix that fixes the first ``idx`` cells with ``top`` the highest state
    used so far.  ``counts[0][0]`` is the number of canonical tables of n
    states, the ones ``_walk_tables`` visits."""
    cells = 2 * n
    counts = [[0] * n for _ in range(cells + 1)]
    counts[cells][n - 1] = 1
    for idx in range(cells - 1, -1, -1):
        after = counts[idx + 1]
        for top in range(n):
            counts[idx][top] = sum(after[max(top, target)] for target in range(min(top + 1, n - 1) + 1))
    return counts


def _sample_trie(sample: Mapping[str, int] | Iterable[tuple[str, int]]) -> tuple[list[int], list[int]]:
    """The sample's prefix trie, built and checked in one pass, in any order:
    per node its label (-1 if the prefix is not a sample word) and, flat at
    ``2*node + bit``, its children (0 if absent: node 0, the empty prefix, is
    no child).  A word given twice is a node labelled twice, and is refused."""
    labels = [-1]
    children = [0, 0]
    for word, bit in sample.items() if isinstance(sample, Mapping) else sample:
        node = 0
        for ch in word:
            if ch == "0":
                cell = 2 * node
            elif ch == "1":
                cell = 2 * node + 1
            else:
                raise InputError(f"sample word {word!r} is not over {{0,1}}")
            node = children[cell]
            if not node:
                node = children[cell] = len(labels)
                labels.append(-1)
                children += (0, 0)
        if bit not in (0, 1):
            raise InputError(f"sample label for {word!r} must be 0 or 1")
        if labels[node] >= 0:
            raise InputError(f"sample labels {word!r} twice")
        labels[node] = bit
    return labels, children


def _walk_tables(
    n: int, labels: list[int], children: list[int], budget: int
) -> tuple[int, int, tuple[tuple[int, ...], frozenset[int]] | None]:
    """Depth-first over the canonical tables of n states, fixing one cell at
    a time.  A table is flat, cell 2*state+bit holding the target, and
    canonical when states are numbered by first use (each target is at most
    one above the highest state before it, state 0 included) and every state
    occurs.  The walk takes these tables in lexicographic order.  Renamings
    are never revisited, and every language over fewer live states already
    appears at a smaller n.

    Each trie node whose path is fully fixed gets its state, and a sample
    word's label forces its state.  Once two words force one state both ways,
    every completion of the prefix conflicts, so the subtree is skipped and
    counted through ``_completion_counts``.  Returns the (table, accepting
    set) pairs covered up to and including the first match, the budget left
    (SearchSpaceError once it is overspent) and that match or None.  A match's
    accepting set is the states that sample words force to accept; an
    unconstrained state stays rejecting, which picks the first matching DFA in
    canonical (ascending accepting-mask) order.
    """
    cells = 2 * n
    counts = _completion_counts(n)
    weight = 2**n
    table = [0] * cells
    forced = [-1] * n  # the label a state is forced to, -1 while free
    forced[0] = labels[0]
    pending: list[list[int]] = [[] for _ in range(cells)]  # trie nodes reached through each unfixed cell
    for b in (0, 1):
        if children[b]:
            pending[b].append(children[b])
    searched = 0

    def fix(idx: int) -> bool:
        """Give a state to every node entered through cell ``idx``, and to
        their descendants through fixed cells; False on a conflict.  Spends a
        unit of budget on the partial table and one on each node placed."""
        nonlocal budget
        budget -= 1
        work = [(node, table[idx]) for node in pending[idx]]
        while work:
            budget -= 1
            node, state = work.pop()
            label = labels[node]
            if label >= 0:
                if forced[state] < 0:
                    forced[state] = label
                elif forced[state] != label:
                    return False
            for b in (0, 1):
                if child := children[2 * node + b]:
                    cell = 2 * state + b
                    if cell <= idx:
                        work.append((child, table[cell]))
                    else:
                        pending[cell].append(child)
        return True

    def walk(idx: int, top: int) -> tuple[tuple[int, ...], frozenset[int]] | None:
        nonlocal searched
        for target in range(min(top + 1, n - 1) + 1):
            new_top = max(top, target)
            completions = counts[idx + 1][new_top]
            if not completions:
                continue
            table[idx] = target
            saved = forced[:]
            sizes = [len(nodes) for nodes in pending]
            consistent = fix(idx)
            if budget < 0:
                raise SearchSpaceError(n)
            if not consistent:
                searched += weight * completions
            elif idx + 1 == cells:
                searched += weight
                return tuple(table), frozenset(state for state in range(n) if forced[state] == 1)
            elif (found := walk(idx + 1, new_top)) is not None:
                return found
            forced[:] = saved
            for nodes, size in zip(pending, sizes):
                del nodes[size:]
        return None

    found = walk(0, 0)
    return searched, budget, found


def separation_search(
    sample: Mapping[str, int] | Iterable[tuple[str, int]], max_states: int
) -> SeparationReport:
    """Exhaust all DFAs with up to max_states states against a labelled sample.

    The sample is read once, in any order, into its prefix trie, where a word
    given twice is a node labelled twice and is refused.  dfas_searched counts
    every (table, accepting set) pair the search covers; accepting sets are
    resolved per table by constraint propagation, which decides all 2^n of
    them at once without changing the verdict or the canonical choice of
    witness.  Tables are built one cell at a time, and a prefix on which two
    sample words already conflict is skipped with all its completions, which
    are counted exactly, so the report equals that of checking every
    canonical table, in ``_walk_tables``'s order, whole.  Past
    ``_WORK_BOUND`` units of work the call raises SearchSpaceError.
    """
    if max_states < 1:
        raise InputError("max_states must be >= 1")
    labels, children = _sample_trie(sample)
    searched = 0
    budget = _WORK_BOUND
    for n in range(1, max_states + 1):
        covered, budget, found = _walk_tables(n, labels, children, budget)
        searched += covered
        if found is not None:
            delta, accepting = found
            return SeparationReport(max_states, searched, DfaFound(_build_dfa(n, delta, accepting)))
    return SeparationReport(max_states, searched, NoDfaMatches())


# --- built-in samples -------------------------------------------------------


def sample_anbn(max_length: int, max_n: int | None = None) -> dict[str, int]:
    """Every word up to max_length labelled by membership in {0^n 1^n}."""
    def member(word: str) -> int:
        half = len(word) // 2
        return int(len(word) % 2 == 0 and word == "0" * half + "1" * half and (max_n is None or half <= max_n))

    return {word: member(word) for word in words_over(ALPHABET, max_length)}


def sample_parity(max_length: int) -> dict[str, int]:
    """Every word up to max_length labelled 1 iff it has an even count of 1s."""
    return {word: int(word.count("1") % 2 == 0) for word in words_over(ALPHABET, max_length)}


def sample_palindrome(max_length: int) -> dict[str, int]:
    return {word: int(word == word[::-1]) for word in words_over(ALPHABET, max_length)}


BUILTIN_SAMPLES = {
    "anbn": sample_anbn,
    "parity": sample_parity,
    "palindrome": sample_palindrome,
}
