"""Deterministic Turing machines over bi-infinite tapes, with bounded runs.

The model: a finite control (states plus a deterministic rule table), one or
more tapes unbounded in both directions, and one head per tape.  A rule maps
(state, scanned symbols) to (next state, written symbols, head moves).  A run
halts when the control reaches a final state or no rule applies; otherwise it
stops when the step budget is exhausted.  Final states are flagged as
result-bearing or resultless; only a result-bearing halt yields a result word.

Tapes are stored sparsely as {cell: symbol} with blank cells absent, so every
reachable configuration is finite and cheap to copy, compare, and replay.

``Run`` is the one engine: a resumable cursor over a machine compiled once
per run, behind ``run_bounded``, ``HaltProbe`` and every client in the other
modules.  ``step`` and ``config_sequence`` are the reference semantics: small,
pure and slow, kept for tests to compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Mapping

LEFT = "L"
RIGHT = "R"
STAY = "S"
MOVES = (LEFT, RIGHT, STAY)
BLANK = "_"

_DELTA = {LEFT: -1, RIGHT: 1, STAY: 0}
_HOOK_CELLS = 128  # above this many cells a single-tape hook sees only possible runaway starts

Symbols = tuple[str, ...]
RuleKey = tuple[str, Symbols]
RuleBody = tuple[str, Symbols, Symbols]


class HypermachineError(Exception):
    """Base class for every error raised by this package."""


class StructureError(HypermachineError):
    """A machine, configuration, or edit violates a structural invariant.

    ``key`` names the rule at fault, or the rule that carries a faulty edit;
    it is None when no single rule is at fault.
    """

    def __init__(self, message: str, key: RuleKey | None = None):
        super().__init__(message)
        self.key = key


class InputError(HypermachineError):
    """An input word or argument lies outside the declared domain."""


@dataclass(frozen=True, eq=True)
class Machine:
    """An immutable deterministic machine.

    ``rules`` maps (state, scanned-symbol tuple) to (next state, written
    symbols, moves); the tuple arity always equals ``tape_count``.  ``finals``
    maps each final state to True (result-bearing) or False (resultless).
    Machines are never mutated after construction and are safe to share.
    """

    name: str
    tape_count: int
    alphabet: Symbols  # includes blank
    blank: str
    states: tuple[str, ...]
    start: str
    finals: Mapping[str, bool]
    rules: Mapping[RuleKey, RuleBody]

    def __post_init__(self) -> None:
        if self.tape_count < 1:
            raise StructureError(f"tape_count must be >= 1, got {self.tape_count}")
        if len(set(self.states)) != len(self.states):
            raise StructureError("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise StructureError("duplicate alphabet symbols")
        if self.blank not in self.alphabet:
            raise StructureError("blank symbol must be part of the alphabet")
        for sym in self.alphabet:
            if len(sym) != 1:
                raise StructureError(f"symbols must be single characters, got {sym!r}")
        declared = set(self.states)
        if self.start not in declared:
            raise StructureError(f"start state {self.start!r} is not declared")
        for q in self.finals:
            if q not in declared:
                raise StructureError(f"final state {q!r} is not declared")
        _check_rules(self, self.rules)

    @property
    def input_alphabet(self) -> Symbols:
        return tuple(sym for sym in self.alphabet if sym != self.blank)


def _check_rules(machine: Machine, rules: Mapping[RuleKey, RuleBody], at: RuleKey | None = None) -> None:
    """Raise StructureError unless every rule fits the machine: declared
    states, no rule for a final state, one symbol and one move per tape,
    symbols of the alphabet and valid moves.  Given ``at``, the rules are
    what an edit carried by the rule ``at`` installs, and ``at`` is the
    error's key; otherwise the key is the faulty rule's own."""
    declared = set(machine.states)
    symbols = set(machine.alphabet)
    what = "rule" if at is None else "edit rule"
    for key, (nstate, writes, moves) in rules.items():
        state, syms = key
        fault = at or key
        if state not in declared or nstate not in declared:
            raise StructureError(f"{what} ({state!r}, {syms!r}) references an undeclared state", fault)
        if state in machine.finals:
            raise StructureError(f"{what} declared for final state {state!r}", fault)
        if not (len(syms) == len(writes) == len(moves) == machine.tape_count):
            raise StructureError(f"{what} ({state!r}, {syms!r}) has wrong arity", fault)
        for sym in syms + writes:
            if sym not in symbols:
                raise StructureError(f"{what} ({state!r}, {syms!r}) uses unknown symbol {sym!r}", fault)
        for move in moves:
            if move not in MOVES:
                raise StructureError(f"{what} ({state!r}, {syms!r}) has invalid move {move!r}", fault)


def single_tape_machine(
    name: str,
    rules: Mapping[tuple[str, str], tuple[str, str, str]],
    finals: Mapping[str, bool] | None = None,
    start: str = "q0",
    alphabet: Symbols = ("0", "1"),
    extra_states: tuple[str, ...] = (),
) -> Machine:
    """Build a single-tape machine from scalar (state, symbol) rules."""
    finals = dict(finals or {})
    states: list[str] = [start]
    for (q, _), (nq, _, _) in rules.items():
        for s in (q, nq):
            if s not in states:
                states.append(s)
    for q in list(finals) + list(extra_states):
        if q not in states:
            states.append(q)
    return Machine(
        name=name,
        tape_count=1,
        alphabet=(BLANK,) + tuple(alphabet),
        blank=BLANK,
        states=tuple(states),
        start=start,
        finals=finals,
        rules={(q, (s,)): (nq, (w,), (m,)) for (q, s), (nq, w, m) in rules.items()},
    )


@dataclass
class Configuration:
    """A full instantaneous description: state, tapes, heads, step count."""

    state: str
    tapes: tuple[dict[int, str], ...]
    heads: tuple[int, ...]
    step: int = 0


# --- step results ---------------------------------------------------------


@dataclass(frozen=True)
class NextConfig:
    config: Configuration


@dataclass(frozen=True)
class NoRule:
    pass


@dataclass(frozen=True)
class AtFinal:
    pass


NO_RULE = NoRule()
AT_FINAL = AtFinal()


# --- run outcomes ---------------------------------------------------------


@dataclass(frozen=True)
class HaltedWithResult:
    result: str
    steps: int


@dataclass(frozen=True)
class HaltedResultless:
    steps: int


@dataclass(frozen=True)
class BudgetExhausted:
    steps: int
    config: Configuration


RunOutcome = HaltedWithResult | HaltedResultless | BudgetExhausted


def outcomes_agree(a: RunOutcome, b: RunOutcome) -> bool:
    """Same variant and same result word; step counts are ignored."""
    if type(a) is not type(b):
        return False
    if isinstance(a, HaltedWithResult):
        return a.result == b.result
    return True


def trimmed_word(tape: Mapping[int, str], blank: str = BLANK) -> str:
    """Tape content between the outermost non-blank cells; all-blank -> ε.

    Interior blank cells, should a machine leave any, appear as the blank
    glyph so that distinct tapes never collapse to the same word.
    """
    if not tape:
        return ""
    lo = min(tape)
    hi = max(tape)
    return "".join(tape.get(i, blank) for i in range(lo, hi + 1))


def _retrim(word: str, lo: int, cell: int, sym: str, blank: str) -> tuple[str, int]:
    """A tape's trimmed word and leftmost cell after one step left ``sym``
    (the blank when erased) at ``cell``, from ``word`` and ``lo`` before it;
    ``lo`` is meaningless while the word is empty.  Exact because a run never
    stores a blank cell, so a trimmed word never starts or ends with one."""
    at = cell - lo
    if 0 <= at < len(word):
        if word[at] == sym:
            return word, lo
        word = word[:at] + sym + word[at + 1 :]
        if sym != blank:
            return word, lo
        kept = word.lstrip(blank)
        return kept.rstrip(blank), lo + len(word) - len(kept)
    if sym == blank:
        return word, lo
    if not word:
        return sym, cell
    if at < 0:
        return sym + blank * (-at - 1) + word, cell
    return word + blank * (at - len(word)) + sym, lo


def initial_configuration(machine: Machine, input_word: str) -> Configuration:
    """Input on tape 0 starting at cell 0, all heads at 0."""
    symbols = set(machine.alphabet)
    for ch in input_word:
        if ch == machine.blank:
            raise InputError("input words may not contain the blank symbol")
        if ch not in symbols:
            raise InputError(f"input symbol {ch!r} is not in the alphabet")
    tape0 = {i: ch for i, ch in enumerate(input_word)}
    tapes = (tape0,) + tuple({} for _ in range(machine.tape_count - 1))
    return Configuration(state=machine.start, tapes=tapes, heads=(0,) * machine.tape_count, step=0)


def step(machine: Machine, config: Configuration) -> NextConfig | NoRule | AtFinal:
    """Apply the unique matching rule once; pure with respect to ``config``."""
    if len(config.tapes) != machine.tape_count or len(config.heads) != machine.tape_count:
        raise StructureError("configuration tape/head arity does not match the machine")
    if config.state not in set(machine.states):
        raise StructureError(f"configuration state {config.state!r} is not declared")
    if config.state in machine.finals:
        return AT_FINAL
    syms = tuple(t.get(h, machine.blank) for t, h in zip(config.tapes, config.heads))
    rule = machine.rules.get((config.state, syms))
    if rule is None:
        return NO_RULE
    nstate, writes, moves = rule
    tapes = []
    heads = []
    for tape, head, w, m in zip(config.tapes, config.heads, writes, moves):
        new = dict(tape)
        if w == machine.blank:
            new.pop(head, None)
        else:
            new[head] = w
        tapes.append(new)
        heads.append(head + _DELTA[m])
    return NextConfig(Configuration(nstate, tuple(tapes), tuple(heads), config.step + 1))


def config_sequence(machine: Machine, input_word: str, budget: int) -> list[Configuration]:
    """The configurations visited by a bounded run, initial one included."""
    _check_budget(budget)
    config = initial_configuration(machine, input_word)
    seq = [config]
    while config.step < budget:
        nxt = step(machine, config)
        if not isinstance(nxt, NextConfig):
            break
        config = nxt.config
        seq.append(config)
    return seq


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")


def _compiled_rows(machine: Machine, rules: Mapping[RuleKey, RuleBody] | None = None) -> dict[str, dict]:
    """Per-state rule rows for non-final states; a final state has no row.

    A row maps the scanned symbol (single tape) or symbol tuple to a compiled
    rule.  ``rules`` defaults to the machine's own table.
    """
    rows: dict[str, dict] = {q: {} for q in machine.states if q not in machine.finals}
    blank = machine.blank
    single = machine.tape_count == 1
    for (state, syms), (nstate, writes, moves) in (machine.rules if rules is None else rules).items():
        if single:
            rows[state][syms[0]] = (nstate, writes[0], writes[0] == blank, _DELTA[moves[0]])
        else:
            rows[state][syms] = (nstate, writes, tuple(_DELTA[m] for m in moves))
    return rows


def result_tape_index(machine: Machine) -> int:
    """Single tape carries the result; multi-tape machines use the last tape."""
    return 0 if machine.tape_count == 1 else machine.tape_count - 1


class Run:
    """A resumable run from the standard initial configuration.

    This is the one engine: every bounded run, probe, observation, trace and
    self-editing run advances a ``Run``, while ``step`` stays the reference
    semantics that tests compare against.  The machine is compiled once, into
    rows private to this run.  ``hook(state, tapes, heads, steps, rule)`` is
    called before every rule fires when given (on a single tape it receives
    the tape and the head instead); a truthy result stops the run unfired and
    is kept in ``checked``.  On a single tape holding more than _HOOK_CELLS
    cells the hook is skipped, and ``steps`` jumps, unless the rule could
    start a blank runaway: it reads blank, writes blank, moves and keeps its
    state.  A state with no row stops the run as a halt does, right after
    the rule that enters it fires: a final state, or a next state that
    ``patch`` gave a rule and that the table does not hold.
    """

    __slots__ = ("machine", "state", "tapes", "heads", "steps", "halted", "checked", "_hook", "_rows")

    def __init__(self, machine: Machine, input_word: str, hook: Callable[..., object] | None = None):
        config = initial_configuration(machine, input_word)
        self.machine = machine
        self.state = config.state
        self.tapes = config.tapes
        self.heads = list(config.heads)
        self.steps = 0
        self.halted = False  # a state with no row or a missing rule was reached
        self.checked = None
        self._hook = hook
        self._rows = _compiled_rows(machine)

    def advance(self, budget: int) -> None:
        """Run until ``steps`` reaches ``budget``, the run halts (it reaches a
        state with no row or a missing rule) or the hook stops it."""
        rows = self._rows
        hook = self._hook
        blank = self.machine.blank
        state = self.state
        steps = self.steps
        row = rows.get(state)
        found = None
        if len(self.tapes) == 1:
            tape = self.tapes[0]
            get = tape.get
            pop = tape.pop
            head = self.heads[0]
            cap = _HOOK_CELLS
            while steps < budget:
                if row is None:
                    self.halted = True
                    break
                rule = row.get(get(head, blank))
                if rule is None:
                    self.halted = True
                    break
                nstate, wsym, wblank, delta = rule
                if (
                    hook is not None
                    and (len(tape) <= cap or (wblank and delta and nstate == state and head not in tape))
                    and (found := hook(state, tape, head, steps, rule))
                ):
                    break
                if wblank:
                    pop(head, None)
                else:
                    tape[head] = wsym
                head += delta
                steps += 1
                if nstate is not state:
                    state = nstate
                    row = rows.get(state)
            self.heads[0] = head
        else:
            tapes = self.tapes
            heads = self.heads
            blanks = (blank,) * len(tapes)
            get = dict.get
            span = range(len(tapes))
            while steps < budget:
                if row is None:
                    self.halted = True
                    break
                rule = row.get(tuple(map(get, tapes, heads, blanks)))
                if rule is None:
                    self.halted = True
                    break
                nstate, writes, deltas = rule
                if hook is not None and (found := hook(state, tapes, heads, steps, rule)):
                    break
                for i in span:
                    w = writes[i]
                    h = heads[i]
                    if w == blank:
                        tapes[i].pop(h, None)
                    else:
                        tapes[i][h] = w
                    heads[i] = h + deltas[i]
                steps += 1
                if nstate is not state:
                    state = nstate
                    row = rows.get(state)
        self.state = state
        self.steps = steps
        self.checked = found

    def snapshot(self) -> Configuration:
        """A copy of the current configuration."""
        return Configuration(self.state, tuple(dict(t) for t in self.tapes), tuple(self.heads), self.steps)

    def outcome(self) -> RunOutcome:
        """The outcome so far: a halt once one was reached, else exhaustion."""
        if not self.halted:
            return BudgetExhausted(self.steps, self.snapshot())
        machine = self.machine
        if machine.finals.get(self.state):
            return HaltedWithResult(trimmed_word(self.tapes[result_tape_index(machine)], machine.blank), self.steps)
        return HaltedResultless(self.steps)

    def patch(self, key: RuleKey, body: RuleBody) -> None:
        """Install or replace one rule of this run's private table."""
        state = key[0]
        self._rows[state].update(_compiled_rows(self.machine, {key: body})[state])


def run_bounded(machine: Machine, input_word: str, budget: int) -> RunOutcome:
    """Run from the standard initial configuration for at most ``budget`` steps.

    Stopping is discovered by attempting to continue: a run that lands in a
    final state, or a stuck configuration, exactly on the last budgeted step
    reports BudgetExhausted, and counts as halted only under a strictly
    larger budget.  Larger budgets therefore refine, and never contradict,
    smaller ones.
    """
    _check_budget(budget)
    run = Run(machine, input_word)
    run.advance(budget)
    return run.outcome()


class HaltProbe:
    """Incremental halting queries against a single machine run.

    ``halted_by(b)`` answers exactly as ``run_bounded(machine, word, b)``
    would, advancing a persistent run only as far as needed, so a sweep over
    growing budgets costs one pass instead of one run per budget.
    """

    def __init__(self, machine: Machine, input_word: str):
        self.machine = machine
        self._run = Run(machine, input_word)

    def halted_by(self, budget: int) -> bool:
        _check_budget(budget)
        run = self._run
        if not run.halted:
            run.advance(budget)
        # Halting is discovered by attempting the next step, so it needs a
        # budget strictly beyond the halt step.
        return run.halted and run.steps < budget

    @property
    def halt_step(self) -> int | None:
        return self._run.steps if self._run.halted else None


def words_over(alphabet: Symbols, max_length: int) -> Iterator[str]:
    """All words up to the given length in length-lexicographic order."""
    for length in range(max_length + 1):
        for chars in product(alphabet, repeat=length):
            yield "".join(chars)


@dataclass(frozen=True)
class EquivalentUpTo:
    max_input_length: int
    budget: int


@dataclass(frozen=True)
class Counterexample:
    word: str
    outcome1: RunOutcome
    outcome2: RunOutcome


def observational_equiv(
    m1: Machine, m2: Machine, max_input_length: int, budget: int
) -> EquivalentUpTo | Counterexample:
    """Compare bounded outcomes on every word up to the given length.

    The empty word is compared first; the reported counterexample is the
    earliest mismatch in length-lexicographic order.
    """
    if set(m1.input_alphabet) != set(m2.input_alphabet):
        raise InputError("machines do not share an input alphabet")
    for word in words_over(m1.input_alphabet, max_input_length):
        o1 = run_bounded(m1, word, budget)
        o2 = run_bounded(m2, word, budget)
        if not outcomes_agree(o1, o2):
            return Counterexample(word, o1, o2)
    return EquivalentUpTo(max_input_length, budget)
