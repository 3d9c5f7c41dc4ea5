"""Machines whose result is the output word once it stops changing.

A three-tape machine (input, working, output) is run under a step budget; the
per-step hook that looks for certificates also logs each change of the
trimmed output-tape content as its rule fires.  The result is the current
output word together with an honest epistemic status:

* ``CertifiedStable(Halted())``  - the run halted, nothing can change;
* ``CertifiedStable(cert)``      - the run provably never halts and the
  certificate implies the output can never change again;
* ``Provisional()``              - the budget ran out first; the current word
  may still be revised by a longer run.

Non-halting certificates are sound but deliberately incomplete: a full
decision procedure cannot exist.  Two finite, machine-checkable patterns are
recognised - an exact repeat of a (translation-normalised) configuration, and
a head running away over blank cells in a self-returning state.

Repeats are looked for among configurations of at most 64 cells, through a
Karp-Rabin rolling hash that the rule about to fire updates in O(1).  The
hash keys of the first 2**16 steps are kept, so a cycle that starts before
then is reported exactly at its first repeat.  After that only the keys at
Brent's power-of-two checkpoints are kept (Brent 1980), so memory stays
bounded whatever the budget.  The one difference: a cycle that starts at or
after step 2**16 may be reported, and its run stopped, some steps after its
first repeat.  Its certificate is still the exact (period,
first_repeat_step), as the period is found exactly and the start is
recovered by replay.  Every hash match is confirmed by replaying a fresh run
and comparing configurations exactly, so a hash collision costs time but
never yields a false or different certificate.

On a single tape the engine calls the check only while the tape holds at
most 128 cells, or when the rule about to fire could start a blank runaway.
No other step can repeat a tracked configuration or start a runaway; the
check's hash misses those steps, so it rebuilds the hash once the tape holds
at most 64 cells again, and the certificates are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .codec import (
    Description,
    UnsupportedMachineError,
    decode,
    index_word,
    nth_description,
    universal_run,
    word_index,
)
from .machine import (
    _check_budget,
    _retrim,
    BudgetExhausted,
    HaltedWithResult,
    InputError,
    Machine,
    Run,
    RunOutcome,
    run_bounded,
)

CandidateDecider = Callable[[Description, str], bool]


# --- certificates and statuses ---------------------------------------------


@dataclass(frozen=True)
class ConfigurationCycle:
    """Normalised configurations at first_repeat_step and first_repeat_step +
    period are identical, so the run is exactly periodic from there on."""

    period: int
    first_repeat_step: int


@dataclass(frozen=True)
class BlankRunaway:
    """From onset_step the machine sits in ``state`` forever: every head reads
    blank and either stays put or moves away from the non-blank extent, and
    the single applicable rule returns to ``state`` writing only blanks."""

    state: str
    direction: tuple[str, ...]
    onset_step: int


NonHaltingCertificate = ConfigurationCycle | BlankRunaway


@dataclass(frozen=True)
class Halted:
    pass


HALTED = Halted()


@dataclass(frozen=True)
class CertifiedStable:
    reason: Halted | NonHaltingCertificate


@dataclass(frozen=True)
class Provisional:
    pass


PROVISIONAL = Provisional()


@dataclass(frozen=True)
class ObservationLog:
    """Output snapshots at step 0 and at every step where the trimmed output
    changed; steps strictly increase and consecutive snapshots differ."""

    entries: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class InductiveOutcome:
    current_output: str
    last_change_step: int
    steps_executed: int
    status: CertifiedStable | Provisional
    log: ObservationLog


# --- the observing engine ---------------------------------------------------
#
# Observation is a plain ``Run`` with a pre-step hook that looks for the two
# certificate patterns; the hook returns the certificate, which stops the run.
# When none fires, the multi-tape hook also logs the change that the rule
# about to fire makes to the trimmed output, so the log ends where the run does.
#
# Cycles are found through a rolling hash of the translation-normalised
# configuration.  Per tape it is the sum of v(symbol) * B**(cell - head) modulo
# a prime, with v(blank) = 0, so the rule about to fire updates it with one
# addition for the write and one multiplication, by B**-1 or B, for the move.
# Only configurations of at most _CYCLE_CELL_CAP cells are tracked, and the
# hash is not kept for configurations far above that size.

_CYCLE_CELL_CAP = 64  # configurations larger than this are not cycle-tracked
_REHASH_CELLS = 128  # above this many cells the multi-tape hook drops its hash
_HISTORY_STEPS = 1 << 16  # tracked configurations before this step are remembered
_MODULUS = (1 << 61) - 1
_BASE = 0x27895416BD6F612
_TAPE_WEIGHT = 0x678504D9B701C53


@lru_cache(maxsize=256)
def _hash_constants(
    modulus: int, alphabet: tuple[str, ...], blank: str, tape_count: int, states: tuple[str, ...]
) -> tuple[tuple[dict[str, int], ...], tuple[int, ...], dict[str, int]]:
    """The value of each symbol on each tape (blank is 0, and each tape has its
    own weight), the factor for each head move, indexed by its delta, and the
    key offset of each state.  A key is the sum of the tape hashes plus the
    state's offset, so it is exact in the state.  Callers share the result
    and never change it."""
    values = []
    for i in range(tape_count):
        weight = pow(_TAPE_WEIGHT, i, modulus)
        value = {sym: (k + 1) * weight % modulus for k, sym in enumerate(alphabet) if sym != blank}
        value[blank] = 0
        values.append(value)
    base = _BASE % modulus
    # a move right lowers every cell's offset from the head by one
    move = (1, pow(base, -1, modulus), base)
    return tuple(values), move, {q: i * modulus for i, q in enumerate(states)}


def _tape_hash(tape: dict[int, str], head: int, value: dict[str, int], move: tuple[int, ...], modulus: int) -> int:
    """One tape's hash, computed in full."""
    base, inverse = move[-1], move[1]
    terms = (
        value[sym] * pow(base if cell >= head else inverse, abs(cell - head), modulus) for cell, sym in tape.items()
    )
    return sum(terms) % modulus


def _normal_form(state: str, tapes: Sequence[dict], heads: Sequence[int]) -> tuple:
    return state, tuple({cell - head: sym for cell, sym in tape.items()} for tape, head in zip(tapes, heads))


class _Cycles:
    """The first repeat of a cycle-tracked configuration, found by hash key.

    The key of every tracked configuration before step _HISTORY_STEPS is
    kept, so a cycle that starts before then is reported exactly at its first
    repeat, step first_repeat_step + period.  Later, keys are kept only at
    Brent's checkpoints: the first tracked step at or after ``mark``, where
    the distance between checkpoints doubles each time.  A later cycle is
    therefore reported at the first repeat of a checkpoint that lies in it.
    The distance from the checkpoint to that repeat is exactly the period,
    because every tracked step is compared with every checkpoint before it;
    replay then recovers the cycle's first tracked step, so the certificate
    is the one a full history would give.  The hooks keep a new key before
    _HISTORY_STEPS themselves and call ``visit`` only for a known key or,
    after that, at the mark.
    """

    __slots__ = ("machine", "input_word", "seen", "collided", "mark", "window")

    def __init__(self, machine: Machine, input_word: str):
        self.machine = machine
        self.input_word = input_word
        self.seen: dict[int, int] = {}  # key -> step of its first configuration
        self.collided: dict[int, list[int]] = {}  # key -> steps of other configurations
        self.mark = 0
        self.window = 1

    def visit(
        self, key: int, steps: int, state: str, tapes: Sequence[dict], heads: Sequence[int]
    ) -> ConfigurationCycle | None:
        first = self.seen.get(key)
        if first is None:
            self.seen[key] = steps
            if steps >= _HISTORY_STEPS:
                self.mark = steps + self.window
                self.window *= 2
            return None
        for earlier in (first, *self.collided.get(key, ())):
            if self._same(earlier, state, tapes, heads):
                period = steps - earlier
                if earlier >= _HISTORY_STEPS:  # a checkpoint, which may lie past the cycle's start
                    earlier = self._first_repeat(period, earlier)
                return ConfigurationCycle(period, earlier)
        if steps < _HISTORY_STEPS:
            self.collided.setdefault(key, []).append(steps)
        return None

    def _replay(self, steps: int) -> Run:
        run = Run(self.machine, self.input_word)
        run.advance(steps)
        return run

    def _same(self, earlier: int, state: str, tapes: Sequence[dict], heads: Sequence[int]) -> bool:
        run = self._replay(earlier)
        return _normal_form(run.state, run.tapes, run.heads) == _normal_form(state, tapes, heads)

    def _first_repeat(self, period: int, repeating: int) -> int:
        """The first tracked step from which the run repeats with ``period``,
        given that it does so from step ``repeating``."""
        # a configuration repeats after ``period`` steps from the cycle's start
        # on and never before, so the start is found by bisection
        lo, hi = 0, repeating
        while lo < hi:
            mid = (lo + hi) // 2
            run = self._replay(mid)
            then = _normal_form(run.state, run.tapes, run.heads)
            run.advance(mid + period)
            if then == _normal_form(run.state, run.tapes, run.heads):
                hi = mid
            else:
                lo = mid + 1
        run = self._replay(lo)
        while sum(map(len, run.tapes)) > _CYCLE_CELL_CAP:
            run.advance(run.steps + 1)
        return run.steps


def _single_tape_check(machine: Machine, input_word: str) -> Callable:
    modulus = _MODULUS
    (value,), move, offsets = _hash_constants(modulus, machine.alphabet, machine.blank, 1, machine.states)
    blank = machine.blank
    history = _HISTORY_STEPS
    h, at = 0, -1  # the tape's hash, kept for the configuration of step ``at`` only
    cycles = _Cycles(machine, input_word)
    seen = cycles.seen

    def check(state, tape, head, steps, rule):
        nonlocal h, at
        # a runaway repeats a rule that reads blank (the head is off the
        # stored cells), writes blank, moves, and keeps the state
        nstate, wsym, wblank, delta = rule
        if wblank and delta and nstate == state and head not in tape and _runaway_direction_ok(delta, tape, head):
            return BlankRunaway(state, ("R" if delta > 0 else "L",), steps)
        cells = len(tape)
        # the hash misses the steps that the engine skips, all of which hold
        # more than 128 cells, and is rebuilt here
        if at != steps:
            if cells > _CYCLE_CELL_CAP:
                return None
            h = _tape_hash(tape, head, value, move, modulus)
        if cells <= _CYCLE_CELL_CAP:
            key = h + offsets[state]
            if key in seen:
                if found := cycles.visit(key, steps, state, (tape,), (head,)):
                    return found
            elif steps < history:
                seen[key] = steps
            elif steps >= cycles.mark:
                cycles.visit(key, steps, state, (tape,), (head,))
        h = (h + value[wsym] - value[tape.get(head, blank)]) * move[delta] % modulus
        at = steps + 1
        return None

    return check


def _multi_tape_check(machine: Machine, input_word: str, changes: list[tuple[int, str]]) -> Callable:
    """The multi-tape hook; it also appends each output change to ``changes``."""
    modulus = _MODULUS
    tape_count = machine.tape_count
    values, move, offsets = _hash_constants(modulus, machine.alphabet, machine.blank, tape_count, machine.states)
    blank = machine.blank
    blanks = (blank,) * tape_count
    span = range(tape_count)
    history = _HISTORY_STEPS
    hashes = None  # the tapes' hashes, None while they are not kept
    cycles = _Cycles(machine, input_word)
    seen = cycles.seen
    word, lo = "", 0  # the trimmed output, empty at the start, and its leftmost cell

    def check(state, tapes, heads, steps, rule):
        nonlocal hashes, word, lo
        nstate, writes, deltas = rule
        if (
            nstate == state
            and writes == blanks
            and any(deltas)
            and all(h not in t for t, h in zip(tapes, heads))
            and all(_runaway_direction_ok(d, t, h) for d, t, h in zip(deltas, tapes, heads))
        ):
            return BlankRunaway(state, machine.rules[(state, blanks)][2], steps)
        cells = sum(map(len, tapes))
        if hashes is None:
            if cells <= _CYCLE_CELL_CAP:
                hashes = [_tape_hash(t, h, v, move, modulus) for t, h, v in zip(tapes, heads, values)]
        elif cells > _REHASH_CELLS:
            hashes = None
        if hashes is not None:
            if cells <= _CYCLE_CELL_CAP:
                key = sum(hashes) % modulus + offsets[state]
                if key in seen:
                    if found := cycles.visit(key, steps, state, tapes, heads):
                        return found
                elif steps < history:
                    seen[key] = steps
                elif steps >= cycles.mark:
                    cycles.visit(key, steps, state, tapes, heads)
            for i in span:
                old = tapes[i].get(heads[i], blank)
                if writes[i] != old or deltas[i]:
                    hashes[i] = (hashes[i] + values[i][writes[i]] - values[i][old]) * move[deltas[i]] % modulus
        # the rule fires right after this, so a rewritten output cell is a change
        sym, cell = writes[-1], heads[-1]
        if sym != tapes[-1].get(cell, blank):
            word, lo = _retrim(word, lo, cell, sym, blank)
            changes.append((steps + 1, word))
        return None

    return check


def _runaway_direction_ok(delta: int, tape: dict, head: int) -> bool:
    if not delta or not tape:
        return True
    return head > max(tape) if delta > 0 else head < min(tape)


def _observe(machine: Machine, input_word: str, budget: int) -> tuple[Run, list[tuple[int, str]]]:
    """Run until a halt, a certificate (kept in ``run.checked``) or the
    budget.  On a multi-tape machine the hook also logs every change of the
    trimmed output tape as the rule that makes it fires; the log starts at
    (0, "")."""
    _check_budget(budget)
    changes = [(0, "")]
    if machine.tape_count == 1:
        hook = _single_tape_check(machine, input_word)
    else:
        hook = _multi_tape_check(machine, input_word, changes)
    run = Run(machine, input_word, hook)
    run.advance(budget)
    return run, changes


# --- public operations ------------------------------------------------------


def _status(run: Run, last_change_step: int) -> CertifiedStable | Provisional:
    """The status of an observed run whose output last changed at
    ``last_change_step``.

    A halt is certified.  A blank runaway is certified, and so is a cycle
    with no output change in its window, one whose output last changed at
    or before its first repeat step; a change inside the window recurs
    forever.  Anything else, a cycle with a change in its window or a run
    out of budget, is provisional."""
    if run.halted:
        return CertifiedStable(HALTED)
    certificate = run.checked
    if isinstance(certificate, BlankRunaway) or (
        isinstance(certificate, ConfigurationCycle) and last_change_step <= certificate.first_repeat_step
    ):
        return CertifiedStable(certificate)
    return PROVISIONAL


def inductive_run(machine: Machine, input_word: str, budget: int) -> InductiveOutcome:
    """Run a three-tape machine, logging output changes, until it halts, a
    non-halting certificate fires, or the budget runs out."""
    if machine.tape_count != 3:
        raise UnsupportedMachineError("inductive runs need a 3-tape machine (input, working, output)")
    run, changes = _observe(machine, input_word, budget)
    last_step, current = changes[-1]
    return InductiveOutcome(current, last_step, run.steps, _status(run, last_step), ObservationLog(tuple(changes)))


@dataclass(frozen=True)
class Certificate:
    certificate: NonHaltingCertificate


@dataclass(frozen=True)
class HaltsAt:
    steps: int


@dataclass(frozen=True)
class Unknown:
    pass


UNKNOWN = Unknown()


def certify_nonhalting(machine: Machine, input_word: str, budget: int) -> Certificate | HaltsAt | Unknown:
    """Sound, incomplete non-halting detection; never a false certificate."""
    run, _ = _observe(machine, input_word, budget)
    if run.halted:
        return HaltsAt(run.steps)
    if run.checked:
        return Certificate(run.checked)
    return UNKNOWN


def halting_limit_decider(description: Description, input_word: str, budget: int) -> InductiveOutcome:
    """Limit-style halting decision: output 0 while the simulated machine
    runs, flipping to 1 exactly when it halts within the budget."""
    run, _ = _observe(decode(description), input_word, budget)
    if run.halted:
        entries = ((0, "1"),) if run.steps == 0 else ((0, "0"), (run.steps, "1"))
    else:
        entries = ((0, "0"),)
    last_step, current = entries[-1]
    return InductiveOutcome(current, last_step, run.steps, _status(run, last_step), ObservationLog(entries))


# --- diagonalization --------------------------------------------------------


def _diagonal_bit(claims_halt: bool, description: Description, word: str, budget: int) -> tuple[str, bool]:
    """The anti-diagonal bit for one (machine, word) pair, given the
    decider's claim about it.

    Returns (bit, tie_break): tie_break marks the fallback taken when the
    decider claimed a halt but the bounded simulation did not finish.
    """
    if not claims_halt:
        return "0", False
    outcome = universal_run(description, word, budget)
    if isinstance(outcome, HaltedWithResult) and outcome.result == "1":
        return "0", False
    return "1", isinstance(outcome, BudgetExhausted)


def diagonalize(decider: CandidateDecider, input_word: str, budget: int) -> str:
    """Behave differently from machine T_n on input u_n wherever the decider
    is right: n is the input's word index, T_n the n-th enumerated machine."""
    description = nth_description(word_index(input_word))
    return _diagonal_bit(bool(decider(description, input_word)), description, input_word, budget)[0]


@dataclass(frozen=True)
class AuditRow:
    index: int
    word: str
    claims_halt: bool
    observed: RunOutcome
    diagonal: str
    contradiction: bool
    completed: bool
    tie_break: bool


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    truth_budget: int
    sim_budget: int

    @property
    def contradictions(self) -> tuple[AuditRow, ...]:
        return tuple(row for row in self.rows if row.contradiction)

    def to_tsv(self) -> str:
        lines = ["index\tword\tclaim\tobserved\tdiagonal\tcontradiction\tcompleted\ttie_break"]
        for row in self.rows:
            lines.append(
                "\t".join(
                    (
                        str(row.index),
                        row.word,
                        "halt" if row.claims_halt else "no-halt",
                        _outcome_field(row.observed),
                        row.diagonal,
                        "1" if row.contradiction else "0",
                        "1" if row.completed else "0",
                        "1" if row.tie_break else "0",
                    )
                )
            )
        return "".join(line + "\n" for line in lines)


def _outcome_field(outcome: RunOutcome) -> str:
    if isinstance(outcome, HaltedWithResult):
        return f"result:{outcome.result}@{outcome.steps}"
    if isinstance(outcome, BudgetExhausted):
        return f"running@{outcome.steps}"
    return f"resultless@{outcome.steps}"


def audit_decider(
    decider: CandidateDecider,
    machine_count: int,
    truth_budget: int,
    sim_budget: int,
    rows: Sequence[tuple[Description, str]] | None = None,
) -> AuditReport:
    """Convict a would-be halting decider by observation.

    A row is flagged when the decider's claim contradicts what a
    truth-budget run shows directly (claimed no-halt, observed halt), or
    when the anti-diagonal bit coincides with the machine's own observed
    result word.  By default row n pairs the n-th enumerated machine with
    the n-th word; an explicit (description, word) list may be audited
    instead.
    """
    if truth_budget < sim_budget:
        raise InputError("truth_budget must be at least sim_budget")
    if rows is None:
        if machine_count < 0:
            raise InputError("machine_count must be >= 0")
        pairs = [(nth_description(n), index_word(n)) for n in range(machine_count)]
    else:
        pairs = list(rows)
    out = []
    for n, (description, word) in enumerate(pairs):
        claim = bool(decider(description, word))
        observed = run_bounded(decode(description), word, truth_budget)
        diagonal, tie = _diagonal_bit(claim, description, word, sim_budget)
        truth_halted = not isinstance(observed, BudgetExhausted)
        contradiction = (not claim and truth_halted) or (
            isinstance(observed, HaltedWithResult) and diagonal == observed.result
        )
        completed = truth_halted and not tie
        out.append(AuditRow(n, word, claim, observed, diagonal, contradiction, completed, tie))
    return AuditReport(tuple(out), truth_budget, sim_budget)


# --- stock deciders ---------------------------------------------------------


def budget_decider(budget: int) -> CandidateDecider:
    """Claims a halt exactly when one occurs within ``budget`` steps."""

    def claims_halt(description: Description, word: str) -> bool:
        return not isinstance(universal_run(description, word, budget), BudgetExhausted)

    return claims_halt


def certified_decider(budget: int) -> CandidateDecider:
    """Budget-bounded observation backed by non-halting certificates; claims
    no-halt when neither a halt nor a certificate shows up."""

    def claims_halt(description: Description, word: str) -> bool:
        return isinstance(certify_nonhalting(decode(description), word, budget), HaltsAt)

    return claims_halt
