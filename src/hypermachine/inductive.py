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
check owns its cycle history.  It keeps the keys of the first 2**16 steps,
so a cycle that starts before then is reported exactly at its first repeat.
After that it keeps only the keys at Brent's checkpoints, whose distances
double (Brent 1980), so memory stays bounded whatever the budget.  The one
difference: a cycle that starts at or after step 2**16 is reported, and its
run stopped, at the first repeat of a checkpoint in it, some steps after its
first repeat.  Its certificate is still the exact (period,
first_repeat_step): the period is exact, as every tracked step is compared
with every checkpoint before it, and one lockstep pass of two replays a
period apart finds the start.  Every hash match is confirmed by replaying a
fresh run and comparing configurations exactly, so a hash collision costs
time but never yields a false or different certificate.

The 64 cells are ``machine._HOOK_CELLS``, the engine's hook gate; which
steps the engine calls the check on, and which it jumps, ``machine.Run``
states.  One factory builds the check for either tape count.  On several
tapes the check also logs the output: it reads each tape's old symbol and
the output change from the compiled rule, and it updates the hashes of only
the tapes that the rule changes.  On any tape count it looks a tracked
step's key up the same way, hashes only tracked steps and rebuilds its hash
on the first one after a gap, so the certificates are those of a check that
hashes every step.  The runaway test needs a moving head, so the check
takes a fixed point for no sweep.  It reports ``ConfigurationCycle(1, s)``
at step s + 1 for a fixed point that starts at step s, at any tape size:
above the 64 cells, no key is kept, but the fixed point fired at the step
before.

One runaway test serves every tape count, once per sweep, at its first step:
the sweep writes blank on every moving head, each of which is beyond its
tape's extent.  A sweep writes only the cell under each moving head and then
leaves it behind, and it ends at the first stored cell that a head reaches,
so whether a head is past the tape's end is settled at the first step.  Its
heads that stay read and write blank, so they are past the end throughout (a
rule on blanks whose staying head writes non-blank cannot fire twice in a
row, so it is no sweep).  Passing a single-tape sweep that writes non-blank
is sound: it adds a cell at every step forever, so none of its
configurations equals an earlier one, which would start the same endless
sweep with fewer cells, and no runaway or halt starts in it.
"""

from __future__ import annotations

from _thread import allocate_lock  # threading.Lock, without loading threading
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
    _HOOK_CELLS,
    _check_budget,
    _moving_heads_beyond,
    _Record,
    _retrim,
    BudgetExhausted,
    HaltedWithResult,
    InputError,
    Machine,
    Run,
    RunOutcome,
)

CandidateDecider = Callable[[Description, str], bool]


# --- certificates and statuses ---------------------------------------------


class ConfigurationCycle(_Record):
    """Normalised configurations at first_repeat_step and first_repeat_step +
    period are identical, so the run is exactly periodic from there on."""

    period: int
    first_repeat_step: int


class BlankRunaway(_Record):
    """From onset_step the machine sits in ``state`` forever: every head reads
    blank and either stays put or moves away from the non-blank extent, and
    the single applicable rule returns to ``state`` writing only blanks."""

    state: str
    direction: tuple[str, ...]
    onset_step: int


NonHaltingCertificate = ConfigurationCycle | BlankRunaway


class Halted(_Record):
    """The reason a halted run's output is final."""


HALTED = Halted()


class CertifiedStable(_Record):
    """A status whose output can never change again, with the reason why."""

    reason: Halted | NonHaltingCertificate


class Provisional(_Record):
    """A status whose output a longer run may still revise."""


PROVISIONAL = Provisional()


class ObservationLog(_Record):
    """Output snapshots at step 0 and at every step where the trimmed output
    changed; steps strictly increase and consecutive snapshots differ."""

    entries: tuple[tuple[int, str], ...]


class InductiveOutcome(_Record):
    """An inductive run's current output, its last change, its steps, status and log."""

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
# Only configurations of at most _HOOK_CELLS cells are tracked, and a hook
# updates its hash on tracked steps alone: the first tracked step after a
# gap (``at != steps``) rebuilds it in full.

_HISTORY_STEPS = 1 << 16  # tracked configurations before this step are remembered
_MODULUS = (1 << 61) - 1
_BASE = 0x27895416BD6F612
_TAPE_WEIGHT = 0x678504D9B701C53


@lru_cache(maxsize=256)
def _hash_constants(
    modulus: int, alphabet: tuple[str, ...], blank: str, tape_count: int, states: tuple[str, ...]
) -> tuple[tuple[dict[str, int], ...], tuple[int, ...], dict[str, int]]:
    """The value of each symbol on each tape (blank is 0, as is None, a
    compiled blank write, and each tape has its own weight), the factor for
    each head move, indexed by its delta, and the key offset of each state.
    A key is the sum of the tape hashes plus the state's offset, so it is
    exact in the state.  Callers share the result and never change it."""
    values = []
    for i in range(tape_count):
        weight = pow(_TAPE_WEIGHT, i, modulus)
        value = {sym: (k + 1) * weight % modulus for k, sym in enumerate(alphabet) if sym != blank}
        value[blank] = value[None] = 0
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


def _replay(machine: Machine, input_word: str, steps: int) -> Run:
    run = Run(machine, input_word)
    run.advance(steps)
    return run


def _same(machine: Machine, input_word: str, earlier: int, state: str, tapes: Sequence[dict], heads: Sequence[int]) -> bool:
    run = _replay(machine, input_word, earlier)
    return _normal_form(run.state, run.tapes, run.heads) == _normal_form(state, tapes, heads)


def _first_repeat(machine: Machine, input_word: str, period: int) -> int:
    """The first tracked step from which the run repeats with ``period``."""
    # a deterministic run repeats with ``period`` from every step of its
    # cycle on and from no step before, so two runs a period apart are
    # advanced together until they first agree on a tracked step
    run, ahead = _replay(machine, input_word, 0), _replay(machine, input_word, period)
    while (
        sum(map(len, run.tapes)) > _HOOK_CELLS
        or _normal_form(run.state, run.tapes, run.heads) != _normal_form(ahead.state, ahead.tapes, ahead.heads)
    ):
        run.advance(run.steps + 1)
        ahead.advance(ahead.steps + 1)
    return run.steps


def _runaway(
    machine: Machine, state: str, sweep: tuple, tapes: Sequence[dict], heads: Sequence[int], steps: int
) -> BlankRunaway | None:
    """The runaway that a compiled ``sweep`` starts at its first step, if it
    writes blank on every moving head and each is beyond its tape's extent.
    A sweep scans blank on every tape, so its rule is the one on blanks.  A
    runaway needs a moving head, so a fixed point, the sweep that moves no
    head, is none."""
    for _, w, _ in sweep:
        if w is not None:  # a loop: all() over a generator made certifying the family 2% slower
            return None
    if sweep and _moving_heads_beyond(sweep, tapes, heads):
        return BlankRunaway(state, machine.rules[(state, (machine.blank,) * len(tapes))][2], steps)
    return None


def _check(machine: Machine, input_word: str, changes: list[tuple[int, str]]) -> Callable:
    """The certificate hook for ``machine``'s tape count; on several tapes it
    also appends each output change to ``changes``.  It owns its cycle history."""
    modulus = _MODULUS
    values, move, offsets = _hash_constants(modulus, machine.alphabet, machine.blank, machine.tape_count, machine.states)
    blank = machine.blank
    history = _HISTORY_STEPS
    h, hashes, at = 0, [], -1  # one tape's hash or several tapes' hashes, kept for step ``at`` only
    swept = fixed = -1  # the step after the last sweep step seen, and after the last untracked fixed point
    word, lo = "", 0  # on several tapes the trimmed output, empty at the start, and its leftmost cell
    seen: dict[int, int] = {}  # key -> step of its first configuration
    collided: dict[int, list[int]] = {}  # key -> steps of other configurations
    mark, window = 0, 1  # from step ``history`` on, the next checkpoint and the distance to the one after

    def visit(key, steps, state, tapes, heads):
        """The cycle that a tracked configuration with a known ``key``
        closes, once a replay confirms it; a new key is a checkpoint."""
        nonlocal mark, window
        first = seen.get(key)
        if first is None:  # a checkpoint
            seen[key] = steps
            mark = steps + window
            window *= 2
            return None
        for earlier in (first, *collided.get(key, ())):
            if _same(machine, input_word, earlier, state, tapes, heads):
                period = steps - earlier
                if earlier >= history:  # a checkpoint, which may lie past the cycle's start
                    earlier = _first_repeat(machine, input_word, period)
                return ConfigurationCycle(period, earlier)
        if steps < history:
            collided.setdefault(key, []).append(steps)
        return None

    if machine.tape_count == 1:
        (value,) = values

        def check(state, tape, head, steps, rule):
            nonlocal h, at, swept, fixed
            _, wsym, delta, _, sweep = rule
            if sweep is not None:
                if steps != swept and (found := _runaway(machine, state, sweep, (tape,), (head,), steps)):
                    return found
                if not sweep and len(tape) > _HOOK_CELLS:  # a fixed point that no key tracks
                    if steps == fixed:
                        return ConfigurationCycle(1, fixed - 1)
                    fixed = steps + 1
                swept = steps + 1
            if len(tape) > _HOOK_CELLS:
                return None
            if at != steps:
                h = _tape_hash(tape, head, value, move, modulus)
            key = h + offsets[state]
            if key in seen:
                if found := visit(key, steps, state, (tape,), (head,)):
                    return found
            elif steps < history:
                seen[key] = steps
            elif steps >= mark:
                visit(key, steps, state, (tape,), (head,))
            h = (h + value[wsym] - value[tape.get(head, blank)]) * move[delta] % modulus
            at = steps + 1
            return None

        return check

    def check(state, tapes, heads, steps, rule):
        nonlocal hashes, at, swept, fixed, word, lo
        _, syms, writes, effects, _, sweep = rule
        if sweep is not None:
            if steps != swept and (found := _runaway(machine, state, sweep, tapes, heads, steps)):
                return found
            if not sweep and sum(map(len, tapes)) > _HOOK_CELLS:  # a fixed point that no key tracks
                if steps == fixed:
                    return ConfigurationCycle(1, fixed - 1)
                fixed = steps + 1
            swept = steps + 1
        if sum(map(len, tapes)) <= _HOOK_CELLS:
            if at != steps:
                hashes = [_tape_hash(t, h, v, move, modulus) for t, h, v in zip(tapes, heads, values)]
            key = sum(hashes) % modulus + offsets[state]
            if key in seen:
                if found := visit(key, steps, state, tapes, heads):
                    return found
            elif steps < history:
                seen[key] = steps
            elif steps >= mark:
                visit(key, steps, state, tapes, heads)
            for i, _, delta in effects:
                hashes[i] = (hashes[i] + values[i][writes[i]] - values[i][syms[i]]) * move[delta] % modulus
            at = steps + 1
        # the rule fires right after this, so a rewritten output cell is a change
        if writes[-1] != syms[-1]:
            word, lo = _retrim(word, lo, heads[-1], writes[-1], blank)
            changes.append((steps + 1, word))
        return None

    return check


def _observe(machine: Machine, input_word: str, budget: int) -> tuple[Run, list[tuple[int, str]]]:
    """A run that a certificate (kept in ``run.checked``) stops, advanced
    until a halt, a certificate or the budget.  On a multi-tape machine the
    hook also logs every change of the trimmed output tape as the rule that
    makes it fires; the log starts at (0, "")."""
    _check_budget(budget)
    changes = [(0, "")]
    run = Run(machine, input_word, _check(machine, input_word, changes))
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


def describe_status(status: CertifiedStable | Provisional) -> str:
    if isinstance(status, Provisional):
        return "provisional"
    reason = status.reason
    if isinstance(reason, Halted):
        return "certified-halted"
    if isinstance(reason, ConfigurationCycle):
        return f"certified-nonhalting:cycle(period={reason.period},first_repeat={reason.first_repeat_step})"
    if isinstance(reason, BlankRunaway):
        direction = "".join(reason.direction)
        return f"certified-nonhalting:runaway(state={reason.state},direction={direction},onset={reason.onset_step})"
    raise AssertionError(f"unknown status {status!r}")


def summary_line(outcome: InductiveOutcome) -> str:
    return (
        f"summary\tsteps={outcome.steps_executed}\tout={outcome.current_output}"
        f"\tlast_change={outcome.last_change_step}\tstatus={describe_status(outcome.status)}"
    )


def _outcome(run: Run, entries: Sequence[tuple[int, str]]) -> InductiveOutcome:
    """The outcome of an observed run whose output log is ``entries``."""
    last_step, current = entries[-1]
    return InductiveOutcome(current, last_step, run.steps, _status(run, last_step), ObservationLog(tuple(entries)))


def inductive_run(machine: Machine, input_word: str, budget: int) -> InductiveOutcome:
    """Run a three-tape machine, logging output changes, until it halts, a
    non-halting certificate fires, or the budget runs out."""
    if machine.tape_count != 3:
        raise UnsupportedMachineError("inductive runs need a 3-tape machine (input, working, output)")
    run, changes = _observe(machine, input_word, budget)
    return _outcome(run, changes)


class Certificate(_Record):
    """A proof that the run never halts."""

    certificate: NonHaltingCertificate


class HaltsAt(_Record):
    """The run halts, at ``steps``."""

    steps: int


class Unknown(_Record):
    """Neither a halt nor a certificate within the budget."""


UNKNOWN = Unknown()


def certify_nonhalting(machine: Machine, input_word: str, budget: int) -> Certificate | HaltsAt | Unknown:
    """Sound, incomplete non-halting detection; never a false certificate."""
    run, _ = _observe(machine, input_word, budget)
    if run.halted:
        return HaltsAt(run.steps)
    if run.checked:
        return Certificate(run.checked)
    return UNKNOWN


def _halting_changes(run: Run) -> tuple[tuple[int, str], ...]:
    """The halting guess of an observed run, as advanced so far, as a change
    log: "0" from step 0, then "1" from the halt step if it halted."""
    if not run.halted:
        return ((0, "0"),)
    return ((0, "0"), (run.steps, "1")) if run.steps else ((0, "1"),)


def _halting_log(machine: Machine, input_word: str) -> Callable[[int], tuple[tuple[int, str], ...]]:
    """The halting change log of an observed run of ``machine`` on
    ``input_word``, by the budget that it is advanced to, kept with the run.
    Threads that share the log take turns to advance the run; a run that
    halted or that a certificate stopped is final, so reading its log takes
    no turn."""
    run = Run(machine, input_word, _check(machine, input_word, []))
    log = ((0, "0"),)
    lock = allocate_lock()

    def advanced_to(budget: int) -> tuple[tuple[int, str], ...]:
        nonlocal log
        _check_budget(budget)
        if log[-1][1] == "0" and not run.checked:
            with lock:
                if not run.halted:
                    run.advance(budget)
                    log = _halting_changes(run)
        return log

    return advanced_to


def halting_limit_decider(description: Description, input_word: str, budget: int) -> InductiveOutcome:
    """Limit-style halting decision: output 0 while the simulated machine
    runs, flipping to 1 exactly when it halts within the budget."""
    run, _ = _observe(decode(description), input_word, budget)
    return _outcome(run, _halting_changes(run))


# --- diagonalization --------------------------------------------------------


def _diagonal_bit(claims_halt: bool, outcome: RunOutcome | None, budget: int) -> tuple[str, bool]:
    """The anti-diagonal bit for one (machine, word) pair, given the
    decider's claim about it and, if it claims a halt, the machine's outcome
    under a budget of at least ``budget``: bounded outcomes only refine as
    the budget grows, so it answers for ``budget``.

    Returns (bit, tie_break): tie_break marks the fallback taken when the
    decider claimed a halt but the machine did not halt within ``budget``.
    """
    if not claims_halt:
        return "0", False
    if outcome.steps < budget and isinstance(outcome, HaltedWithResult) and outcome.result == "1":
        return "0", False
    return "1", outcome.steps >= budget


def diagonalize(decider: CandidateDecider, input_word: str, budget: int) -> str:
    """Behave differently from machine T_n on input u_n wherever the decider
    is right: n is the input's word index, T_n the n-th enumerated machine."""
    _check_budget(budget)
    description = nth_description(word_index(input_word))
    claims_halt = bool(decider(description, input_word))
    outcome = universal_run(description, input_word, budget) if claims_halt else None
    return _diagonal_bit(claims_halt, outcome, budget)[0]


class AuditRow(_Record):
    """One audited (machine, word) pair: the claim, the truth run and the diagonal bit."""

    index: int
    word: str
    claims_halt: bool
    observed: RunOutcome
    diagonal: str
    contradiction: bool
    completed: bool
    tie_break: bool


class AuditReport(_Record):
    """Every audited row, with the truth and simulation budgets."""

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
    _check_budget(sim_budget)
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
        observed = universal_run(description, word, truth_budget)
        diagonal, tie = _diagonal_bit(claim, observed, sim_budget)
        truth_halted = not isinstance(observed, BudgetExhausted)
        contradiction = (not claim and truth_halted) or (
            isinstance(observed, HaltedWithResult) and diagonal == observed.result
        )
        completed = truth_halted and not tie
        out.append(AuditRow(n, word, claim, observed, diagonal, contradiction, completed, tie))
    return AuditReport(tuple(out), truth_budget, sim_budget)


# --- stock deciders ---------------------------------------------------------


def budget_decider(budget: int) -> CandidateDecider:
    """Claims a halt exactly when one occurs within ``budget`` steps, through
    an observed run that a non-halting certificate stops early: a sound
    certificate never comes before a halt, so it changes no claim."""

    def claims_halt(description: Description, word: str) -> bool:
        return isinstance(certify_nonhalting(decode(description), word, budget), HaltsAt)

    return claims_halt
