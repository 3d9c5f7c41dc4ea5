"""Independent re-checks of family_sweep answers with the reference ``step``.

The fast engine (``run_bounded``), the certifier and the limit decider share
one observing loop, so they are checked here against the small reference
semantics instead: ``machine.step`` applied one configuration at a time.

* every halt is replayed: the reference run must stop exactly at the
  reported step, with the reported result word;
* every ``ConfigurationCycle`` is replayed: the configurations at
  ``first_repeat_step`` and ``first_repeat_step + period`` must be equal up to
  translation, which makes the run periodic forever;
* every ``BlankRunaway`` is re-checked at its onset: the head reads blank
  outside the written extent and the one applicable rule returns to the same
  state, writes blank and moves further out, so it fires forever.

``check`` returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

from hypermachine.inductive import (
    BlankRunaway,
    Certificate,
    CertifiedStable,
    ConfigurationCycle,
    Halted,
    HaltsAt,
    Provisional,
    Unknown,
)
from hypermachine.machine import (
    BudgetExhausted,
    HaltedWithResult,
    NextConfig,
    initial_configuration,
    step,
    trimmed_word,
)


def normal(config) -> tuple:
    """State and tapes relative to their heads: equal up to translation."""
    return (
        config.state,
        tuple(tuple(sorted((cell - head, sym) for cell, sym in tape.items())) for tape, head in zip(config.tapes, config.heads)),
    )


def replay(machine, word, steps):
    """Configuration after ``steps`` reference steps, or None if it stopped."""
    config = initial_configuration(machine, word)
    while config.step < steps:
        nxt = step(machine, config)
        if not isinstance(nxt, NextConfig):
            return None
        config = nxt.config
    return config


def check_halt(machine, word, truth) -> list[str]:
    config = replay(machine, word, truth.steps)
    if config is None or isinstance(step(machine, config), NextConfig):
        return [f"reference run does not halt at step {truth.steps}"]
    if isinstance(truth, HaltedWithResult):
        if not machine.finals.get(config.state):
            return ["result reported without a result-bearing final state"]
        if trimmed_word(config.tapes[-1], machine.blank) != truth.result:
            return [f"result {truth.result!r} differs from the reference tape"]
    elif machine.finals.get(config.state):
        return ["resultless halt in a result-bearing final state"]
    return []


def check_cycle(machine, word, cycle: ConfigurationCycle) -> list[str]:
    first = replay(machine, word, cycle.first_repeat_step)
    if first is None or cycle.period < 1:
        return ["cycle onset is not reached"]
    config = first
    for _ in range(cycle.period):
        nxt = step(machine, config)
        if not isinstance(nxt, NextConfig):
            return ["reference run halts inside the claimed cycle"]
        config = nxt.config
    if normal(config) != normal(first):
        return [f"configurations {cycle.period} steps apart differ"]
    return []


def check_runaway(machine, word, runaway: BlankRunaway) -> list[str]:
    config = replay(machine, word, runaway.onset_step)
    if config is None:
        return ["runaway onset is not reached"]
    if config.state != runaway.state or config.state in machine.finals:
        return [f"state at onset is {config.state!r}, not {runaway.state!r}"]
    blank = machine.blank
    scanned = tuple(tape.get(head, blank) for tape, head in zip(config.tapes, config.heads))
    rule = machine.rules.get((config.state, scanned))
    if any(sym != blank for sym in scanned) or rule is None:
        return ["runaway onset does not read blank under a rule"]
    nstate, writes, moves = rule
    if nstate != runaway.state or any(w != blank for w in writes) or tuple(moves) != tuple(runaway.direction):
        return ["runaway rule does not repeat itself writing blank"]
    if all(move == "S" for move in moves):
        return ["runaway rule does not move"]
    for tape, head, move in zip(config.tapes, config.heads, moves):
        if tape and ((move == "R" and head <= max(tape)) or (move == "L" and head >= min(tape))):
            return ["runaway head is inside the written extent"]
    return []


def expected_limit_log(truth, stages: int) -> tuple:
    """Guess log of limit_eval(halting_as_limit(...)) over ``stages`` stages."""
    if isinstance(truth, BudgetExhausted) or truth.steps > stages:
        return ((0, "0"),)
    if truth.steps == 0:
        return ((0, "1"),)
    return ((0, "0"), (truth.steps, "1"))


def check(machine, word, truth, cert, decided, limit_log, stages: int) -> list[str]:
    """All checks for one family op.

    ``decided`` is (current_output, last_change_step, status) of
    halting_limit_decider; ``limit_log`` the guess log of the limit sweep.
    """
    problems = []
    if limit_log != expected_limit_log(truth, stages):
        problems.append(f"limit guesses {limit_log} disagree with the halting step")
    output, last_change, status = decided
    if not isinstance(truth, BudgetExhausted):
        problems += check_halt(machine, word, truth)
        if cert is not None:
            problems.append("certifier ran on a halting machine")
        if (output, last_change, status) != ("1", truth.steps, CertifiedStable(Halted())):
            problems.append("limit decider disagrees with the halting step")
        return problems
    if output != "0":
        problems.append("limit decider claims a halt the engine did not see")
    if isinstance(cert, HaltsAt):
        problems.append(f"certifier halts at {cert.steps} where the engine ran out of budget")
    elif isinstance(cert, Certificate):
        inner = cert.certificate
        if isinstance(inner, ConfigurationCycle):
            problems += check_cycle(machine, word, inner)
        elif isinstance(inner, BlankRunaway):
            problems += check_runaway(machine, word, inner)
        else:
            problems.append(f"unknown certificate {inner!r}")
        if status != CertifiedStable(inner):
            problems.append("limit decider status differs from the certificate")
    elif isinstance(cert, Unknown):
        if status != Provisional():
            problems.append("limit decider certifies what the certifier could not")
    else:
        problems.append(f"unexpected certifier answer {cert!r}")
    return problems
