"""Built-in machine library.

Most machines are defined as documents in the description language so the
corpus doubles as a parser workout.  The single-tape machines over {0,1,_}
are all encodable; the small ones double as enumeration landmarks.  Also here:
the exhaustive two-state study family and the parametric delay machine.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .dsl import parse_machine_spec
from .machine import InputError, Machine, single_tape_machine
from .reflexive import ReflexiveMachine

CORPUS_SPECS: dict[str, str] = {
    # halts immediately: no rules, not final, so the very first step finds no rule
    "idle": """
machine idle
start: q0
""",
    # start state is a resultless final: halts at step 0 without a result
    "stop": """
machine stop
start: q0
final: q0
""",
    # start state is a result-bearing final: returns its input at step 0
    "identity": """
machine identity
start: q0
final: q0*
""",
    "write1": """
machine write1
start: q0
final: qf*
rule q0 _ -> qf 1 S
""",
    "write0": """
machine write0
start: q0
final: qf*
rule q0 _ -> qf 0 S
""",
    # waits one step, then halts with an empty result
    "stepper": """
machine stepper
start: q0
final: qf*
rule q0 _ -> qf _ S
""",
    # runs right over blank tape forever
    "loop": """
machine loop
start: q0
rule q0 _ -> q0 _ R
""",
    # stays in place forever: the smallest configuration cycle
    "blink": """
machine blink
start: q0
rule q0 _ -> q0 _ S
""",
    # writes an endless trail of 0s: diverges without any certificate
    "trail": """
machine trail
start: q0
rule q0 _ -> q0 0 R
""",
    "ping_pong": """
machine ping_pong
start: q0
rule q0 _ -> q1 _ R
rule q1 _ -> q0 _ L
""",
    # walks to the end of its input and stops there resultless
    "right_scanner": """
machine right_scanner
start: q0
rule q0 0 -> q0 0 R
rule q0 1 -> q0 1 R
""",
    "flip": """
machine flip
start: q0
final: qf*
rule q0 0 -> qf 1 S
rule q0 1 -> qf 0 S
""",
    "eraser": """
machine eraser
start: q0
final: qf*
rule q0 0 -> q0 _ R
rule q0 1 -> q0 _ R
rule q0 _ -> qf _ S
""",
    # accepts {0^n 1^n}: erase a leading 0, erase the matching trailing 1,
    # repeat; result word is 1 for members and 0 otherwise
    "anbn": """
machine anbn
start: find
final: done*
rule find _ -> done 1 S
rule find 0 -> e0 _ R
rule find 1 -> rejr 1 S
rule e0 0 -> e0 0 R
rule e0 1 -> e0 1 R
rule e0 _ -> ck1 _ L
rule ck1 1 -> back _ L
rule ck1 0 -> rejl 0 S
rule ck1 _ -> done 0 S
rule back 0 -> back 0 L
rule back 1 -> back 1 L
rule back _ -> find _ R
rule rejr 0 -> rejr _ R
rule rejr 1 -> rejr _ R
rule rejr _ -> done 0 S
rule rejl 0 -> rejl _ L
rule rejl 1 -> rejl _ L
rule rejl _ -> done 0 S
""",
    # rewrites 0s to 1s, paying a four-state dispatch detour per cell
    "interp": """
machine interp
start: scan
final: done*
rule scan 0 -> d1 0 S
rule d1 0 -> d2 0 S
rule d2 0 -> d3 0 S
rule d3 0 -> wr 0 S
rule wr 0 -> scan 1 R
rule scan _ -> done _ S
""",
    # same machine, but the first dispatch replaces itself with the direct rule
    "specializer": """
machine specializer
start: scan
final: done*
rule scan 0 -> d1 0 S
rule d1 0 -> d2 0 S
rule d2 0 -> d3 0 S
rule d3 0 -> wr 0 S
rule wr 0 -> scan 1 R ! replace(scan, 0 -> scan, 1, R)
rule scan _ -> done _ S
""",
    # 3-tape: output flickers 0 then 1, then the heads run away right
    "flicker": """
machine flicker
tapes: 3
start: s0
rule s0 _ _ _ -> s1 _ _ 0 S S S
rule s1 _ _ 0 -> s2 _ _ 0 S S S
rule s2 _ _ 0 -> s3 _ _ 0 S S S
rule s3 _ _ 0 -> s4 _ _ 0 S S S
rule s4 _ _ 0 -> s5 _ _ 0 S S S
rule s5 _ _ 0 -> s6 _ _ 1 S S S
rule s6 _ _ 1 -> s7 _ _ 1 R R R
rule s7 _ _ _ -> s7 _ _ _ R R R
""",
    # 3-tape: halts at step 4 leaving 10 on the output tape
    "halt3": """
machine halt3
tapes: 3
start: h0
final: hf*
rule h0 _ _ _ -> h1 _ _ 1 S S R
rule h1 _ _ _ -> h2 _ _ 0 S S S
rule h2 _ _ 0 -> h3 _ _ 0 S S S
rule h3 _ _ 0 -> hf _ _ 0 S S S
""",
    # 3-tape: grows a worktape trail forever, never touching the output
    "quiet_worker": """
machine quiet_worker
tapes: 3
start: w0
rule w0 _ _ _ -> w0 _ 0 _ S R S
""",
}

# Small machines findable by scanning the enumeration at desk scale.
LOCATABLE = (
    "idle",
    "stop",
    "identity",
    "loop",
    "blink",
    "trail",
    "stepper",
    "write0",
    "write1",
    "ping_pong",
    "right_scanner",
)


@lru_cache(maxsize=None)
def corpus_machine(name: str) -> Machine | ReflexiveMachine:
    try:
        text = CORPUS_SPECS[name]
    except KeyError:
        raise InputError(f"no corpus machine named {name!r}") from None
    return parse_machine_spec(text).machine


def encodable_corpus() -> dict[str, Machine]:
    """The plain single-tape corpus machines over {0,1,_}."""
    out = {}
    for name in CORPUS_SPECS:
        m = corpus_machine(name)
        if isinstance(m, Machine) and m.tape_count == 1:
            out[name] = m
    return out


def delay_machine(steps: int) -> Machine:
    """Halts with an empty result at exactly the given step on blank input."""
    if steps < 1:
        raise InputError("delay must be >= 1 step")
    rules = {}
    for i in range(1, steps):
        rules[(f"q{i}", "_")] = (f"q{i + 1}", "_", "S")
    rules[(f"q{steps}", "_")] = ("qf", "_", "S")
    return single_tape_machine(f"delay{steps}", rules, finals={"qf": True}, start="q1")


_SYMS = ("_", "0", "1")
_TARGETS = ("q1", "q2")
_MOVES = ("L", "R", "S")

# per-symbol rule options: absent, or (target, write, move)
_RULE_OPTIONS = (None,) + tuple(product(_TARGETS, _SYMS, _MOVES))


def two_state_family() -> Iterator[Machine]:
    """Every machine with start state q1, final state q2, and any combination
    of rules on q1 over {_, 0, 1}: (1 + 2*3*3)^3 tables times two result
    flags, 13718 machines, in a fixed order.

    This is the exhaustive desk-scale study set: it produces immediate and
    delayed halts, configuration cycles, blank runaways, and uncertifiable
    divergence.
    """
    index = 0
    for table in product(_RULE_OPTIONS, repeat=3):
        rules = {}
        for sym, option in zip(_SYMS, table):
            if option is not None:
                target, write, move = option
                rules[("q1", sym)] = (target, write, move)
        for bearing in (False, True):
            yield single_tape_machine(
                f"fam{index}",
                rules,
                finals={"q2": bearing},
                start="q1",
                extra_states=("q2",),
            )
            index += 1


def two_state_family_size() -> int:
    return len(_RULE_OPTIONS) ** 3 * 2
