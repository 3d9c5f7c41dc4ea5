"""Benchmark-only machines, written in the description language.

``counter`` is a 9-rule single-tape binary counter: it walks to the right end
of its input, then forever adds one at the least significant digit and walks
back.  Its tape grows and no configuration repeats.  ``counter3`` runs the
same rule table on the output tape of a 3-tape machine, so its trimmed output
changes on roughly every other step.
"""

from __future__ import annotations

from hypermachine.dsl import parse_machine_spec

COUNTER_SPEC = """
machine counter
start: go
rule go 0 -> go 0 R
rule go 1 -> go 1 R
rule go _ -> inc _ L
rule inc 1 -> inc 0 L
rule inc 0 -> ret 1 R
rule inc _ -> ret 1 R
rule ret 0 -> ret 0 R
rule ret 1 -> ret 1 R
rule ret _ -> inc _ L
"""


def _on_output_tape(single: str) -> str:
    """The same rules acting on tape 3 of 3, the other heads parked on blank."""
    lines = ["machine counter3", "tapes: 3"]
    for line in single.strip().splitlines()[1:]:
        if not line.startswith("rule "):
            lines.append(line)
            continue
        _, q, sym, _, nq, write, move = line.split()
        lines.append(f"rule {q} _ _ {sym} -> {nq} _ _ {write} S S {move}")
    return "\n".join(lines) + "\n"


COUNTER3_SPEC = _on_output_tape(COUNTER_SPEC)


def load(tracer) -> dict:
    """Parse both documents through the tracer; returns name -> Machine."""
    return {
        name: tracer.call("dsl.parse_machine_spec", parse_machine_spec, text).machine
        for name, text in (("counter", COUNTER_SPEC), ("counter3", COUNTER3_SPEC))
    }
