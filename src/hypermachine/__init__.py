"""A workbench for machines that halt, machines that settle, and the gap
between them: deterministic and multi-tape simulation, binary descriptions
with enumeration and universal simulation, output-stabilization semantics
with non-halting certificates, limit-computed functions, self-editing
machines, and an exhaustive finite-automata separation harness."""
