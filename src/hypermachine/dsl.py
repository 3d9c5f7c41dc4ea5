"""Line-oriented machine description language.

    machine flip
    tapes: 1
    alphabet: 0 1
    start: q0
    final: qf*
    rule q0 0 -> qf 1 S
    rule q0 1 -> qf 0 S

One directive per line; `#` starts a comment; the blank symbol is `_` and is
always implicit in the alphabet.  A `*` suffix marks a result-bearing final
state.  The states come in order of first use: the start, then those that
rules and their edit clauses name, then the other finals.  A `states:` line
gives them instead, in its order, and may add states that nothing uses.
Multi-tape rules list one symbol per tape on each side and one move per
tape.  A rule may carry a self-editing clause:

    rule wr 0 -> scan 1 R ! replace(scan, 0 -> scan, 1, R)

which turns the document into a reflexive machine.  Parsing is regex-free and
every diagnostic carries a line and column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .machine import BLANK, Machine, MOVES, ParseError, RuleBody, RuleKey, StructureError, _Record

if TYPE_CHECKING:  # the self-editing engine is loaded only for an edit clause
    from .reflexive import EditAction, ReflexiveMachine


class SpecDocument(_Record):
    """A parsed machine document: its machine, and the line and column where each rule and directive starts."""

    machine: Machine | ReflexiveMachine
    positions: dict[tuple, tuple[int, int]]


def _split(line: str) -> tuple[list[str], list[int]]:
    """``line.split()`` and the 1-based column at which each token starts."""
    starts = [i + 1 for i, ch in enumerate(line) if not ch.isspace() and (i == 0 or line[i - 1].isspace())]
    return line.split(), starts


_ONCE = ("machine", "tapes:", "alphabet:", "start:", "states:")  # the directives that a document gives at most once


class _Builder:
    def __init__(self) -> None:
        self.name: str | None = None
        self.tapes = 1
        self.alphabet: list[str] = ["0", "1"]
        self.start: str | None = None
        self.finals: dict[str, bool] = {}
        self.rules: dict[RuleKey, tuple] = {}
        self.edits: dict[RuleKey, EditAction] = {}
        self.positions: dict[tuple, tuple[int, int]] = {}
        self.states: list[str] | None = None  # as a states: line gives them


def _symbols(builder: _Builder, tokens: list[str], cols: list[int], lineno: int) -> list[str]:
    known = set(builder.alphabet) | {BLANK}
    for tok, col in zip(tokens, cols):
        if tok not in known:
            raise ParseError(f"unknown symbol {tok!r}", lineno, col)
    return tokens


def _edit_side(text: str, what: str, lineno: int, col: int) -> list[str]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) < 2 or any(not part for part in parts):
        raise ParseError(f"malformed edit clause: bad {what}", lineno, col)
    return parts


def _parse_edit(clause: str, lineno: int, col: int) -> EditAction:
    from .reflexive import InstallRule, ReplaceRule

    kinds = {"install": InstallRule, "replace": ReplaceRule}  # an edit clause's keyword and its kind
    clause = clause.strip()
    kind = next((kind for kind in kinds if clause.startswith(kind)), None)
    if kind is None:
        raise ParseError("malformed edit clause: expected install(...) or replace(...)", lineno, col)
    clause = clause[len(kind) :].strip()
    if not (clause.startswith("(") and clause.endswith(")")):
        raise ParseError("malformed edit clause: missing parentheses", lineno, col)
    inner = clause[1:-1]
    if "->" not in inner:
        raise ParseError("malformed edit clause: missing ->", lineno, col)
    lhs_text, rhs_text = inner.split("->", 1)
    lhs = _edit_side(lhs_text, "target", lineno, col)
    rhs = _edit_side(rhs_text, "replacement", lineno, col)
    if len(lhs) != 2 or len(rhs) != 3:
        raise ParseError("malformed edit clause: wrong number of parts", lineno, col)
    return kinds[kind](lhs[0], tuple(lhs[1].split()), rhs[0], tuple(rhs[1].split()), tuple(rhs[2].split()))


def _parse_rule(builder: _Builder, line: str, line_cols: list[int], lineno: int) -> None:
    rule_text, mark, edit_text = line.partition("!")
    # the tokens before the edit clause's "!" start where the line's do
    tokens, cols = rule_text.split()[1:], line_cols[1:]
    k = builder.tapes
    expected = 1 + k + 1 + 1 + k + k
    if len(tokens) != expected or tokens[1 + k] != "->":
        raise ParseError(
            f"malformed rule: expected 'rule <q> <{k} symbols> -> <q'> <{k} symbols> <{k} moves>'",
            lineno,
            line_cols[0],
        )
    state = tokens[0]
    syms = tuple(_symbols(builder, tokens[1 : 1 + k], cols[1 : 1 + k], lineno))
    nstate = tokens[2 + k]
    writes = tuple(_symbols(builder, tokens[3 + k : 3 + 2 * k], cols[3 + k : 3 + 2 * k], lineno))
    moves = tuple(tokens[3 + 2 * k : 3 + 3 * k])
    for move, col in zip(moves, cols[3 + 2 * k :]):
        if move not in MOVES:
            raise ParseError(f"invalid move {move!r}", lineno, col)
    key = (state, syms)
    if key in builder.rules:
        raise ParseError(f"nondeterministic rule: ({state}, {' '.join(syms)}) already defined", lineno, cols[0])
    builder.rules[key] = (nstate, writes, moves)
    builder.positions[("rule", state, syms)] = (lineno, cols[0])
    if mark:  # a bare "!" is a malformed clause, not a plain rule
        col = len(rule_text) + 1  # the "!", where an edit clause's faults are reported
        action = _parse_edit(edit_text, lineno, col)
        edit_syms = action.target_symbols + action.writes
        _symbols(builder, list(edit_syms), [col] * len(edit_syms), lineno)
        builder.edits[key] = action


def _state_order(
    start: str, finals: Iterable[str], rules: Mapping[RuleKey, RuleBody], edits: Mapping[RuleKey, EditAction]
) -> tuple[str, ...]:
    """The states in the order that a document without ``states:`` gives
    them: the start, each state at its first use by a rule or then by the
    rule's edit clause, and the finals that neither uses."""
    order = [start]
    for key, (nstate, _, _) in rules.items():
        order += key[0], nstate
        if key in edits:
            order += edits[key].target_state, edits[key].next_state
    return tuple(dict.fromkeys(order + list(finals)))


def parse_machine_spec(text: str) -> SpecDocument:
    """Parse a document into a Machine, or a ReflexiveMachine when any rule
    carries an edit clause."""
    builder = _Builder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens, cols = _split(line)
        head, at = tokens[0], cols[0]
        if head in _ONCE:
            once = (head.rstrip(":"),)
            if once in builder.positions:
                raise ParseError(f"duplicate {head} directive", lineno, at)
            builder.positions[once] = (lineno, at)
        if head == "machine":
            if len(tokens) != 2:
                raise ParseError("expected 'machine <name>'", lineno, at)
            builder.name = tokens[1]
        elif head == "tapes:":
            if builder.rules:
                raise ParseError("tapes: must precede rules", lineno, at)
            try:
                builder.tapes = int(tokens[1]) if len(tokens) == 2 else -1
            except ValueError:
                builder.tapes = -1
            if builder.tapes < 1:
                raise ParseError("expected 'tapes: <positive count>'", lineno, at)
        elif head == "alphabet:":
            if builder.rules:
                raise ParseError("alphabet: must precede rules", lineno, at)
            symbols = tokens[1:]
            for sym, col in zip(symbols, cols[1:]):
                if len(sym) != 1:
                    raise ParseError(f"symbols are single characters, got {sym!r}", lineno, col)
                if sym == BLANK:
                    raise ParseError("the blank symbol is implicit", lineno, col)
                if sym == "!":
                    raise ParseError("'!' marks an edit clause and is not a symbol", lineno, col)
            if len(set(symbols)) != len(symbols):
                raise ParseError("duplicate alphabet symbol", lineno, at)
            builder.alphabet = symbols
        elif head == "start:":
            if len(tokens) != 2:
                raise ParseError("expected 'start: <state>'", lineno, at)
            builder.start = tokens[1]
        elif head == "states:":
            builder.states = tokens[1:]
            if len(set(builder.states)) != len(builder.states):
                raise ParseError("duplicate state in states:", lineno, at)
        elif head == "final:":
            for tok, col in zip(tokens[1:], cols[1:]):
                bearing = tok.endswith("*")
                q = tok[:-1] if bearing else tok
                if not q:
                    raise ParseError("empty final state name", lineno, col)
                if q in builder.finals:
                    raise ParseError(f"state {q!r} declared final twice", lineno, col)
                builder.finals[q] = bearing
                builder.positions[("final", q)] = (lineno, col)
        elif head == "rule":
            _parse_rule(builder, line, cols, lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, at)

    if builder.name is None:
        raise ParseError("missing machine name", max(1, text.count("\n") + 1))
    if builder.start is None:
        raise ParseError("missing start state", max(1, text.count("\n") + 1))

    order = _state_order(builder.start, builder.finals, builder.rules, builder.edits)
    states = order if builder.states is None else builder.states
    for q in order:
        if q not in states:
            raise ParseError(f"states: omits state {q!r}", *builder.positions[("states",)])
    # the directives are checked above, so a structural fault here lies in
    # a rule or its edit clause
    try:
        machine = Machine(
            name=builder.name,
            tape_count=builder.tapes,
            alphabet=(BLANK,) + tuple(builder.alphabet),
            blank=BLANK,
            states=tuple(states),
            start=builder.start,
            finals=builder.finals,
            rules=builder.rules,
        )
        parsed: Machine | ReflexiveMachine = machine
        if builder.edits:
            from .reflexive import ReflexiveMachine

            parsed = ReflexiveMachine(machine, builder.edits)
    except StructureError as exc:
        raise ParseError(str(exc), *builder.positions[("rule", *exc.key)]) from exc
    return SpecDocument(machine=parsed, positions=builder.positions)


def unparse(machine: Machine | ReflexiveMachine) -> str:
    """Canonical document text; parse(unparse(m)) rebuilds m exactly.  A
    ``states:`` line lists the states only when the other lines would give
    them in another order or leave one out."""
    edits: Mapping[RuleKey, EditAction] = {}
    if not isinstance(machine, Machine):  # a ReflexiveMachine
        from .reflexive import InstallRule

        edits = machine.edits
        machine = machine.base
    lines = [
        f"machine {machine.name}",
        f"tapes: {machine.tape_count}",
        "alphabet: " + " ".join(machine.input_alphabet),
        f"start: {machine.start}",
    ]
    if _state_order(machine.start, machine.finals, machine.rules, edits) != machine.states:
        lines.append("states: " + " ".join(machine.states))
    if machine.finals:
        lines.append(
            "final: " + " ".join(q + ("*" if bearing else "") for q, bearing in machine.finals.items())
        )
    for (state, syms), (nstate, writes, moves) in machine.rules.items():
        line = f"rule {state} {' '.join(syms)} -> {nstate} {' '.join(writes)} {' '.join(moves)}"
        action = edits.get((state, syms))
        if action is not None:
            kind = "install" if isinstance(action, InstallRule) else "replace"
            line += (
                f" ! {kind}({action.target_state}, {' '.join(action.target_symbols)}"
                f" -> {action.next_state}, {' '.join(action.writes)}, {' '.join(action.moves)})"
            )
        lines.append(line)
    return "".join(line + "\n" for line in lines)
