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
state.  Multi-tape rules list one symbol per tape on each side and one move
per tape.  A rule may carry a self-editing clause:

    rule wr 0 -> scan 1 R ! replace(scan, 0 -> scan, 1, R)

which turns the document into a reflexive machine.  Parsing is regex-free and
every diagnostic carries a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import BLANK, HypermachineError, Machine, MOVES, RuleKey, StructureError, Symbols
from .reflexive import EditAction, InstallRule, ReflexiveMachine, ReplaceRule


class ParseError(HypermachineError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SpecDocument:
    machine: Machine | ReflexiveMachine
    positions: dict[tuple, tuple[int, int]]


def _col(raw: str, token: str) -> int:
    at = raw.find(token)
    return at + 1 if at >= 0 else 1


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
        self.states: list[str] = []

    def note_state(self, q: str) -> None:
        if q not in self.states:
            self.states.append(q)


def _symbols(builder: _Builder, tokens: list[str], lineno: int, raw: str) -> list[str]:
    known = set(builder.alphabet) | {BLANK}
    for tok in tokens:
        if tok not in known:
            raise ParseError(f"unknown symbol {tok!r}", lineno, _col(raw, tok))
    return tokens


def _edit_side(text: str, what: str, lineno: int, col: int) -> list[str]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) < 2 or any(not part for part in parts):
        raise ParseError(f"malformed edit clause: bad {what}", lineno, col)
    return parts


def _parse_edit(clause: str, lineno: int, raw: str) -> tuple[str, str, Symbols, str, Symbols, Symbols]:
    col = _col(raw, "!")
    clause = clause.strip()
    kind = None
    for prefix in ("install", "replace"):
        if clause.startswith(prefix):
            kind = prefix
            clause = clause[len(prefix) :].strip()
            break
    if kind is None:
        raise ParseError("malformed edit clause: expected install(...) or replace(...)", lineno, col)
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
    target_state, target_syms = lhs[0], lhs[1].split()
    next_state, writes, moves = rhs[0], rhs[1].split(), rhs[2].split()
    return kind, target_state, tuple(target_syms), next_state, tuple(writes), tuple(moves)


def _parse_rule(builder: _Builder, rest: str, lineno: int, raw: str) -> None:
    rule_text, _, edit_text = rest.partition("!")
    tokens = rule_text.split()
    k = builder.tapes
    expected = 1 + k + 1 + 1 + k + k
    if len(tokens) != expected or tokens[1 + k] != "->":
        raise ParseError(
            f"malformed rule: expected 'rule <q> <{k} symbols> -> <q'> <{k} symbols> <{k} moves>'",
            lineno,
            _col(raw, "rule"),
        )
    state = tokens[0]
    syms = tuple(_symbols(builder, tokens[1 : 1 + k], lineno, raw))
    nstate = tokens[2 + k]
    writes = tuple(_symbols(builder, tokens[3 + k : 3 + 2 * k], lineno, raw))
    moves = tuple(tokens[3 + 2 * k : 3 + 3 * k])
    for move in moves:
        if move not in MOVES:
            raise ParseError(f"invalid move {move!r}", lineno, _col(raw, move))
    key = (state, syms)
    if key in builder.rules:
        raise ParseError(f"nondeterministic rule: ({state}, {' '.join(syms)}) already defined", lineno, _col(raw, state))
    builder.rules[key] = (nstate, writes, moves)
    builder.positions[("rule", state, syms)] = (lineno, _col(raw, state))
    builder.note_state(state)
    builder.note_state(nstate)
    if edit_text.strip():
        kind, tq, tsyms, nq, ews, ems = _parse_edit(edit_text, lineno, raw)
        _symbols(builder, list(tsyms) + list(ews), lineno, raw)
        action: EditAction
        if kind == "install":
            action = InstallRule(tq, tsyms, nq, ews, ems)
        else:
            action = ReplaceRule(tq, tsyms, nq, ews, ems)
        builder.edits[key] = action
        builder.note_state(tq)
        builder.note_state(nq)


def parse_machine_spec(text: str) -> SpecDocument:
    """Parse a document into a Machine, or a ReflexiveMachine when any rule
    carries an edit clause."""
    builder = _Builder()
    directives_seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "machine":
            if len(tokens) != 2:
                raise ParseError("expected 'machine <name>'", lineno, _col(raw, head))
            builder.name = tokens[1]
            builder.positions[("machine",)] = (lineno, _col(raw, head))
        elif head == "tapes:":
            if builder.rules:
                raise ParseError("tapes: must precede rules", lineno, _col(raw, head))
            try:
                builder.tapes = int(tokens[1]) if len(tokens) == 2 else -1
            except ValueError:
                builder.tapes = -1
            if builder.tapes < 1:
                raise ParseError("expected 'tapes: <positive count>'", lineno, _col(raw, head))
            builder.positions[("tapes",)] = (lineno, _col(raw, head))
        elif head == "alphabet:":
            if builder.rules:
                raise ParseError("alphabet: must precede rules", lineno, _col(raw, head))
            symbols = tokens[1:]
            for sym in symbols:
                if len(sym) != 1:
                    raise ParseError(f"symbols are single characters, got {sym!r}", lineno, _col(raw, sym))
                if sym == BLANK:
                    raise ParseError("the blank symbol is implicit", lineno, _col(raw, sym))
            if len(set(symbols)) != len(symbols):
                raise ParseError("duplicate alphabet symbol", lineno, _col(raw, head))
            builder.alphabet = symbols
            builder.positions[("alphabet",)] = (lineno, _col(raw, head))
        elif head == "start:":
            if "start" in directives_seen:
                raise ParseError("duplicate start: directive", lineno, _col(raw, head))
            if len(tokens) != 2:
                raise ParseError("expected 'start: <state>'", lineno, _col(raw, head))
            directives_seen.add("start")
            builder.start = tokens[1]
            builder.positions[("start",)] = (lineno, _col(raw, head))
        elif head == "final:":
            for tok in tokens[1:]:
                bearing = tok.endswith("*")
                q = tok[:-1] if bearing else tok
                if not q:
                    raise ParseError("empty final state name", lineno, _col(raw, tok))
                if q in builder.finals:
                    raise ParseError(f"state {q!r} declared final twice", lineno, _col(raw, tok))
                builder.finals[q] = bearing
                builder.positions[("final", q)] = (lineno, _col(raw, tok))
        elif head == "rule":
            _parse_rule(builder, line.split(None, 1)[1] if len(tokens) > 1 else "", lineno, raw)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, _col(raw, head))

    if builder.name is None:
        raise ParseError("missing machine name", max(1, text.count("\n") + 1))
    if builder.start is None:
        raise ParseError("missing start state", max(1, text.count("\n") + 1))

    states = list(builder.states)
    for q in [builder.start] + list(builder.finals):
        if q not in states:
            states.append(q)
    ordered = [builder.start] + [q for q in states if q != builder.start]
    # the directives are checked above, so a structural fault here lies in
    # a rule or its edit clause
    try:
        machine = Machine(
            name=builder.name,
            tape_count=builder.tapes,
            alphabet=(BLANK,) + tuple(builder.alphabet),
            blank=BLANK,
            states=tuple(ordered),
            start=builder.start,
            finals=builder.finals,
            rules=builder.rules,
        )
        parsed: Machine | ReflexiveMachine = ReflexiveMachine(machine, builder.edits) if builder.edits else machine
    except StructureError as exc:
        raise ParseError(str(exc), *builder.positions[("rule", *exc.key)]) from exc
    return SpecDocument(machine=parsed, positions=builder.positions)


def _edit_clause(action: EditAction) -> str:
    kind = "install" if isinstance(action, InstallRule) else "replace"
    return (
        f" ! {kind}({action.target_state}, {' '.join(action.target_symbols)}"
        f" -> {action.next_state}, {' '.join(action.writes)}, {' '.join(action.moves)})"
    )


def unparse(machine: Machine | ReflexiveMachine) -> str:
    """Canonical document text; parse(unparse(m)) rebuilds m exactly."""
    edits: dict[RuleKey, EditAction] = {}
    if isinstance(machine, ReflexiveMachine):
        edits = dict(machine.edits)
        machine = machine.base
    lines = [
        f"machine {machine.name}",
        f"tapes: {machine.tape_count}",
        "alphabet: " + " ".join(machine.input_alphabet),
        f"start: {machine.start}",
    ]
    if machine.finals:
        lines.append(
            "final: " + " ".join(q + ("*" if bearing else "") for q, bearing in machine.finals.items())
        )
    for (state, syms), (nstate, writes, moves) in machine.rules.items():
        line = f"rule {state} {' '.join(syms)} -> {nstate} {' '.join(writes)} {' '.join(moves)}"
        action = edits.get((state, syms))
        if action is not None:
            line += _edit_clause(action)
        lines.append(line)
    return "".join(line + "\n" for line in lines)
