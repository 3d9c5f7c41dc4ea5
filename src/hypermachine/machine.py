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
per run, behind ``run_bounded``, the observed runs of ``inductive``
and every client in the other modules.  Its docstring states the engine's
contract once: the compiled rules and their blank writes, the sweep jump,
fixed points and the steps that a hook sees.
``step`` and ``config_sequence`` are the reference semantics: small, pure
and slow, kept for tests to compare the engine against.

Every value record of the package, from ``Machine`` to the statuses and
reports, derives from ``_Record``.  A record is immutable (assigning or
deleting an attribute raises AttributeError), equals only a record of its
exact type with equal fields, hashes by those fields and shows them as
Python's data classes do, ``Name(field=value, ...)``.  It is built from
its fields by position or keyword, with defaults.  A record class compiles
its ``__init__`` when its first record is built, not at import.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

LEFT = "L"
RIGHT = "R"
STAY = "S"
MOVES = (LEFT, RIGHT, STAY)
BLANK = "_"
_BINARY = (BLANK, "0", "1")  # the alphabet of every prechecked machine

_DELTA = {LEFT: -1, RIGHT: 1, STAY: 0}
_HOOK_CELLS = 64  # certificate hooks track configurations of at most this many cells
_NO_ROW: Mapping = MappingProxyType({})  # the row of every state that has none: it holds no rule

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


class ParseError(HypermachineError):
    """A machine document that does not parse, at a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


_set = object.__setattr__  # how a record sets a field, as its own __setattr__ refuses


class _Record:
    """The base of every value record.  A subclass names its fields as class
    annotations, after its base's, with any defaults as class attributes;
    defaults must trail.  A ``__post_init__`` checks the fields.  A class
    writes no ``__init__``: it compiles one when its first record is built."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    __post_init__: Callable[[], None] | None = None

    def __init_subclass__(cls) -> None:
        own = vars(cls).get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(own)
        cls._defaults = defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}
        names = {*fields, *vars(cls)}  # "__init__" among them: the class writes its own
        if set(fields[len(fields) - len(defaults) :]) != defaults.keys() or {"self", "_set", "__init__"} & names:
            raise TypeError(f"{cls.__name__}: defaults must trail, no field is self or _set, and no __init__ is written")
        cls._key = staticmethod(_values(fields))
        cls.__init__ = _Record.__init__

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)  # the first record of its class: compile the class's __init__, install it and call it
        body = [f"_set(self, {f!r}, {f})" for f in cls._fields] + (["self.__post_init__()"] if cls.__post_init__ else [])
        namespace = {"_set": _set}  # _set, not vars().update, which would give each record a dict of its own
        exec(f"def __init__(self, {', '.join(cls._fields)}):\n    " + "\n    ".join(body or ["pass"]), namespace)
        init = namespace["__init__"]
        init.__qualname__, init.__defaults__ = f"{cls.__qualname__}.__init__", tuple(cls._defaults.values())
        cls.__init__ = init
        init(self, *args, **kwargs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{f}={getattr(self, f)!r}' for f in self._fields])})"

    def __eq__(self, other: object) -> bool:
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))


def _values(names: tuple[str, ...]) -> Callable[[_Record], tuple]:
    """A function from a record to the tuple of its fields ``names``."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return attrgetter(*names) if names else lambda record: ()


class Machine(_Record):
    """A deterministic machine.

    ``rules`` maps (state, scanned-symbol tuple) to (next state, written
    symbols, moves); the tuple arity always equals ``tape_count``.  ``finals``
    maps each final state to True (result-bearing) or False (resultless).
    Both are read-only views of tables that no caller holds, so a machine
    that a cache shares cannot be changed by one caller for the others.
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
        object.__setattr__(self, "finals", MappingProxyType(dict(self.finals)))
        object.__setattr__(self, "rules", MappingProxyType(dict(self.rules)))
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


def _prechecked(
    name: str, states: tuple[str, ...], finals: Mapping[str, bool], rules: Mapping[RuleKey, RuleBody]
) -> Machine:
    """A single-tape machine over {_, 0, 1} that starts in ``states[0]``, built
    without ``Machine.__post_init__``: the caller guarantees all that it checks
    and hands over ``finals`` and ``rules`` as read-only views, to be shared."""
    machine = object.__new__(Machine)
    vars(machine).update(
        name=name, tape_count=1, alphabet=_BINARY, blank=BLANK, states=states, start=states[0], finals=finals, rules=rules
    )
    return machine


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
    finals = finals or {}
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


class Configuration(_Record):
    """A full instantaneous description: state, tapes, heads, step count."""

    state: str
    tapes: tuple[dict[int, str], ...]
    heads: tuple[int, ...]
    step: int = 0


# --- step results ---------------------------------------------------------


class NextConfig(_Record):
    """The configuration that one step leads to."""

    config: Configuration


class NoRule(_Record):
    """No rule matches the scanned symbols: the run is stuck."""


class AtFinal(_Record):
    """The configuration is in a final state."""


NO_RULE = NoRule()
AT_FINAL = AtFinal()


# --- run outcomes ---------------------------------------------------------


class HaltedWithResult(_Record):
    """The run halted in a result-bearing final state, with its output word."""

    result: str
    steps: int


class HaltedResultless(_Record):
    """The run halted in a resultless final state or where no rule applies."""

    steps: int


class BudgetExhausted(_Record):
    """The budget ran out before the run halted, in configuration ``config``.

    ``Run.outcome`` leaves the cells of a jumped sweep unwritten; reading
    ``config`` writes them, once, so an outcome read only for its status
    and steps never holds them."""

    steps: int
    config: Configuration

    @classmethod
    def _pending(cls, steps: int, config: Configuration, fill: tuple) -> BudgetExhausted:
        """Exhaustion in ``config`` once ``fill``'s cells are written: a
        jumped sweep's ``Run._fill``, one (tape, symbol, move, start) entry
        per moving head, whose head in ``config`` ends its cells."""
        outcome = object.__new__(cls)
        vars(outcome).update(steps=steps, _unwritten=(config, fill))
        return outcome

    def __getattr__(self, name: str) -> Configuration:
        # reached only for an attribute that is not set: config, before its first read
        if name != "config" or "_unwritten" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        config, fill = vars(self).pop("_unwritten")
        _write_fill(config.tapes, config.heads, fill)
        object.__setattr__(self, "config", config)
        return config


RunOutcome = HaltedWithResult | HaltedResultless | BudgetExhausted


def _write_fill(tapes: tuple[dict[int, str], ...], heads: Sequence[int], fill: tuple) -> None:
    """Write the cells of a jumped sweep.  ``fill`` holds, per moving head, its
    tape, the symbol it writes (None for blank, which leaves the cells as they
    are), its move and the cell it jumped from; it wrote every cell from there
    up to its head in ``heads``."""
    for i, wsym, delta, start in fill:
        if wsym is not None:
            tapes[i].update(zip(range(start, heads[i], delta), repeat(wsym)))


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
    return Configuration(machine.start, _input_tapes(machine, input_word), (0,) * machine.tape_count)


def _input_tapes(machine: Machine, input_word: str) -> tuple[dict[int, str], ...]:
    """The initial tapes: the input on tape 0 from cell 0, the others blank."""
    for ch in input_word:
        if ch == machine.blank:
            raise InputError("input words may not contain the blank symbol")
        if ch not in machine.alphabet:
            raise InputError(f"input symbol {ch!r} is not in the alphabet")
    tape0 = dict(enumerate(input_word))
    if machine.tape_count == 1:
        return (tape0,)
    return (tape0,) + tuple({} for _ in range(machine.tape_count - 1))


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


def _moving_heads_beyond(sweep: tuple, tapes: Sequence[Mapping[int, str]], heads: Sequence[int]) -> bool:
    """True when each of a compiled ``sweep``'s moving heads is beyond its
    tape's extent: no stored cell lies at or past the head in its direction,
    so that the sweep fires on fresh blanks for ever.  A stored cell next to
    a head answers without a scan of its tape."""
    for i, _, delta in sweep:
        tape = tapes[i]
        if tape:
            head = heads[i]
            if head + delta in tape or (head <= max(tape) if delta > 0 else head >= min(tape)):
                return False
    return True


def _compiled_rows(machine: Machine, rules: Mapping[RuleKey, RuleBody], rows: dict[str, dict]) -> dict[str, dict]:
    """Compile ``rules`` into ``rows``, the per-state rule rows of non-final
    states (a final state has no row), and return them.

    A row maps the scanned symbol (single tape) or symbol tuple to a compiled
    rule, which ends in its next state's row (_NO_ROW when that state has
    none) and then in its moving heads if it is a sweep, as ``Run`` defines
    one, else None, which the loops test faster than the truth of a tuple.
    A single-tape rule is compiled from scalars, as one is per ``Run``: its
    next state, write (None for blank) and move.  A multi-tape rule carries
    its scanned symbols, its writes and its effects: per tape whose cell it
    rewrites with another symbol or whose head it moves, the tape, the
    symbol written or None when the cell keeps its own, and the head's move.
    A sweep's moving heads are its effects, each with its write, so None is
    a blank write there.  A fixed point, a rule that keeps the state and has
    no effects (on one tape, moves no head and writes the symbol it scans),
    has the empty tuple.
    """
    row_of = rows.get
    blank = machine.blank
    items = rules.items()
    if machine.tape_count == 1:
        for (state, (sym,)), (nstate, (wsym,), (move,)) in items:
            delta = _DELTA[move]
            write = None if wsym == blank else wsym
            # the sweep test on one tape: its one effect, on blank, must be a
            # move, or it is a fixed point, which keeps its cell and its head
            sweep = (
                None if nstate != state
                else ((0, write, delta),) if delta and sym == blank
                else () if not delta and wsym == sym
                else None
            )
            rows[state][sym] = (nstate, write, delta, row_of(nstate, _NO_ROW), sweep)
    else:
        blanks = (blank,) * machine.tape_count
        for (state, syms), (nstate, writes, moves) in items:
            effects = tuple(
                (i, None if wsym == sym else wsym, _DELTA[move])
                for i, (sym, wsym, move) in enumerate(zip(syms, writes, moves))
                if wsym != sym or move != STAY
            )
            sweep = (
                None if nstate != state
                else effects if not effects or syms == blanks and all(d for _, _, d in effects)
                else None
            )
            rows[state][syms] = (nstate, syms, writes, effects, row_of(nstate, _NO_ROW), sweep)
    return rows


class Run:
    """A resumable run from the standard initial configuration.

    This is the one engine: every bounded run, observation, trace and
    self-editing run advances a ``Run``, while ``step`` stays the reference
    semantics that tests compare against.  The machine is compiled once, into
    rows private to this run, and each compiled rule carries its next state's
    row.  ``hook(state, tapes, heads, steps, rule)`` is called before every
    rule fires when given (on a single tape it receives the tape and the head
    instead); a truthy result stops the run unfired and is kept in ``checked``.
    On a single tape a certificate hook sees every tracked step, one whose
    tape holds at most _HOOK_CELLS cells, the most any hook tracks, and every
    sweep step (below); a sweep that moves a head and that it passes beyond
    the tape's extent ends in one jump, whose steps it does not see.  A ``_traced``
    run's hook, an observer, sees every step at any size, as every hook on
    several tapes does, and the run never jumps.  A state with no row stops
    the run as a halt does, right after the rule that enters it fires: a
    final state, or a next state that ``patch`` gave a rule and that the
    table does not hold.  Such a rule carries _NO_ROW, the one shared row
    that holds no rule.

    A compiled blank write is None on every tape count: a single-tape rule
    writes None for blank, and so does each moving head of a sweep and of a
    fill.  A multi-tape step applies only the rule's effects, and the
    scanned symbols that the next rule is looked up by change only where
    they do: a head that stays scans what it wrote, and only a head that
    moved reads its tape.

    A sweep (a rule under which every head reads blank, the state is kept,
    some head moves and every head that stays writes blank) that fires with
    each moving head beyond its tape's extent in its direction would fire on
    fresh blanks at every step left, so the run ends the budget in one jump
    (the macro-step of busy-beaver simulators, Marxen and Buntrock 1990).
    Either loop only tests for it, through the one extent test that the
    certificate hooks share: from an advance's second step on, when the
    steps left outnumber the tapes' cells, which the scans for the extents
    cost; after a test that fails, not again within that many steps.
    The jump then moves each of the sweep's moving heads by the steps left.
    A fixed point, a rule on any symbols that keeps the state, moves no head
    and rewrites no cell, is the sweep that moves no head, and only an
    unhooked run jumps it: the extent test holds with no moving head to test, no head
    moves and nothing is left to fill.  A hooked run steps it, since the
    hook's cycle check reports its repeat at the step after its first.
    When some moving head writes non-blank, the jump keeps, per moving head,
    its tape, write, move and the cell it jumped from in ``_fill``.  A later
    ``advance`` goes on with the same jump from there, so the cells of a
    fill lie between its start and its head.  Reading ``tapes`` or
    ``snapshot`` or a ``patch`` writes them first, so a run that is only
    observed never holds them, and ``outcome`` hands them over unwritten to
    the configuration it reports.
    """

    __slots__ = ("machine", "state", "_tapes", "_fill", "heads", "steps", "halted", "checked", "_hook", "_traced", "_rows")

    def __init__(self, machine: Machine, input_word: str, hook: Callable[..., object] | None = None):
        self._rows = _compiled_rows(machine, machine.rules, {q: {} for q in machine.states if q not in machine.finals})
        self._tapes = _input_tapes(machine, input_word)
        self._fill = None  # per moving head of a jumped sweep that writes, its unwritten cells
        self.machine = machine
        self.state = machine.start
        self.heads = [0] * machine.tape_count
        self.steps = 0
        self.halted = False  # a state with no row or a missing rule was reached
        self.checked = None
        self._hook = hook
        self._traced = False  # set by a trace: its hook sees every step, and the run never jumps

    def __del__(self) -> None:
        # the rows refer to one another through their rules; emptying them
        # lets reference counting free them, which spares every run the
        # cycle collector's passes
        for row in self._rows.values():
            row.clear()

    @property
    def tapes(self) -> tuple[dict[int, str], ...]:
        """The tapes, once the cells of a jumped sweep are written."""
        if self._fill is not None:
            _write_fill(self._tapes, self.heads, self._fill)
            self._fill = None
        return self._tapes

    def advance(self, budget: int) -> None:
        """Run until ``steps`` reaches ``budget``, the run halts (it reaches a
        state with no row or a missing rule) or the hook stops it.  A run
        that has reached ``budget``, halted or been stopped by its hook is
        left as it is: the hook is not asked again at the step it stopped."""
        if budget <= self.steps or self.halted or self.checked:
            return
        steps = self.steps
        jump = self._fill  # a jumped run goes on with its jump
        if jump is None:
            rows = self._rows
            hook = self._hook
            blank = self.machine.blank
            state = self.state
            row = rows.get(state, _NO_ROW)
            found = None
            tapes = self._tapes
            if len(tapes) == 1:
                tape = tapes[0]
                get = tape.get
                head = self.heads[0]
                cap = _HOOK_CELLS
                retry = steps + 1  # the first step that may try a jump: never an advance's first
                if self._traced:  # beyond every tape size and every step of this advance
                    cap = retry = budget + len(tape)
                while steps < budget:
                    rule = row.get(get(head, blank))
                    if rule is None:
                        self.halted = True
                        break
                    nstate, wsym, delta, nrow, sweep = rule
                    if hook is not None and (len(tape) <= cap or sweep is not None):
                        if found := hook(state, tape, head, steps, rule):
                            break
                    if sweep is not None and steps >= retry:
                        # a hooked run steps a fixed point, whose repeat is its hook's to find
                        jumps = sweep or hook is None
                        if jumps and budget - steps > len(tape) and _moving_heads_beyond(sweep, tapes, (head,)):
                            jump = sweep
                            break
                        retry = steps + len(tape)
                    if wsym is None:
                        tape.pop(head, None)
                    else:
                        tape[head] = wsym
                    head += delta
                    steps += 1
                    state = nstate
                    row = nrow
                self.heads[0] = head
            else:
                heads = self.heads
                get = dict.get
                # the scanned symbols, which each step's effects keep up to date
                key = list(map(get, tapes, heads, (blank,) * len(tapes)))
                retry = steps + 1
                while steps < budget:
                    rule = row.get(tuple(key))
                    if rule is None:
                        self.halted = True
                        break
                    nstate, _, _, effects, nrow, sweep = rule
                    if hook is not None:
                        if found := hook(state, tapes, heads, steps, rule):
                            break
                    elif sweep is not None and steps >= retry:
                        cells = sum(map(len, tapes))
                        if budget - steps > cells and _moving_heads_beyond(sweep, tapes, heads):
                            jump = sweep
                            break
                        retry = steps + cells
                    for i, wsym, delta in effects:
                        h = heads[i]
                        if wsym is not None:
                            if wsym == blank:  # over the non-blank symbol scanned
                                del tapes[i][h]
                            else:
                                tapes[i][h] = wsym
                        if delta:
                            h += delta
                            heads[i] = h
                            key[i] = get(tapes[i], h, blank)
                        else:
                            key[i] = wsym
                    steps += 1
                    state = nstate
                    row = nrow
            self.state = state
            self.checked = found
        if jump is not None:
            # every step left fires the sweep on a fresh blank: each moving head
            # moves that many cells, and cells written non-blank wait in _fill
            heads = self.heads
            if self._fill is None and any([wsym is not None for _, wsym, _ in jump]):
                self._fill = tuple([(i, wsym, delta, heads[i]) for i, wsym, delta in jump])
            moved = budget - steps
            for entry in jump:  # (tape, write, move), and a fill entry's start
                heads[entry[0]] += moved * entry[2]
            steps = budget
        self.steps = steps

    def snapshot(self) -> Configuration:
        """A copy of the current configuration."""
        return Configuration(self.state, tuple(dict(t) for t in self.tapes), tuple(self.heads), self.steps)

    def outcome(self) -> RunOutcome:
        """The outcome so far: a halt once one was reached, else exhaustion."""
        if not self.halted:
            config = Configuration(self.state, tuple(map(dict, self._tapes)), tuple(self.heads), self.steps)
            if self._fill is None:
                return BudgetExhausted(self.steps, config)
            return BudgetExhausted._pending(self.steps, config, self._fill)
        machine = self.machine
        if machine.finals.get(self.state):
            return HaltedWithResult(trimmed_word(self.tapes[-1], machine.blank), self.steps)
        return HaltedResultless(self.steps)

    def patch(self, key: RuleKey, body: RuleBody) -> None:
        """Install or replace one rule of this run's private table.  The rule
        may end a jumped sweep, so the sweep's cells are written first."""
        self.tapes
        _compiled_rows(self.machine, {key: body}, self._rows)


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


def words_over(alphabet: Symbols, max_length: int) -> Iterator[str]:
    """All words up to the given length in length-lexicographic order.  No
    word has a negative length, so that is refused rather than answered
    with no words."""
    if max_length < 0:
        raise InputError(f"max length must be >= 0, got {max_length}")
    return ("".join(chars) for length in range(max_length + 1) for chars in product(alphabet, repeat=length))


class EquivalentUpTo(_Record):
    """Every word up to the length gave agreeing outcomes within the budget."""

    max_input_length: int
    budget: int


class Counterexample(_Record):
    """The first word whose bounded outcomes disagree, with both outcomes."""

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
    _check_budget(budget)
    if set(m1.input_alphabet) != set(m2.input_alphabet):
        raise InputError("machines do not share an input alphabet")
    for word in words_over(m1.input_alphabet, max_input_length):
        o1 = run_bounded(m1, word, budget)
        o2 = run_bounded(m2, word, budget)
        if not outcomes_agree(o1, o2):
            return Counterexample(word, o1, o2)
    return EquivalentUpTo(max_input_length, budget)
