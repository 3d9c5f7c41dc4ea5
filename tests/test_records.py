"""The behaviour that every value record of the package shows its callers:
exact-type equality, value hashing, immutability, construction by position,
keyword and default, the repr format that the goldens pin, and the
``__init__`` that each record class compiles when its first record is built."""

import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from hypermachine import machine, subrec
from hypermachine.codec import Description, encode
from hypermachine.corpus import corpus_machine
from hypermachine.inductive import (
    HALTED,
    PROVISIONAL,
    BlankRunaway,
    CertifiedStable,
    ConfigurationCycle,
    HaltsAt,
    InductiveOutcome,
    ObservationLog,
    Unknown,
)
from hypermachine.limits import LimitFunction, LimitReport, _every_stage, halting_as_limit
from hypermachine.machine import (
    BudgetExhausted,
    Configuration,
    HaltedResultless,
    HaltedWithResult,
    InputError,
    Machine,
    StructureError,
    single_tape_machine,
)
from hypermachine.reflexive import InstallRule, ReflexiveMachine, ReplaceRule
from hypermachine.subrec import Dfa, DfaFound

_EDIT = ("q0", ("0",), "q1", ("1",), ("R",))
_DFA = dict(states=("s0", "s1"), start="s0", accepting=frozenset({"s1"}), delta={
    ("s0", "0"): "s1", ("s0", "1"): "s0", ("s1", "0"): "s1", ("s1", "1"): "s0",
})


def _guess(x, t):
    return "0"


def test_records_of_different_types_never_compare_equal():
    assert HALTED != PROVISIONAL and PROVISIONAL != HALTED
    outcome = HaltedResultless(1)
    assert machine.Counterexample("0", outcome, outcome) != subrec.Counterexample("0")
    assert subrec.Counterexample("0") != machine.Counterexample("0", outcome, outcome)
    install, replace = InstallRule(*_EDIT), ReplaceRule(*_EDIT)
    assert install != replace and replace != install
    assert install == InstallRule(*_EDIT) and replace == ReplaceRule(*_EDIT)
    assert HaltsAt(3) != 3 and HaltsAt(3) != (3,)


def test_frozen_records_hash_by_value():
    assert hash(HaltsAt(3)) == hash(HaltsAt(3)) == hash((3,))
    assert hash(HaltedWithResult("1", 2)) == hash(("1", 2))
    assert hash(Unknown()) == hash(())
    assert len({HaltsAt(3), HaltsAt(3), HaltsAt(4), CertifiedStable(HALTED), CertifiedStable(HALTED)}) == 3
    assert {InstallRule(*_EDIT): 1}[InstallRule(*_EDIT)] == 1
    with pytest.raises(TypeError):
        hash(Configuration("q0", ({},), (0,)))


@pytest.mark.parametrize(
    "record,name",
    [
        (HaltsAt(3), "steps"),
        (HaltedWithResult("1", 2), "result"),
        (Description("01"), "bits"),
        (InstallRule(*_EDIT), "moves"),
        (LimitFunction("f", _guess), "next_change"),
        (single_tape_machine("m", {}), "rules"),
        (Configuration("q0", ({},), (0,)), "step"),
    ],
)
def test_a_field_can_be_neither_assigned_nor_deleted(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None
    assert name in vars(record)


def test_defaults():
    assert Configuration("q0", ({},), (0,)).step == 0
    assert Configuration("q0", ({},), (0,), 5).step == 5
    assert LimitFunction("f", _guess).next_change is _every_stage
    assert Dfa(**_DFA).alphabet == ("0", "1")


def test_keyword_construction():
    assert HaltedWithResult(result="1", steps=2) == HaltedWithResult("1", 2)
    assert HaltedWithResult("1", steps=2) == HaltedWithResult("1", 2)
    assert Configuration("q0", heads=(1,), tapes=({},), step=2) == Configuration("q0", ({},), (1,), 2)
    assert ReplaceRule(**dict(zip(("target_state", "target_symbols", "next_state", "writes", "moves"), _EDIT))) == ReplaceRule(*_EDIT)
    report = LimitReport(x=1, stages_evaluated=3, guesses_log=((0, "0"),), final_guess="0", changes=0, converged_within_budget=True)
    assert report == LimitReport(1, 3, ((0, "0"),), "0", 0, True)
    assert list(vars(report)) == ["x", "stages_evaluated", "guesses_log", "final_guess", "changes", "converged_within_budget"]
    assert list(vars(InstallRule(*_EDIT))) == ["target_state", "target_symbols", "next_state", "writes", "moves"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: HaltsAt(),
        lambda: HaltsAt(1, 2),
        lambda: HaltsAt(1, steps=1),
        lambda: HaltsAt(step=1),
        lambda: Configuration("q0", ({},)),
        lambda: Unknown(1),
    ],
    ids=["missing", "extra", "twice", "unknown-keyword", "missing-before-default", "no-fields"],
)
def test_a_wrong_call_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_construction_still_validates():
    with pytest.raises(StructureError):
        single_tape_machine("m", {("q0", "0"): ("q1", "2", "R")})
    with pytest.raises(StructureError):
        Machine("m", 0, ("_", "0"), "_", ("q0",), "q0", {}, {})
    with pytest.raises(InputError):
        Description("012")
    with pytest.raises(InputError):
        Dfa(**{**_DFA, "start": "s9"})
    base = single_tape_machine("m", {("q0", "0"): ("q0", "0", "R")})
    with pytest.raises(StructureError):
        ReflexiveMachine(base, {("q0", ("1",)): InstallRule(*_EDIT)})


def test_a_limit_function_compares_hashes_and_shows_all_its_fields():
    def other(x, t):
        return "1"

    def never(x, t, horizon):
        return None

    f = LimitFunction("f", _guess, never)
    assert f == LimitFunction("f", _guess, never) and hash(f) == hash(("f", _guess, never))
    assert f != LimitFunction("g", _guess, never) and f != LimitFunction("f", other, never) and f != LimitFunction("f", _guess)
    assert repr(f) == f"LimitFunction(name='f', guess={_guess!r}, next_change={never!r})"


def test_limit_functions_of_different_machines_are_unequal():
    flip = halting_as_limit(encode(corpus_machine("flip")), "0")
    loop = halting_as_limit(encode(corpus_machine("loop")), "")
    assert flip != loop and len({flip, loop}) == 2
    assert flip == flip and {flip: 1}[flip] == 1
    assert flip.guess(0, 5) == "1" and loop.guess(0, 5) == "0"


@pytest.mark.parametrize("keyword", [{"frozen": False}, {"compare": ("a",)}, {"repr": ("a",)}], ids=["frozen", "compare", "repr"])
def test_a_record_class_takes_no_keyword(keyword):
    with pytest.raises(TypeError):
        types.new_class("Loose", (machine._Record,), keyword)


def test_reprs():
    config = Configuration("q1", ({0: "1"},), (1,), 3)
    outcome = InductiveOutcome("1", 2, 5, PROVISIONAL, ObservationLog(((0, ""), (2, "1"))))
    cases = [
        (ConfigurationCycle(2, 7), "ConfigurationCycle(period=2, first_repeat_step=7)"),
        (BlankRunaway("q1", ("L", "S"), 4), "BlankRunaway(state='q1', direction=('L', 'S'), onset_step=4)"),
        (CertifiedStable(reason=HALTED), "CertifiedStable(reason=Halted())"),
        (PROVISIONAL, "Provisional()"),
        (
            LimitReport(1, 3, ((0, "0"), (2, "1")), "1", 1, False),
            "LimitReport(x=1, stages_evaluated=3, guesses_log=((0, '0'), (2, '1')), final_guess='1', changes=1, "
            "converged_within_budget=False)",
        ),
        (
            outcome,
            "InductiveOutcome(current_output='1', last_change_step=2, steps_executed=5, status=Provisional(), "
            "log=ObservationLog(entries=((0, ''), (2, '1'))))",
        ),
        (
            DfaFound(dfa=Dfa(**_DFA)),
            "DfaFound(dfa=Dfa(states=('s0', 's1'), start='s0', accepting=frozenset({'s1'}), delta={('s0', '0'): 's1', "
            "('s0', '1'): 's0', ('s1', '0'): 's1', ('s1', '1'): 's0'}, alphabet=('0', '1')))",
        ),
        (
            InstallRule(*_EDIT),
            "InstallRule(target_state='q0', target_symbols=('0',), next_state='q1', writes=('1',), moves=('R',))",
        ),
        (
            BudgetExhausted(3, config),
            "BudgetExhausted(steps=3, config=Configuration(state='q1', tapes=({0: '1'},), heads=(1,), step=3))",
        ),
        (Unknown(), "Unknown()"),
    ]
    for record, text in cases:
        assert repr(record) == text


def _fresh_interpreter(script):
    env = {**os.environ, "PYTHONPATH": str(Path(machine.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize(
    "body",
    [
        "a: int = 0\n    b: int",
        "self: int",
        "_set: int",
        "a: int\n    def __init__(self, a):\n        pass",
    ],
    ids=["default-then-required", "named-self", "named-setter", "own-init"],
)
def test_a_record_class_that_its_init_would_bind_wrongly_is_refused(body):
    with pytest.raises(TypeError):
        exec(f"class Bad(_Record):\n    {body}", {"_Record": machine._Record})


def test_eight_threads_can_build_the_first_records_of_a_class_at_once():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):

            class Pair(machine._Record):
                left: int
                right: str = "r"

                def __post_init__(self):
                    if self.left < 0:
                        raise ValueError(self.left)

            start = threading.Barrier(8)
            built = [None] * 8

            def build(i):
                start.wait(timeout=60)
                built[i] = Pair(i) if i % 2 else Pair(right=str(i), left=i)

            threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [vars(record) for record in built] == [
                {"left": i, "right": "r" if i % 2 else str(i)} for i in range(8)
            ]
            with pytest.raises(ValueError):
                Pair(-1)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("first", ["EditAction", "InstallRule", "ReplaceRule"])
def test_a_subclass_builds_with_its_own_fields_whichever_class_is_built_first(first):
    script = (
        "from hypermachine import reflexive\n"
        f"edit = {_EDIT!r}\n"
        f"names = [{first!r}] + ['EditAction', 'InstallRule', 'ReplaceRule']\n"
        "for name in names:\n"
        "    record = getattr(reflexive, name)(*edit)\n"
        "    print(type(record).__name__, *vars(record).values())\n"
    )
    lines = _fresh_interpreter(script).splitlines()
    values = "q0 ('0',) q1 ('1',) ('R',)"
    assert lines == [f"{name} {values}" for name in (first, "EditAction", "InstallRule", "ReplaceRule")]

    class Base(machine._Record):
        a: int

    class Wider(Base):
        b: int = 2

    assert vars(Base(1)) == {"a": 1} and vars(Wider(1)) == {"a": 1, "b": 2} and vars(Wider(1, 3)) == {"a": 1, "b": 3}


def test_importing_every_module_compiles_only_the_singletons_classes():
    # a record class compiles its __init__ when its first record is built, so
    # that a CLI call pays only for the classes that it uses; the module-level
    # singletons are built at import
    script = (
        "import importlib, pkgutil, hypermachine\n"
        "from hypermachine.machine import _Record\n"
        "for module in pkgutil.iter_modules(hypermachine.__path__):\n"
        "    importlib.import_module('hypermachine.' + module.name)\n"
        "def below(cls):\n"
        "    for sub in cls.__subclasses__():\n"
        "        yield sub\n"
        "        yield from below(sub)\n"
        "classes = set(below(_Record))\n"
        "print(len(classes), *sorted(c.__qualname__ for c in classes if vars(c)['__init__'] is not _Record.__init__))\n"
    )
    count, *built = _fresh_interpreter(script).split()
    assert int(count) >= 38
    assert built == ["AtFinal", "Halted", "NoRule", "Provisional", "Unknown"]
