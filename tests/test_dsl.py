"""Parser and unparser for the machine description language."""

import pytest

from hypermachine.corpus import CORPUS_SPECS, corpus_machine
from hypermachine.dsl import ParseError, parse_machine_spec, unparse
from hypermachine.machine import Machine
from hypermachine.reflexive import ReflexiveMachine, ReplaceRule

FLIP_TEXT = CORPUS_SPECS["flip"]


def test_parse_flip():
    doc = parse_machine_spec(FLIP_TEXT)
    machine = doc.machine
    assert isinstance(machine, Machine)
    assert machine.name == "flip"
    assert machine.start == "q0"
    assert machine.finals == {"qf": True}
    assert machine.rules[("q0", ("0",))] == ("qf", ("1",), ("S",))
    assert machine.tape_count == 1
    assert machine.alphabet == ("_", "0", "1")


def test_parse_records_positions():
    doc = parse_machine_spec(FLIP_TEXT)
    assert doc.positions[("machine",)][0] < doc.positions[("start",)][0]
    line, col = doc.positions[("rule", "q0", ("0",))]
    assert FLIP_TEXT.splitlines()[line - 1].startswith("rule q0 0")
    assert col >= 1


def test_comments_and_blank_lines_are_ignored():
    doc = parse_machine_spec(
        """
# a comment
machine c   # trailing comment
start: q0

rule q0 0 -> q0 0 R  # move right
"""
    )
    assert doc.machine.rules[("q0", ("0",))] == ("q0", ("0",), ("R",))


def test_missing_start_is_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_machine_spec("machine m\nrule q0 0 -> q0 0 R\n")
    assert "missing start state" in str(err.value)


def test_missing_name_is_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_machine_spec("start: q0\n")
    assert "missing machine name" in str(err.value)


def test_duplicate_rule_is_nondeterministic():
    text = "machine m\nstart: q0\nrule q0 0 -> q0 0 R\nrule q0 0 -> q0 1 L\n"
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert "nondeterministic" in str(err.value)
    assert err.value.line == 4


def test_unknown_symbol_carries_position():
    text = "machine m\nstart: q0\nrule q0 2 -> q0 2 R\n"
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert "unknown symbol" in str(err.value)
    assert err.value.line == 3
    assert err.value.col == 9


def test_rule_from_final_state_is_rejected():
    text = "machine m\nstart: q0\nfinal: q0\nrule q0 0 -> q0 0 R\n"
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert "final" in str(err.value)


def test_malformed_rule_and_directive():
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\nrule q0 0 -> q0\n")
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\nbogus: 1\n")
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\ntapes: x\n")
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\nrule q0 0 -> q0 0 X\n")


def test_malformed_edit_clause():
    base = "machine m\nstart: q0\nrule q0 0 -> q0 0 R ! "
    for clause in ("upgrade(q0, 0 -> q0, 1, R)", "install q0 0", "install(q0 -> q0, 1, R)"):
        with pytest.raises(ParseError) as err:
            parse_machine_spec(base + clause + "\n")
        assert "edit" in str(err.value)


def test_install_edit_must_target_ruleless_pair():
    text = "machine m\nstart: q0\nrule q0 0 -> q0 0 R ! install(q0, 0 -> q0, 1, R)\n"
    with pytest.raises(ParseError):
        parse_machine_spec(text)


def test_replace_edit_must_target_existing_rule():
    text = "machine m\nstart: q0\nrule q0 0 -> q0 0 R ! replace(q0, 1 -> q0, 1, R)\n"
    with pytest.raises(ParseError):
        parse_machine_spec(text)


def test_edit_targeting_a_final_state_is_a_positioned_parse_error():
    text = "machine m\nstart: q0\nfinal: qf\nrule q0 0 -> q0 0 R ! install(qf, 0 -> q0, 1, R)\n"
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert "final state 'qf'" in str(err.value)
    assert err.value.line == 4


def test_parse_reflexive_document():
    doc = parse_machine_spec(CORPUS_SPECS["specializer"])
    machine = doc.machine
    assert isinstance(machine, ReflexiveMachine)
    action = machine.edits[("wr", ("0",))]
    assert action == ReplaceRule("scan", ("0",), "scan", ("1",), ("R",))


def test_install_clause_end_to_end():
    from hypermachine.machine import HaltedWithResult
    from hypermachine.reflexive import InstallRule, reflexive_run

    text = """
machine learner
start: q0
final: qf*
rule q0 0 -> q1 0 R ! install(q1, 0 -> qf, 1, S)
"""
    machine = parse_machine_spec(text).machine
    assert isinstance(machine, ReflexiveMachine)
    assert isinstance(machine.edits[("q0", ("0",))], InstallRule)
    # the base has no rule for (q1, 0); the edit supplies it after step 1
    outcome, log = reflexive_run(machine, "00", 100)
    assert outcome == HaltedWithResult("01", 2)
    assert [at for at, _ in log.entries] == [1]


def test_multi_tape_edit_clause():
    text = """
machine wide
tapes: 3
start: q0
rule q0 _ _ _ -> q1 _ _ 0 S S S ! install(q1, _ _ 0 -> q1, _ _ 1, S S R)
"""
    machine = parse_machine_spec(text).machine
    assert isinstance(machine, ReflexiveMachine)
    action = machine.edits[("q0", ("_", "_", "_"))]
    assert action.target_symbols == ("_", "_", "0")
    assert action.moves == ("S", "S", "R")


def test_multi_tape_rules_need_full_arity():
    text = "machine m\ntapes: 3\nstart: q0\nrule q0 _ _ -> q0 _ _ S S\n"
    with pytest.raises(ParseError):
        parse_machine_spec(text)


def test_unparse_parse_is_a_fixed_point_on_the_corpus():
    for name, text in CORPUS_SPECS.items():
        first = parse_machine_spec(text).machine
        rendered = unparse(first)
        second = parse_machine_spec(rendered).machine
        assert second == first, name
        assert unparse(second) == rendered, name


def test_unparse_emits_edit_clauses():
    rendered = unparse(corpus_machine("specializer"))
    assert "! replace(scan, 0 -> scan, 1, R)" in rendered


def test_blank_is_implicit_in_alphabet():
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nalphabet: 0 1 _\nstart: q0\n")


def test_duplicate_directives_rejected():
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\nstart: q1\n")
    with pytest.raises(ParseError):
        parse_machine_spec("machine m\nstart: q0\nfinal: qf qf\n")
