"""Parser and unparser for the machine description language."""

import hashlib
from itertools import takewhile

import pytest

from hypermachine.codec import decode, encode, iter_descriptions
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


@pytest.mark.parametrize(
    "text,col",
    [
        # the symbol x, not the x of the state qx
        ("machine m\nstart: qx\nrule qx 0 -> qx x R\n", 17),
        # the second q, not the first
        ("machine m\nstart: q0\nfinal: q q\n", 10),
        # the state e, not the e of "rule"; this column is the rule's position
        ("machine m\nstart: q0\nfinal: e\nrule e 0 -> e 0 R\n", 6),
        # a fault in an edit clause is reported at its "!"
        ("machine m\nstart: q2\nrule q2 0 -> q2 0 R ! install(q2, 2 -> q2, 0, R)\n", 21),
    ],
)
def test_error_columns_point_at_the_token(text, col):
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert err.value.col == col


_RULE = "machine m\nstart: q0\nrule q0 0 -> q0 1 R"


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # each edit clause fault: the clause's own at its "!", its target
        # rule's at the rule's state
        (_RULE + " ! upgrade(q0, 1 -> q0, 0, R)\n", "malformed edit clause: expected install(...) or replace(...)", 3, 21),
        (_RULE + " ! install q0, 1 -> q0, 0, R\n", "malformed edit clause: missing parentheses", 3, 21),
        (_RULE + " ! installer(q0, 1 -> q0, 0, R)\n", "malformed edit clause: missing parentheses", 3, 21),
        (_RULE + " ! install(q0, 1, q0, 0, R)\n", "malformed edit clause: missing ->", 3, 21),
        (_RULE + " ! install()\n", "malformed edit clause: missing ->", 3, 21),
        (_RULE + " ! install(q0 -> q0, 0, R)\n", "malformed edit clause: bad target", 3, 21),
        (_RULE + " ! install(q0, , 1 -> q0, 0, R)\n", "malformed edit clause: bad target", 3, 21),
        (_RULE + " ! install(q0, 1 -> q0)\n", "malformed edit clause: bad replacement", 3, 21),
        (_RULE + " ! install(q0, 1 -> q0, 0)\n", "malformed edit clause: wrong number of parts", 3, 21),
        (_RULE + " ! replace(q0, 1 -> q0, 0, R, L)\n", "malformed edit clause: wrong number of parts", 3, 21),
        (_RULE + " ! install(q0, 2 -> q0, 0, R)\n", "unknown symbol '2'", 3, 21),
        (_RULE + " ! install(q0, 0 -> q0, 0, R)\n", "install edit targets existing rule ('q0', ('0',))", 3, 6),
        (_RULE + " ! replace(q0, 1 -> q0, 0, R)\n", "replace edit targets missing rule ('q0', ('1',))", 3, 6),
        (_RULE + " ! replace(q0, 0 -> q0, 0, X)\n", "edit rule ('q0', ('0',)) has invalid move 'X'", 3, 6),
        (_RULE + " ! install(q0, 1 1 -> q0, 0, R)\n", "edit rule ('q0', ('1', '1')) has wrong arity", 3, 6),
        ("machine m\nstart: q0\nfinal: qf\nrule q0 0 -> q0 1 R ! install(qf, 1 -> q0, 0, R)\n", "edit rule declared for final state 'qf'", 4, 6),
        # a states: line that omits a used state is refused at that line
        ("machine m\nstates: q0 qf\nstart: q0\nfinal: qf\nrule q0 0 -> q1 0 R\n", "states: omits state 'q1'", 2, 1),
        ("machine m\nstates: q1\nstart: q0\n", "states: omits state 'q0'", 2, 1),
        ("machine m\nstart: q0\nfinal: qf\n  states: q0\n", "states: omits state 'qf'", 4, 3),
        ("machine m\nstates: q0\n" + _RULE[10:] + " ! install(q1, 1 -> q0, 0, R)\n", "states: omits state 'q1'", 2, 1),
        ("machine m\nstates: q0 q1 q0\nstart: q0\n", "duplicate state in states:", 2, 1),
        ("machine\nstart: q0\n", "expected 'machine <name>'", 1, 1),
        (_RULE + "\ntapes: 1\n", "tapes: must precede rules", 4, 1),
        (_RULE + "\nalphabet: 0 1\n", "alphabet: must precede rules", 4, 1),
        ("machine m\nalphabet: 0 ab\n", "symbols are single characters, got 'ab'", 2, 13),
        ("machine m\nalphabet:  0 1 0\n", "duplicate alphabet symbol", 2, 1),
        ("machine m\nstart: q0 q1\n", "expected 'start: <state>'", 2, 1),
        ("machine m\nstart: q0\nfinal: qf *\n", "empty final state name", 3, 11),
    ],
)
def test_malformed_directives_are_diagnosed_at_their_token(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert str(err.value) == f"line {line}:{col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


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


def test_unparse_bytes_of_the_corpus_are_pinned():
    # a corpus machine's states come in the order its other lines give them,
    # so no corpus document gains a states: line
    rendered = "".join(unparse(corpus_machine(name)) for name in CORPUS_SPECS)
    assert "states:" not in rendered
    assert hashlib.sha256(rendered.encode()).hexdigest() == "8e2f7f7352c59892ad80e63699bc361708112b01874a62ab0864ad8138f0206d"


def test_every_short_description_round_trips_through_its_document():
    # 5,720 of these have a state that no rule, start: or final: names, and
    # 470 more have unreachable states that first use would order otherwise
    short = list(takewhile(lambda description: len(description.bits) <= 26, iter_descriptions()))
    assert len(short) == 7199
    for description in short:
        machine = decode(description)
        rebuilt = parse_machine_spec(unparse(machine)).machine
        assert rebuilt == machine, description.bits
        assert encode(rebuilt) == description


def test_a_states_line_fixes_the_order_and_may_name_unused_states():
    text = "machine m\nstates: q1 q3 q2\nstart: q1\nrule q1 0 -> q2 0 R\n"
    machine = parse_machine_spec(text).machine
    assert machine.states == ("q1", "q3", "q2")
    assert unparse(machine) == "machine m\ntapes: 1\nalphabet: 0 1\nstart: q1\nstates: q1 q3 q2\nrule q1 0 -> q2 0 R\n"
    assert "states:" not in unparse(parse_machine_spec(text.replace("states: q1 q3 q2\n", "")).machine)


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


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ("machine m\nmachine n\nstart: q0\n", "duplicate machine directive", 2, 1),
        ("machine m\ntapes: 1\n tapes: 2\nstart: q0\n", "duplicate tapes: directive", 3, 2),
        ("machine m\nalphabet: 0 1\nalphabet: a\nstart: q0\n", "duplicate alphabet: directive", 3, 1),
        ("machine m\nstates: q0\nstart: q0\nstates: q0\n", "duplicate states: directive", 4, 1),
        ("machine m\nstart: q0\nrule q0 0 -> q0 1 R !\n", "malformed edit clause: expected install(...) or replace(...)", 3, 21),
        ("machine m\nstart: q0\nrule q0 0 -> q0 1 R !  # a bare mark\n", "malformed edit clause: expected install(...) or replace(...)", 3, 21),
        ("machine m\nalphabet: 0 !\nstart: q0\n", "'!' marks an edit clause and is not a symbol", 2, 13),
    ],
    ids=["machine", "tapes", "alphabet", "states", "bare-mark", "bare-mark-before-comment", "mark-symbol"],
)
def test_a_document_the_parser_cannot_honour_is_refused_at_its_token(text, message, line, col):
    # a repeated directive would let the last one win, a bare "!" would drop
    # the edit that it marks, and a "!" symbol would break every rule using it
    with pytest.raises(ParseError) as err:
        parse_machine_spec(text)
    assert str(err.value) == f"line {line}:{col}: {message}"
