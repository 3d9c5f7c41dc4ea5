"""Command-line behaviour: output formats and exit codes."""

import pytest

from hypermachine.cli import main
from hypermachine.codec import encode
from hypermachine.corpus import CORPUS_SPECS, corpus_machine, delay_machine


@pytest.fixture
def flip_spec(tmp_path):
    path = tmp_path / "flip.tm"
    path.write_text(CORPUS_SPECS["flip"])
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_halting(flip_spec, capsys):
    code, out, _ = run_cli(capsys, "run", flip_spec, "--input", "0", "--budget", "10")
    assert code == 0
    assert out == "status=halted\tresult=1\tsteps=1\n"


def test_run_budget_exhausted_exits_three(tmp_path, capsys):
    path = tmp_path / "loop.tm"
    path.write_text(CORPUS_SPECS["loop"])
    code, out, _ = run_cli(capsys, "run", str(path), "--budget", "25")
    assert code == 3
    assert "status=budget-exhausted\tsteps=25" in out


def test_run_trace_files_are_byte_identical(flip_spec, tmp_path, capsys):
    first = tmp_path / "a.trace"
    second = tmp_path / "b.trace"
    for target in (first, second):
        code, _, _ = run_cli(capsys, "run", flip_spec, "--input", "0", "--trace", str(target))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("step=0\tstate=q0")


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("machine m\nrule q0 0 -> q0 0 R\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "parse error" in err


def test_edit_structure_fault_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("machine m\nstart: q0\nfinal: qf\nrule q0 0 -> q0 0 R ! install(qf, 0 -> q0, 1, R)\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 4")


def test_reflexive_run_trace_to_stdout(tmp_path, capsys):
    path = tmp_path / "specializer.tm"
    path.write_text(CORPUS_SPECS["specializer"])
    code, out, _ = run_cli(capsys, "run", str(path), "--input", "000", "--budget", "50", "--trace", "-")
    assert code == 0
    assert out == (
        "step=0\tstate=scan\thead=0\ttape=000\n"
        "step=1\tstate=d1\thead=0\ttape=000\n"
        "step=2\tstate=d2\thead=0\ttape=000\n"
        "step=3\tstate=d3\thead=0\ttape=000\n"
        "step=4\tstate=wr\thead=0\ttape=000\n"
        "step=5\tstate=scan\thead=1\ttape=100\n"
        "step=6\tstate=scan\thead=2\ttape=110\n"
        "step=7\tstate=scan\thead=3\ttape=111\n"
        "step=8\tstate=done\thead=3\ttape=111\n"
        "edit\tstep=5\taction=ReplaceRule\n"
        "status=halted\tresult=111\tsteps=8\n"
    )


def test_runtime_error_exits_one(flip_spec, capsys):
    code, _, err = run_cli(capsys, "run", flip_spec, "--input", "2")
    assert code == 1
    assert "error" in err


def test_encode_decode_pipeline(flip_spec, tmp_path, capsys):
    code, bits, _ = run_cli(capsys, "encode", flip_spec)
    assert code == 0
    bits = bits.strip()
    assert bits == encode(corpus_machine("flip")).bits
    code, text, _ = run_cli(capsys, "decode", "--bits", bits)
    assert code == 0
    assert "machine decoded" in text
    assert "rule q1 0 -> q2 1 S" in text
    # decode also reads description files
    desc_file = tmp_path / "flip.desc"
    desc_file.write_text(bits + "\n")
    code, text2, _ = run_cli(capsys, "decode", str(desc_file))
    assert code == 0
    assert text2 == text


@pytest.mark.parametrize(
    "bits,message",
    [
        ("0110", "invalid encoding at bit 4: expected 1 terminating final state"),
        # flip's description with its two rules swapped: the same machine,
        # listed out of (state, symbol) order
        (
            "011" "001001" "010001001001000" "11" "010010010001000",
            "invalid encoding at bit 13: description is not in canonical form",
        ),
    ],
)
def test_decode_rejects_invalid_description(capsys, bits, message):
    code, out, err = run_cli(capsys, "decode", "--bits", bits)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["11", "0110101", "01100101"]


def test_halts_certified_and_provisional(capsys):
    bits = encode(corpus_machine("loop")).bits
    code, out, _ = run_cli(capsys, "halts", "--bits", bits, "--budget", "500")
    assert code == 0
    assert "status=certified-nonhalting:runaway" in out
    late = encode(delay_machine(60)).bits
    code, out, _ = run_cli(capsys, "halts", "--bits", late, "--budget", "50")
    assert code == 3
    assert "status=provisional" in out


def test_watch_command(tmp_path, capsys):
    path = tmp_path / "flicker.tm"
    path.write_text(CORPUS_SPECS["flicker"])
    code, out, _ = run_cli(capsys, "watch", str(path), "--interval", "3", "--budget", "50")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step=3\tout=0\tstatus=provisional"
    assert lines[-1].startswith("summary\t")


def test_diagonal_command(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "--index", "3", "--decider", "budget:100", "--budget", "100")
    assert code == 0
    assert out == "index=3\tword=00\tdiagonal=1\n"


def test_audit_command(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--machines", "4", "--decider", "budget:50", "--truth-budget", "100"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("index\tword\tclaim")
    assert len(lines) == 5


def test_bad_decider_spec(capsys):
    code, _, err = run_cli(capsys, "diagonal", "--index", "1", "--decider", "psychic:9")
    assert code == 1
    assert "decider" in err


def test_limit_eval_command(capsys):
    code, out, _ = run_cli(capsys, "limit-eval", "--fn", "constant", "--x", "0", "--stages", "5", "--window", "2")
    assert code == 0
    assert out.splitlines()[-1] == "final=1\tchanges=0\tconverged=1"
    code, out, _ = run_cli(capsys, "limit-eval", "--fn", "oscillator", "--x", "0", "--stages", "5", "--window", "2")
    assert code == 3


def test_equiv_command(tmp_path, capsys):
    flip = tmp_path / "flip.tm"
    flip.write_text(CORPUS_SPECS["flip"])
    eraser = tmp_path / "eraser.tm"
    eraser.write_text(CORPUS_SPECS["eraser"])
    code, out, _ = run_cli(capsys, "equiv", str(flip), str(flip))
    assert code == 0
    assert out.startswith("equivalent\t")
    code, out, _ = run_cli(capsys, "equiv", str(flip), str(eraser))
    assert code == 0
    assert out.startswith("counterexample\tword=\t")


def test_separate_command(capsys):
    code, out, _ = run_cli(capsys, "separate", "--lang", "parity", "--max-states", "2", "--max-len", "4")
    assert code == 0
    assert "dfa-found" in out
    code, out, _ = run_cli(capsys, "separate", "--lang", "anbn", "--max-states", "2", "--max-len", "5")
    assert code == 0
    assert "no-dfa-matches" in out


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "--steps", "100000")
    assert code == 0
    assert out.startswith("steps=100000\t")
    assert "rate=" in out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["audit", "--machines", "3", "--decider", "certified:50", "--truth-budget", "100"], 0),
        (["diagonal", "--index", "1", "--decider", "budget:abc"], 1),
        (["diagonal", "--index", "1", "--decider", "budget:0"], 1),
        (["watch", "{specializer}"], 1),  # a self-editing document
        (["encode", "{specializer}"], 1),
        (["equiv", "{specializer}", "{specializer}"], 1),
        (["decode"], 1),  # neither a file nor --bits
        (["run", "{missing}"], 1),
        (["separate", "--lang", "nope", "--max-states", "2"], 2),
        (["limit-eval", "--fn", "nope", "--x", "0", "--stages", "5", "--window", "2"], 2),
    ],
)
def test_exit_codes(tmp_path, capsys, argv, code):
    specializer = tmp_path / "specializer.tm"
    specializer.write_text(CORPUS_SPECS["specializer"])
    paths = {"specializer": specializer, "missing": tmp_path / "missing.tm"}
    argv = [arg.format(**paths) for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects a usage error this way
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code == 0:
        assert out.count("\n") == 4  # a header and one row per machine
    elif code == 1:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert "invalid choice: 'nope'" in err
