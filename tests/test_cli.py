import json

import pytest

from fsdim import ProbabilityVector
from fsdim.cli import dispatch


def run(tmp_path, *argv, expect=0, capsys=None):
    code = dispatch(list(argv))
    assert code == expect, f"{argv} exited {code}"
    return code


def test_gen_champernowne_ascii(tmp_path):
    out = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "25", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "k=2"
    assert "".join(lines[1:]) == "0100011011000001010011100"


def test_gen_rational_and_dim_report(tmp_path):
    digits = tmp_path / "third.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "600",
        "--num", "1", "--den", "3", "--out", str(digits))
    report = tmp_path / "dim.json"
    run(tmp_path, "dim", "--in", str(digits), "--max-block-len", "3",
        "--blocks", "50,150", "--report", str(report))
    data = json.loads(report.read_text())
    assert set(data) == {"k", "grid", "dim_lower", "dim_upper"}
    assert data["k"] == 10
    assert data["dim_lower"] == 0.0 and data["dim_upper"] == 0.0
    assert all(set(cell) == {"l", "n", "h"} for cell in data["grid"])


def test_dim_zeros_report(tmp_path):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("k=2\n" + "0" * 4000 + "\n")
    report = tmp_path / "dim.json"
    run(tmp_path, "dim", "--in", str(zeros), "--max-block-len", "4",
        "--blocks", "100,1000", "--report", str(report))
    data = json.loads(report.read_text())
    assert data["dim_lower"] == 0.0 and data["dim_upper"] == 0.0


def test_gen_dilution(tmp_path):
    src = tmp_path / "src.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "100", "--out", str(src))
    diluted = tmp_path / "diluted.txt"
    run(tmp_path, "gen", "dilution", "--in", str(src), "--count", "200",
        "--out", str(diluted))
    lines = diluted.read_text().splitlines()
    assert lines[0] == "k=2"
    assert "".join(lines[1:])[:10] == "0010000000"


@pytest.mark.parametrize("argv,flag", [
    (["gen", "champernowne", "--count", "10", "--out", "{dir}/x.txt", "--binary"], "--binary"),
    (["dim", "--in", "{src}", "--max-block-len", "2", "--blocks", "10",
      "--tail-fraction", "0.5"], "--tail-fraction"),
    (["arith", "mul-int", "--in", "{src}", "--m", "3", "--count", "5",
      "--out", "{dir}/x.txt", "--lookahead", "128"], "--lookahead"),
    (["delta", "certificate", "--alpha", "{src}", "--m", "3", "--l", "2", "--n", "10",
      "--lookahead", "16"], "--lookahead"),
])
def test_removed_flags_exit_one(tmp_path, capsys, argv, flag):
    # digit files are ASCII only, and the tail window and the lookahead are fixed
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "100", "--out", str(src))
    argv = [arg.format(src=src, dir=tmp_path) for arg in argv]
    assert dispatch(argv) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_arith_mul_int(tmp_path):
    src = tmp_path / "third.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "40",
        "--num", "1", "--den", "3", "--out", str(src))
    out = tmp_path / "double.txt"
    run(tmp_path, "arith", "mul-int", "--in", str(src), "--m", "2",
        "--count", "5", "--out", str(out))
    assert "".join(out.read_text().splitlines()[1:]) == "66666"


def test_arith_unresolved_exit_code(tmp_path, capsys):
    # 3 * 0.333... straddles 1 at every prefix: a file of threes resolves at no lookahead
    src = tmp_path / "third.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "300",
        "--num", "1", "--den", "3", "--out", str(src))
    out = tmp_path / "tripled.txt"
    code = dispatch(["arith", "mul-int", "--in", str(src), "--m", "3",
                     "--count", "5", "--out", str(out)])
    assert code == 2
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag == {"unresolved_at": 0}


def test_arith_zero_digits_resolved(tmp_path, capsys):
    # no digit requested is none missing: the threes that leave every digit
    # unresolved still certify zero of zero
    src = tmp_path / "third.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "5000",
        "--num", "1", "--den", "3", "--out", str(src))
    out = tmp_path / "tripled.txt"
    assert dispatch(["arith", "mul-int", "--in", str(src), "--m", "3",
                     "--count", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "".join(out.read_text().splitlines()[1:]) == ""


def test_arith_short_stream_exit_code(tmp_path, capsys):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "100", "--out", str(src))
    out = tmp_path / "tripled.txt"
    code = dispatch(["arith", "mul-int", "--in", str(src), "--m", "3",
                     "--count", "200", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "unresolved_at" not in captured.out
    assert "only 100" in captured.err


def test_arith_add_rational(tmp_path):
    src = tmp_path / "quarter.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "40",
        "--num", "1", "--den", "4", "--out", str(src))
    out = tmp_path / "sum.txt"
    run(tmp_path, "arith", "add-q", "--in", str(src), "--num", "1", "--den", "2",
        "--count", "3", "--out", str(out))
    assert "".join(out.read_text().splitlines()[1:]) == "750"


def test_delta_exact_cli(tmp_path, capsys):
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    pi.write_text(json.dumps({"n": 2, "p": ["1", "0"]}))
    mu.write_text(json.dumps({"n": 2, "p": ["1/2", "1/2"]}))
    run(tmp_path, "delta", "exact", "--pi", str(pi), "--mu", str(mu))
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["m"] == 2
    assert payload["delta_bits"] == 1.0
    assert payload["method"] == "exact-search"


def test_delta_certificate_cli(tmp_path, capsys):
    src = tmp_path / "champ.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "4300", "--out", str(src))
    cert_file = tmp_path / "cert.json"
    run(tmp_path, "delta", "certificate", "--alpha", str(src), "--m", "3",
        "--l", "4", "--n", "1000", "--out", str(cert_file))
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["valid"] is True
    assert payload["col_support"] <= 9 and payload["row_support"] <= 9
    stored = json.loads(cert_file.read_text())
    assert stored["n"] == 16
    assert all(len(triple) == 3 and "/" in triple[2] for triple in stored["entries"])


def written_certificate(path):
    """The certificate file at `path` as the rational reference's plain record."""
    from oracles import written_certificate_record
    return written_certificate_record(json.loads(path.read_text()))


def test_delta_exact_witness_file(tmp_path, capsys):
    from fsdim import ProbabilityVector
    from fractions import Fraction
    from oracles import validate_certificate_rational
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    pi.write_text(json.dumps({"n": 3, "p": ["1/2", "1/2", "0"]}))
    mu.write_text(json.dumps({"n": 3, "p": ["1/2", "1/4", "1/4"]}))
    witness = tmp_path / "witness.json"
    run(tmp_path, "delta", "exact", "--pi", str(pi), "--mu", str(mu),
        "--witness", str(witness))
    assert json.loads(capsys.readouterr().out.strip())["m"] == 2
    cert = written_certificate(witness)
    assert cert.declared_m == 2
    p_vec = ProbabilityVector((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    m_vec = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    assert validate_certificate_rational(cert, p_vec, m_vec).ok


def test_delta_exact_exhausted_budget_exits_three(tmp_path, capsys, monkeypatch):
    import fsdim.dispersion
    from fsdim import ProbabilityVector
    from fractions import Fraction
    from oracles import validate_certificate_rational
    monkeypatch.setattr(fsdim.dispersion, "SEARCH_NODE_BUDGET", 0)
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    pi.write_text(json.dumps({"n": 3, "p": ["1/2", "1/2", "0"]}))
    mu.write_text(json.dumps({"n": 3, "p": ["1/2", "1/4", "1/4"]}))
    witness = tmp_path / "witness.json"
    run(tmp_path, "delta", "exact", "--pi", str(pi), "--mu", str(mu),
        "--witness", str(witness), expect=3)
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["method"] == "certificate-upper-bound"
    cert = written_certificate(witness)
    assert cert.declared_m == payload["m"] >= 2
    p_vec = ProbabilityVector((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    m_vec = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    assert validate_certificate_rational(cert, p_vec, m_vec).ok


def test_verify_pseudometric_cli(tmp_path, capsys):
    report = tmp_path / "suite.json"
    run(tmp_path, "verify", "pseudometric", "--seed", "3", "--samples", "12",
        "--report", str(report))
    assert "PASS" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["passes"] is True


def test_verify_wall_cli(tmp_path, capsys):
    src = tmp_path / "champ10.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "5000", "--out", str(src))
    report = tmp_path / "wall.json"
    run(tmp_path, "verify", "wall", "--in", str(src), "--base", "10",
        "--num", "3", "--den", "1", "--max-block-len", "2",
        "--blocks", "100,400", "--report", str(report))
    data = json.loads(report.read_text())
    assert data["passes"] is True
    assert data["details"]["sum_digits_identical"] is True


def test_verify_wall_writes_fail_report_when_a_stream_fits_no_cell(tmp_path, capsys):
    # 3 * 0.333... never resolves a carry: q*alpha certifies no digit
    src = tmp_path / "threes.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "2000",
        "--num", "1", "--den", "3", "--out", str(src))
    report = tmp_path / "wall.json"
    assert dispatch(["verify", "wall", "--in", str(src), "--base", "10",
                     "--num", "3", "--den", "1", "--max-block-len", "2",
                     "--blocks", "100", "--report", str(report)]) == 1
    assert capsys.readouterr().out == "rational-arithmetic-preservation: FAIL (1 violations)\n"
    data = json.loads(report.read_text())
    assert data["passes"] is False
    assert data["violations"] == ["q-alpha: 0 certified digits fit no grid cell"]


def test_delta_certificate_unresolved_exits_two(tmp_path, capsys):
    # 3 * 0.333... straddles 1 at every prefix: a file of threes resolves at no lookahead
    src = tmp_path / "threes.txt"
    run(tmp_path, "gen", "rational", "--base", "10", "--count", "2000",
        "--num", "1", "--den", "3", "--out", str(src))
    assert dispatch(["delta", "certificate", "--alpha", str(src), "--m", "3", "--l", "2",
                     "--n", "100"]) == 2
    assert set(json.loads(capsys.readouterr().out)) == {"unresolved_at"}


def test_cli_idempotent_outputs(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        run(tmp_path, "gen", "champernowne", "--base", "3", "--count", "500", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()

    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    for rep in (rep1, rep2):
        run(tmp_path, "verify", "contractivity", "--seed", "11", "--samples", "8",
            "--report", str(rep))
    assert rep1.read_bytes() == rep2.read_bytes()


def test_validation_errors_exit_one(tmp_path, capsys):
    assert dispatch(["gen", "champernowne", "--base", "1", "--count", "10",
                     "--out", str(tmp_path / "x.txt")]) == 1
    assert dispatch(["gen", "rational", "--base", "10", "--count", "10",
                     "--out", str(tmp_path / "x.txt")]) == 1  # missing --num/--den
    assert dispatch(["dim", "--in", str(tmp_path / "missing.txt"),
                     "--max-block-len", "2", "--blocks", "10"]) == 1
    assert dispatch(["nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("blocks,message", [
    ("1,x", "error: bad --blocks list '1,x'\n"),
    ("0", "error: --blocks needs positive integers\n"),
])
def test_dim_bad_blocks_exit_one(tmp_path, capsys, blocks, message):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "100", "--out", str(src))
    assert dispatch(["dim", "--in", str(src), "--max-block-len", "2", "--blocks", blocks]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv,message", [
    (["gen", "champernowne", "--count", "-1"], "--count must be nonnegative"),
    (["gen", "dilution", "--count", "10"], "dilution needs --in FILE"),
    (["arith", "mul-int", "--in", "{src}", "--count", "5"], "mul-int needs --m"),
    (["arith", "div-int", "--in", "{src}", "--count", "5"], "div-int needs --m"),
])
def test_missing_or_bad_arguments_exit_one(tmp_path, capsys, argv, message):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "100", "--out", str(src))
    out = tmp_path / "x.txt"
    argv = [arg.format(src=src) for arg in argv] + ["--out", str(out)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_dim_without_report_prints_it(tmp_path, capsys):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "600", "--out", str(src))
    report = tmp_path / "dim.json"
    argv = ["dim", "--in", str(src), "--max-block-len", "3", "--blocks", "50,150"]
    run(tmp_path, *argv, "--report", str(report))
    capsys.readouterr()
    run(tmp_path, *argv)
    assert capsys.readouterr().out == report.read_text()


def test_wall_zero_q_exits_one(tmp_path, capsys):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "1000", "--out", str(src))
    report = tmp_path / "w.json"
    assert dispatch(["verify", "wall", "--in", str(src), "--base", "10", "--num", "0",
                     "--den", "1", "--max-block-len", "2", "--blocks", "100",
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == "error: wall needs --num nonzero\n"
    assert not report.exists()


def test_wall_base_mismatch_exits_one(tmp_path, capsys):
    src = tmp_path / "champ2.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "1000", "--out", str(src))
    assert dispatch(["verify", "wall", "--in", str(src), "--base", "10",
                     "--num", "3", "--den", "1", "--max-block-len", "2",
                     "--blocks", "100", "--report", str(tmp_path / "w.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gen", "rational", "--base", "10", "--count", "10", "--num", "1", "--den", "0"],
    ["arith", "add-q", "--num", "1", "--den", "0", "--count", "5"],
    ["arith", "mul-q", "--num", "1", "--den", "0", "--count", "5"],
])
def test_zero_denominator_exits_one(tmp_path, capsys, argv):
    src = tmp_path / "c.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "100", "--out", str(src))
    if argv[0] == "arith":
        argv = argv + ["--in", str(src)]
    assert dispatch(argv + ["--out", str(tmp_path / "x.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_delta_certificate_zero_multiplier_exits_one(tmp_path, capsys):
    src = tmp_path / "champ.txt"
    run(tmp_path, "gen", "champernowne", "--base", "10", "--count", "200", "--out", str(src))
    assert dispatch(["delta", "certificate", "--alpha", str(src), "--m", "0", "--l", "2",
                     "--n", "10"]) == 1
    assert capsys.readouterr().err == "error: m must be a positive integer\n"


def test_wall_oversized_block_space_exits_one(tmp_path, capsys, monkeypatch):
    # 2^25 blocks exceed the certificate cap: refused before any arithmetic
    import fsdim.verify

    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran before the block space was checked")
    src = tmp_path / "champ2.txt"
    run(tmp_path, "gen", "champernowne", "--base", "2", "--count", "3000", "--out", str(src))
    monkeypatch.setattr(fsdim.verify, "add_rational_mod1", no_arithmetic)
    monkeypatch.setattr(fsdim.verify, "mul_int_mod1", no_arithmetic)
    report = tmp_path / "w.json"
    assert dispatch(["verify", "wall", "--in", str(src), "--base", "2", "--num", "1",
                     "--den", "3", "--max-block-len", "25", "--blocks", "100",
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == ("error: block space k^l = 33554432 exceeds the "
                                       "certificate cap 16777216\n")
    assert not report.exists()


@pytest.mark.parametrize("p_file,detail", [
    ({"n": 2, "q": ["1/2", "1/2"]}, 'no "p" list of probabilities'),
    ({"p": "10"}, 'no "p" list of probabilities'),
    ({"p": {"1": "1/2"}}, 'no "p" list of probabilities'),
    ({"n": 2, "p": ["1/0", "1"]}, 'bad entry in "p": Fraction(1, 0)'),
    ({"n": 2, "p": [True, False]}, 'bad entry in "p": a JSON boolean is not a probability'),
    ({"n": 3, "p": ["1/2", "1/2"]}, "n=3 but 2 entries"),
    ({"n": True, "p": ["1"]}, "n=True but 1 entries"),
])
def test_delta_exact_bad_distribution_exits_one(tmp_path, capsys, p_file, detail):
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    pi.write_text(json.dumps(p_file))
    mu.write_text(json.dumps({"n": 2, "p": ["1/2", "1/2"]}))
    assert dispatch(["delta", "exact", "--pi", str(pi), "--mu", str(mu)]) == 1
    assert capsys.readouterr().err == f"error: distribution file {pi}: {detail}\n"


@pytest.mark.parametrize("p_text", ['{"n": 2, "p": [1e400, 0]}', '{"n": 2, "p": [Infinity, 0]}'])
def test_delta_exact_infinite_probability_exits_one(tmp_path, capsys, p_text):
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    pi.write_text(p_text)
    mu.write_text(json.dumps({"n": 2, "p": ["1/2", "1/2"]}))
    assert dispatch(["delta", "exact", "--pi", str(pi), "--mu", str(mu)]) == 1
    assert capsys.readouterr().err.startswith(f"error: distribution file {pi}: bad entry in \"p\"")


def test_delta_exact_refuses_floats_and_reads_strings_and_ints(tmp_path, capsys):
    # Fraction(0.5) is exact and Fraction(0.1) is not 1/10: a float would be
    # read as its binary fraction, so every float is refused as ProbabilityVector refuses it
    with pytest.raises(ValueError) as refused:
        ProbabilityVector((0.5, 0.5))
    pi = tmp_path / "p.json"
    mu = tmp_path / "u.json"
    mu.write_text(json.dumps({"p": ["1/2", 0, "1/2"]}))
    for p in ([0.5, 0, 0.5], [0.1, 0, 0.9], ["1/2", 0.0, "1/2"]):
        pi.write_text(json.dumps({"p": p}))
        assert dispatch(["delta", "exact", "--pi", str(pi), "--mu", str(mu)]) == 1
        assert capsys.readouterr().err == \
            f'error: distribution file {pi}: bad entry in "p": {refused.value}\n'
    pi.write_text(json.dumps({"p": [1, "0", 0]}))
    run(tmp_path, "delta", "exact", "--pi", str(pi), "--mu", str(mu))
    assert json.loads(capsys.readouterr().out) == {"m": 2, "delta_bits": 1.0,
                                                   "method": "exact-search"}


@pytest.mark.parametrize("suite,samples", [("pseudometric", "-1"), ("contractivity", "0")])
def test_suite_empty_sample_exits_one(tmp_path, capsys, suite, samples):
    report = tmp_path / "suite.json"
    assert dispatch(["verify", suite, "--samples", samples, "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


@pytest.mark.parametrize("suite", ["pseudometric", "contractivity"])
@pytest.mark.parametrize("samples", ["3", "8"])
def test_suite_n_max_above_solver_cap_exits_one(tmp_path, capsys, suite, samples):
    # refused before any solve, whether or not the samples reach n = 7
    report = tmp_path / "suite.json"
    assert dispatch(["verify", suite, "--n-max", "7", "--samples", samples,
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == "error: n_max must lie in [2, 6]\n"
    assert not report.exists()


@pytest.mark.parametrize("max_block_len", ["0", "-1"])
def test_dilution_nonpositive_block_length_exits_one(tmp_path, capsys, max_block_len):
    report = tmp_path / "dil.json"
    assert dispatch(["verify", "dilution", "--digits", "5000", "--max-block-len", max_block_len,
                     "--report", str(report)]) == 1
    assert capsys.readouterr().err == "error: max_block_len must be >= 1\n"
    assert not report.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    assert "fsdim" in capsys.readouterr().out
