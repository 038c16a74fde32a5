from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import upper_triangular_f2, zmod
from ringsolve import (
    GroupSystem,
    LinSystem,
    SpecParseError,
    TwoSidedSystem,
    decompose_local,
    parse_ring_spec,
    project_to_local,
    solve,
    sysio,
    verify_certificate,
)
from ringsolve.cli import REDUCTIONS, main
from ringsolve.oracle import brute_force_solve
from ringsolve.sysio import (
    parse_certificate,
    parse_group_spec,
    parse_matrix,
    parse_system,
    write_certificate,
    write_matrix,
    write_system,
    write_table_ring,
)


def test_parse_ring_spec_examples(tmp_path):
    assert parse_ring_spec("Z/12").size == 12
    gr = parse_ring_spec("GR(4,2)")
    assert gr.size == 16 and gr.characteristic() == 4
    prod = parse_ring_spec("Z/2 x Z/3")
    assert prod.size == 6 and prod.commutative
    poly = parse_ring_spec("Z/4[X]/(X^2+X+1)")
    assert poly.size == 16
    path = tmp_path / "ut2.json"
    write_table_ring(upper_triangular_f2(), path)
    table = parse_ring_spec(f"table:{path}")
    assert table.size == 8 and not table.commutative
    phi = parse_ring_spec("phi(Z/2)")
    assert phi.size == 4
    local = parse_ring_spec("local(Z/6, 3)")
    assert local.size == 2


def test_parse_ring_spec_product_isomorphic_to_z6():
    prod = parse_ring_spec("Z/2 x Z/3")
    z6 = zmod(6)
    image = [prod.scalar_idx(k, prod.one.index) for k in range(6)]
    assert len(set(image)) == 6
    for a, b in itertools.product(range(6), repeat=2):
        assert image[z6.mul_idx(a, b)] == prod.mul_idx(image[a], image[b])


def test_parse_ring_spec_errors():
    with pytest.raises(SpecParseError):
        parse_ring_spec("Q/5")
    with pytest.raises(SpecParseError):
        parse_ring_spec("GR(6,2)")  # 6 is not a prime power
    with pytest.raises(SpecParseError):
        parse_group_spec("GR(4,2)")


def test_system_round_trip_is_stable():
    z4 = zmod(4)
    system = LinSystem(
        z4, ["rowB", "rowA"], ["beta", "alpha"],
        {("rowB", "beta"): 2, ("rowA", "alpha"): 3, ("rowA", "beta"): 1},
        {"rowB": 1},
    )
    text = write_system(system)
    reparsed = parse_system(text)
    assert write_system(reparsed) == text
    assert brute_force_solve(system).solvable == brute_force_solve(reparsed).solvable


def test_twosided_file_round_trip(tmp_path):
    ring = upper_triangular_f2()
    path = tmp_path / "ring.json"
    write_table_ring(ring, path)
    text = "\n".join([
        f"twosided table:{path}",
        "vars x y",
        "eq 3*x + y*2 = 5",
    ])
    system = parse_system(text)
    assert system.left and system.right
    out = write_system(system)
    again = parse_system(out)
    assert write_system(again) == out
    assert brute_force_solve(system).solvable == brute_force_solve(again).solvable


def test_group_file_round_trip():
    text = "\n".join([
        "group Z/2 x Z/4",
        "vars x y",
        "eq 1*x + 2*y = (1,3)",
    ])
    system = parse_system(text)
    out = write_system(system)
    assert write_system(parse_system(out)) == out


def test_matrix_round_trip():
    text = "\n".join([
        "ring Z/9",
        "rows a b",
        "cols a b",
        "row a: 2*a + 1*b",
        "row b: 3*b",
    ])
    m = parse_matrix(text)
    out = write_matrix(m)
    assert write_matrix(parse_matrix(out)) == out


def test_certificate_round_trip_solvable():
    z4 = zmod(4)
    from ringsolve import solve_commutative

    system = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    cert = solve_commutative(system)
    text = write_certificate(cert, system)
    cert2 = parse_certificate(text, system)
    assert verify_certificate(system, cert2)


def test_certificate_round_trip_witness():
    z4 = zmod(4)
    from ringsolve import solve_commutative

    system = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    cert = solve_commutative(system)
    text = write_certificate(cert, system)
    cert2 = parse_certificate(text, system)
    assert verify_certificate(system, cert2)


# ---------------------------------------------------------------------------
# CLI driver


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_solve_exit_codes(tmp_path, capsys):
    sat = _write(tmp_path, "sat.rls", "ring Z/4\nvars x\neq 2*x = 2\n")
    unsat = _write(tmp_path, "unsat.rls", "ring Z/4\nvars x\neq 2*x = 1\n")
    assert main(["solve", sat]) == 0
    assert main(["solve", unsat]) == 1
    assert main(["solve", str(tmp_path / "missing.rls")]) == 2
    bad = _write(tmp_path, "bad.rls", "ring Z/4\nvars x\neq nonsense\n")
    assert main(["solve", bad]) == 2
    capsys.readouterr()


def test_cli_solve_oracle_check_and_json(tmp_path, capsys):
    sat = _write(tmp_path, "sat.rls", "ring Z/6\nvars x y\neq 2*x + 3*y = 5\n")
    assert main(["solve", sat, "--oracle-check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "SOLVABLE"
    assert set(payload["assignment"]) == {"x", "y"}


def test_cli_solve_then_verify(tmp_path, capsys):
    unsat = _write(tmp_path, "unsat.rls", "ring Z/6\nvars x\neq 2*x = 1\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["solve", unsat, "-o", cert_path]) == 1
    assert main(["verify", unsat, cert_path]) == 0
    capsys.readouterr()


def test_cli_reduce_complement_flips_verdict(tmp_path, capsys):
    unsat = _write(tmp_path, "unsat.rls", "ring Z/4\nvars x\neq 2*x = 1\n")
    out = str(tmp_path / "comp.rls")
    assert main(["reduce", "complement", unsat, "-o", out]) == 0
    assert main(["solve", out]) == 0  # complement of unsolvable is solvable
    capsys.readouterr()


def test_cli_reduce_twosided_then_solve(tmp_path, capsys):
    ring_path = tmp_path / "ut2.json"
    write_table_ring(upper_triangular_f2(), ring_path)
    src = _write(
        tmp_path, "ts.rls",
        f"twosided table:{ring_path}\nvars x\neq x*7 = 1\n",
    )
    out = str(tmp_path / "numerical.rls")
    assert main(["reduce", "twosided-numerical", src, "-o", out]) == 0
    assert main(["solve", out]) == 0
    capsys.readouterr()


def test_cli_reduce_or_general_is_gone(tmp_path, capsys):
    a = _write(tmp_path, "a.rls", "ring Z/2\nvars x\neq 1*x = 1\n")
    b = _write(tmp_path, "b.rls", "ring Z/3\nvars x\neq 1*x = 1\n")
    assert main(["reduce", "or-general", a, b, "-o", str(tmp_path / "org.rls")]) == 2
    assert "invalid choice: 'or-general'" in capsys.readouterr().err
    assert not (tmp_path / "org.rls").exists()


def test_cli_reduce_collapse_manifest(tmp_path, capsys):
    inner_s = _write(tmp_path, "inner_s.rls", "ring Z/2\nvars y\neq 1*y = 1\n")
    inner_u = _write(tmp_path, "inner_u.rls", "ring Z/2\nvars y\neq 0 = 1\n")
    manifest = _write(
        tmp_path, "collapse.txt",
        "outer-rows a\nouter-cols b1 b2\n"
        f"inner a b1 {inner_s}\ninner a b2 {inner_u}\n",
    )
    out = str(tmp_path / "collapsed.rls")
    assert main(["reduce", "collapse", manifest, "-o", out]) == 0
    assert main(["solve", out]) == 0
    capsys.readouterr()


def test_cli_mat_and_oracle(tmp_path, capsys):
    mat = _write(
        tmp_path, "m.rls",
        "ring Z/4\nrows a b\ncols a b\nrow a: 1*a + 2*b\nrow b: 1*b\n",
    )
    assert main(["mat", "inverse", mat]) == 0
    assert main(["mat", "det", mat]) == 0
    assert main(["mat", "charpoly", mat]) == 0
    assert main(["mat", "pow", mat, "--exponent", str(1 << 70)]) == 0
    assert main(["oracle", "det", mat]) == 0
    assert main(["oracle", "gl", "Z/4", "2"]) == 0
    out = capsys.readouterr().out
    assert "96" in out


def test_cli_mat_inverse_contract(tmp_path, capsys):
    singular = _write(
        tmp_path, "singular.rls",
        "ring Z/4\nrows a b\ncols a b\nrow a: 2*a + 2*b\nrow b: 1*b\n",
    )
    assert main(["mat", "inverse", singular]) == 1
    assert capsys.readouterr().out == "singular\n"
    ring_path = tmp_path / "ut2.json"
    write_table_ring(upper_triangular_f2(), ring_path)
    noncommutative = _write(
        tmp_path, "ut2.rls",
        f"ring table:{ring_path}\nrows a b\ncols a b\nrow a: 1*a + 2*b\nrow b: 1*b\n",
    )
    assert main(["mat", "inverse", noncommutative]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "commutative" in captured.err


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    src = _write(tmp_path, "s.rls", "ring Z/6\nvars b a\neq 4*a + 2*b = 2\n")
    out1, out2 = str(tmp_path / "o1.rls"), str(tmp_path / "o2.rls")
    assert main(["reduce", "normal-form", src, "-o", out1]) == 0
    assert main(["reduce", "normal-form", src, "-o", out2]) == 0
    assert (tmp_path / "o1.rls").read_bytes() == (tmp_path / "o2.rls").read_bytes()
    capsys.readouterr()


def test_cli_unexpected_exception_exits_internal(monkeypatch, capsys):
    def broken(text):
        raise RuntimeError("a bug")

    monkeypatch.setattr(sysio, "parse_ring_spec", broken)
    assert main(["ring", "info", "Z/4"]) == 3
    assert "internal error: RuntimeError: a bug" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "4096.0", "7" * 4400])
def test_cli_malformed_cap_variable_exits_usage(monkeypatch, capsys, value):
    monkeypatch.setenv("RINGSOLVE_MAX_ELEMS", value)
    assert main(["ring", "info", "Z/4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: RINGSOLVE_MAX_ELEMS must be an integer, got '")
    assert "Traceback" not in captured.err and len(captured.err.encode()) < 300


def test_cli_ring_subcommands(capsys):
    assert main(["ring", "info", "Z/12"]) == 0
    assert main(["ring", "decompose", "Z/12"]) == 0
    assert main(["ring", "order", "GR(4,2)"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "order" in out


# ---------------------------------------------------------------------------
# shipped corpus


def _corpus_root():
    from pathlib import Path

    return Path(__file__).resolve().parents[1] / "corpus"


def test_corpus_oracle_check_never_mismatches(monkeypatch, capsys):
    root = _corpus_root()
    monkeypatch.chdir(root.parent)  # table: paths are cwd-relative
    for path in sorted(root.glob("*.rls")):
        if path.name.startswith("matrix"):
            continue
        code = main(["solve", str(path), "--oracle-check"])
        assert code in (0, 1), path.name
    capsys.readouterr()


def test_corpus_files_round_trip(monkeypatch):
    root = _corpus_root()
    monkeypatch.chdir(root.parent)
    for path in sorted(root.glob("*.rls")):
        text = path.read_text()
        if path.name.startswith("matrix"):
            out = write_matrix(parse_matrix(text))
            assert write_matrix(parse_matrix(out)) == out
        else:
            out = write_system(parse_system(text))
            assert write_system(parse_system(out)) == out


MALFORMED_TABLE_FILES = {
    "rows are not lists": {"add": [1, 2], "mul": [1, 2]},
    "tables are not lists": {"add": 5, "mul": 5},
    "names of the wrong length": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "names": ["0"]},
    "names not a list": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "names": 7},
}


@pytest.mark.parametrize("case", list(MALFORMED_TABLE_FILES))
def test_cli_malformed_table_file_exits_usage(tmp_path, capsys, case):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(MALFORMED_TABLE_FILES[case]))
    assert main(["ring", "info", f"table:{path}"]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["Z/1000000000", "phi(Z/4096)", "Z/2 x Z/1000000000"])
def test_cli_ring_over_the_cap_exits_usage(capsys, spec):
    assert main(["ring", "info", spec]) == 2
    assert "exceeding the cap" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["Z/0[X]/(X)", "Z/0[X]/(X^2+1)"])
def test_cli_polynomial_quotient_over_z0_exits_usage(capsys, spec):
    assert main(["ring", "info", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("spec", ["Z/4[X]/(X^99999999)", "GR(2,99999999999999)", "GR(2,22)", "GR(2,30)",
                                  "GR(3,14)", "GR(1000000000000000000000007,2)",
                                  "Z/1000000000000000000000007[X]/(X)"])
def test_cli_polynomial_quotient_over_the_cap_exits_usage_at_once(capsys, spec):
    # the cap is checked from q and the degree, before a coefficient list,
    # the factoring of q, an irreducible-polynomial search or a full
    # rendering of q^degree
    start = time.perf_counter()
    assert main(["ring", "info", spec]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "exceeding the cap" in err


LONG_NUMBER = "7" * 4400  # past Python's 4,300-digit limit for int() of a string


FIFTY_DIGITS = "2" * 49 + "3"


@pytest.mark.parametrize("spec, message", [
    (f"GR(1,{'2' * 50})", "modulus must be an integer >= 2, got 1"),
    (f"GR({FIFTY_DIGITS},0)", "f must have degree >= 1"),
    (f"Z/{FIFTY_DIGITS}[X]/(1)", "f must have degree >= 1"),
])
def test_cli_degenerate_quotient_exits_usage_at_once(capsys, spec, message):
    # refused before q is factored or an irreducible polynomial is searched
    start = time.perf_counter()
    assert main(["ring", "info", spec]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec", [f"Z/{LONG_NUMBER}", f"GR({LONG_NUMBER},2)", f"Z/4[X]/(X^{LONG_NUMBER})",
                                  f"Z/4[X]/(X^2+{LONG_NUMBER})", f"Z/2 x Z/{LONG_NUMBER}"])
def test_cli_ring_spec_with_a_long_number_exits_usage(capsys, spec):
    start = time.perf_counter()
    assert main(["ring", "info", spec]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "internal error" not in err
    assert "(4400 characters)" in err and LONG_NUMBER not in err


@pytest.mark.parametrize("header", [f"group Z/{LONG_NUMBER}", f"group Z/2 x Z/{LONG_NUMBER}"])
def test_cli_system_file_with_a_long_group_modulus_exits_usage(tmp_path, capsys, header):
    path = tmp_path / "system.rls"
    path.write_text(f"{header}\nvars x\neq 1*x = 0\n")
    start = time.perf_counter()
    assert main(["solve", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "internal error" not in err
    assert LONG_NUMBER not in err


def test_cli_long_group_coefficient_is_quoted_by_its_start(tmp_path, capsys):
    path = tmp_path / "system.rls"
    path.write_text(f"group Z/4\nvars x\neq {LONG_NUMBER}*x = 1\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad integer coefficient '77777777777777777777'... (4400 characters)" in err
    assert LONG_NUMBER not in err


# ---------------------------------------------------------------------------
# tampered certificates


def _solved_certificate(tmp_path, system: str):
    """Solve ``system`` and return the path of its certificate file."""
    cert_path = tmp_path / "cert.txt"
    assert main(["solve", system, "-o", str(cert_path)]) in (0, 1)
    return cert_path


@pytest.mark.parametrize("label", ["p=x", "p=", "p=0", "p=1", "p=-2"])
def test_cli_verify_rejects_malformed_prime_labels(tmp_path, capsys, label):
    system = _write(tmp_path, "g4.rls", "group Z/4\nvars x\neq 2*x = 1\n")
    cert_path = _solved_certificate(tmp_path, system)
    text = cert_path.read_text()
    assert "summand p=2\n" in text
    cert_path.write_text(text.replace("summand p=2\n", f"summand {label}\n"))
    assert main(["verify", system, str(cert_path)]) == 2
    assert "names no prime of the reduction" in capsys.readouterr().err


def test_cli_verify_checks_the_chain_line(tmp_path, capsys):
    system = str(_corpus_root() / "z4_unsolvable.rls")
    cert_path = _solved_certificate(tmp_path, system)
    assert main(["verify", system, str(cert_path)]) == 0
    text = cert_path.read_text()
    assert "chain Z/4\n" in text
    cert_path.write_text(text.replace("chain Z/4\n", "chain GR(4,2)\n"))
    capsys.readouterr()
    assert main(["verify", system, str(cert_path)]) == 1
    assert capsys.readouterr().out == "invalid\n"


@pytest.mark.parametrize("name, text, line", [
    ("z4_solvable.rls", "certificate SOLVABLE\nassign x = 0\nassign x = 1\n", 3),
    ("z4_unsolvable.rls", "certificate UNSOLVABLE\nsummand 1\nchain Z/4\ndigest 353e77350e968038\n"
                          "witness ('e1', 0) = 1\nwitness ('e1', 0) = 2\n", 6),
], ids=["assign", "witness"])
def test_cli_verify_rejects_repeated_ids(tmp_path, capsys, name, text, line):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(text)
    assert main(["verify", str(_corpus_root() / name), str(cert_path)]) == 2
    assert f"line {line}: repeated" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repeated ids, numerical terms, matrix rows, long user text


@pytest.mark.parametrize("text", [
    "ring Z/5\nvars x y\neq r: x = 1\neq r: y = 2\n",
    "ring Z/5\nvars x y\neq e1: x = 1\neq y = 2\n",  # the unnamed row is numbered e1
    "group Z/4\nvars x\neq r: x = 1\neq r: 2*x = 2\n",
])
def test_cli_repeated_equation_id_exits_usage(tmp_path, capsys, text):
    path = _write(tmp_path, "system.rls", text)
    for argv in (["solve", path], ["solve", path, "--oracle-check"], ["oracle", "solve", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: repeated equation id")


def test_cli_distinct_equation_ids_still_solve(tmp_path, capsys):
    path = _write(tmp_path, "system.rls", "ring Z/5\nvars x y\neq r: x = 1\neq s: y = 2\n")
    assert main(["solve", path, "--oracle-check", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["assignment"] == {"x": "1", "y": "2"}


def test_cli_bare_numerical_term_exits_usage(tmp_path, capsys):
    bare = _write(tmp_path, "bare.rls", "numerical Z/4\nvars x\neq e1: x = 1\n")
    assert main(["solve", bare]) == 2
    assert capsys.readouterr().err == "error: line 3: bare term 'x': numerical coefficients are group elements\n"
    explicit = _write(tmp_path, "explicit.rls", "numerical Z/4\nvars x\neq e1: 1*x = 1\n")
    assert main(["solve", explicit]) == 0


def test_cli_matrix_repeated_column_terms_are_summed(tmp_path, capsys):
    split = _write(tmp_path, "split.rls", "ring Z/9\nrows r0 r1\ncols c0 c1\nrow r0: 1*c0 + 2*c0\nrow r1: 1*c1\n")
    whole = _write(tmp_path, "whole.rls", "ring Z/9\nrows r0 r1\ncols c0 c1\nrow r0: 3*c0\nrow r1: 1*c1\n")
    assert main(["mat", "det", split]) == 0
    assert main(["mat", "det", whole]) == 0
    assert capsys.readouterr().out == "3\n3\n"


def test_cli_matrix_repeated_row_line_exits_usage(tmp_path, capsys):
    path = _write(tmp_path, "m.rls", "ring Z/9\nrows r0 r1\ncols c0 c1\nrow r0: 1*c0\nrow r1: 1*c1\nrow r0: 1*c1\n")
    assert main(["mat", "det", path]) == 2
    assert capsys.readouterr().err == "error: line 6: repeated row 'r0'\n"


LONG_MODULUS = "7" * 4000  # under Python's digit limit, so the cap check sees the number
LONG_NAME = "v" * 4400

LONG_TEXT_FILES = {
    "coefficient": f"ring Z/4\nvars x\neq {LONG_NUMBER}*x = 1\n",
    "right-hand side": f"ring Z/4\nvars x\neq 1*x = {LONG_NUMBER}\n",
    "unexpected line": f"ring Z/4\nvars x\n{LONG_NUMBER}\n",
    "undeclared variable": f"ring Z/4\nvars x\neq 1*{LONG_NAME} = 1\n",
    "repeated equation id": f"ring Z/4\nvars x\neq {LONG_NAME}: 1*x = 1\neq {LONG_NAME}: 1*x = 1\n",
    "bad header": f"ring {LONG_NAME}\nvars x\neq 1*x = 1\n",
    "bare numerical term": f"numerical Z/4\nvars {LONG_NAME}\neq {LONG_NAME} = 1\n",
}
LONG_TEXT_SPECS = {
    "modulus": f"Z/{LONG_MODULUS}",
    "phi modulus": f"phi(Z/{LONG_MODULUS})",
    "quotient modulus": f"Z/{LONG_MODULUS}[X]/(X)",
    "Galois modulus": f"GR({LONG_MODULUS},1)",
    "product factor": f"Z/4 x {LONG_NAME}",
}


@pytest.mark.parametrize("case", [*LONG_TEXT_FILES, *LONG_TEXT_SPECS, "matrix row id"])
def test_cli_long_user_text_is_quoted_by_its_start(tmp_path, capsys, case):
    if case in LONG_TEXT_FILES:
        argv = ["solve", _write(tmp_path, "system.rls", LONG_TEXT_FILES[case])]
    elif case in LONG_TEXT_SPECS:
        argv = ["ring", "info", LONG_TEXT_SPECS[case]]
    else:
        argv = ["mat", "det", _write(tmp_path, "m.rls", f"ring Z/4\nrows a\ncols a\nrow {LONG_NAME}: 1*a\n")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.encode()) < 300 and "characters)" in err


@pytest.mark.parametrize("command", ["ring info", "solve"])
def test_cli_long_unreadable_path_is_quoted_by_its_start(tmp_path, capsys, command):
    path = str(tmp_path / "/".join(["d" * 200] * 15))  # about 3,000 characters, no such file
    argv = ["ring", "info", f"table:{path}"] if command == "ring info" else ["solve", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err
    assert len(err.encode()) < 300 and "characters)" in err


# ---------------------------------------------------------------------------
# the reduce table, repeated terms, zero matrix rows


def test_cli_reduce_project_local(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(_corpus_root().parent)
    out = tmp_path / "local.rls"
    argv = ["reduce", "project-local", "corpus/z6_mixed.rls", "-o", str(out)]
    assert main([*argv, "--idempotent", "3", "--trace"]) == 0
    assert capsys.readouterr().out == '{\n  "e": "3"\n}\n'
    assert out.read_text() == "ring local(Z/6,3)\nvars x0 x1\neq e0: 3*x1 = 3\neq e1: 0 = 0\n"
    out.unlink()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: project-local requires --idempotent <element>\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["group-to-ring", "corpus/z4_solvable.rls"], "group-to-ring expects GroupSystem input, got LinSystem"),
    (["twosided-numerical", "corpus/group_z2z4.rls"],
     "twosided-numerical expects TwoSidedSystem input, got GroupSystem"),
    (["and", "corpus/z4_solvable.rls", "corpus/group_z2z4.rls"], "and expects LinSystem input, got GroupSystem"),
    (["and", "corpus/z4_solvable.rls"], "and takes exactly two system files"),
    (["or", "corpus/z4_solvable.rls"], "or takes exactly two system files"),
])
def test_cli_reduce_rejects_the_wrong_input(monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.chdir(_corpus_root().parent)
    out = tmp_path / "target.rls"
    assert main(["reduce", *argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("split, whole", [
    ("ring Z/9\nvars x y\neq 1*x + 2*x + y + 4*y + 4*y = 1\n", "ring Z/9\nvars x y\neq 3*x = 1\n"),
    ("twosided Z/9\nvars x y\neq 1*x + 2*x + y*1 = 1\n", "twosided Z/9\nvars x y\neq 3*x + y*1 = 1\n"),
    ("twosided Z/9\nvars x y\neq x*4 + x*8 + 1*y = 1\n", "twosided Z/9\nvars x y\neq x*3 + 1*y = 1\n"),
    ("group Z/9\nvars x y\neq 1*x + 2*x + y + y = 1\n", "group Z/9\nvars x y\neq 3*x + 2*y = 1\n"),
    ("numerical Z/9\nvars x y\neq 1*x + 2*x + 4*y + 5*y = 1\n", "numerical Z/9\nvars x y\neq 3*x = 1\n"),
], ids=["ring", "twosided left", "twosided right", "group", "numerical"])
def test_cli_repeated_terms_are_summed(tmp_path, capsys, split, whole):
    assert write_system(parse_system(split)) == write_system(parse_system(whole))
    runs = []
    for text in (split, whole):
        code = main(["solve", _write(tmp_path, "system.rls", text), "--format", "json"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)


def test_write_matrix_renders_a_zero_row():
    matrix = parse_matrix("ring Z/4\nrows a b\ncols a b\nrow a: 1*a + 3*b\nrow b: 2*a + 2*a\n")
    assert write_matrix(matrix) == "ring Z/4\nrows r0 r1\ncols c0 c1\nrow r0: 1*c0 + 3*c1\nrow r1: 0\n"


@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_cli_reduce_refuses_an_extra_file(monkeypatch, tmp_path, capsys, name):
    monkeypatch.chdir(_corpus_root().parent)
    want, count, _ = REDUCTIONS[name]
    if name == "collapse":
        inner = _write(tmp_path, "inner.rls", "ring Z/2\nvars y\neq 1*y = 1\n")
        source = _write(tmp_path, "collapse.txt", f"outer-rows a\nouter-cols b\ninner a b {inner}\n")
    else:
        source = {LinSystem: "corpus/z4_solvable.rls", GroupSystem: "corpus/group_z2z4.rls",
                  TwoSidedSystem: "corpus/twosided_ut2.rls"}[want]
    out = tmp_path / "target.rls"

    def reduce(files):
        return main(["reduce", name, *files, "-o", str(out), "--idempotent", "1"])

    assert reduce([source] * count) == 0
    out.unlink()
    capsys.readouterr()
    assert reduce([source] * (count + 1)) == 2
    words = "one system file" if count == 1 else "two system files"
    assert capsys.readouterr().err == f"error: {name} takes exactly {words}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# local(<ring>, <element>) with a parenthesised element


@pytest.mark.parametrize("parent", ["Z/2 x Z/3", "Z/2 x GR(4,2)", "Z/6", "Z/12", "Z/2 x Z/2 x Z/3"])
def test_local_spec_round_trips_for_every_base_idempotent(parent):
    for summand in decompose_local(parse_ring_spec(parent)):
        ring = summand.ring
        back = parse_ring_spec(ring.spec)
        assert (back.spec, back.names, back.op_tables()) == (ring.spec, ring.names, ring.op_tables())


@pytest.mark.parametrize("e, verdict", [("(1,0)", "SOLVABLE"), ("(0,1)", "UNSOLVABLE")])
def test_cli_project_local_over_a_product_then_solve(tmp_path, capsys, e, verdict):
    text = "ring Z/2 x Z/3\nvars x\neq (1,0)*x = (1,1)\n"  # solvable over Z/2 only
    source = _write(tmp_path, "product.rls", text)
    out = tmp_path / "local.rls"
    assert main(["reduce", "project-local", source, "-o", str(out), "--idempotent", e]) == 0
    assert out.read_text().startswith(f"ring local(Z/2 x Z/3,{e})\n")
    system = parse_system(text)
    assert solve(project_to_local(system, system.ring.parse_element(e))).verdict == verdict
    assert main(["solve", str(out)]) == (0 if verdict == "SOLVABLE" else 1)
    assert capsys.readouterr().out.startswith(f"certificate {verdict}\n")


# ---------------------------------------------------------------------------
# a standard output closed by its reader


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_exits_usage_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["ring", "info", "Z/4"]) == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["ring", "info", "Z/4"], ["ring", "order", "Z/512"]])
def test_cli_closed_stdout_pipe_exits_usage_without_a_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-m", "ringsolve.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()  # before the child, still importing, writes a byte
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    for text in ("Traceback", "internal error", "Exception ignored"):
        assert text not in err
