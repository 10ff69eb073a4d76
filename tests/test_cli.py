import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

from pathlib import Path

import pytest

from cases import report_from_json

from fsing import cli, frobenius, groebner
from fsing.cli import load_problem, main
from fsing.errors import InternalError, ParseError, ResourceLimit
from fsing.frobenius import FPOW_TERM_CAP
from fsing.invariants import analyze
from fsing.localcoh import InjectivityResult
from fsing.ring import REGULAR_CHECK_CAP, RingDescriptor, parse_polynomial

PROBLEMS = "problems"

SQUARES_P3_REPORT = {
    "a_invariant": 1,
    "reg_s_mod_tau": 0,
    "ell": 0,
    "thmA_bound": 1,
    "cor_bound": -8,
    "thmB_threshold": 6,
    "fpure_at_m": False,
    "tau_class": "isolated_non_f_pure_point",
    "isolated_singularity": False,
}

SQUARES_DIMS = {-3: 14, -2: 10, -1: 6, 0: 3, 1: 1, 2: 0}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# problem files the suite writes, for routes and regimes no shipped problem takes
WRITTEN = {
    # positive-dimensional taus with no coordinate zero, so Buchberger
    # decides them: tau = (x + y) vanishes at the F_2 point (1:1), the
    # pair's tau at no F_2 point
    "point_p2.ci": "p = 2\nvars = x, y\ngens = x^2*y + y^3\n",
    "fallback_p2.ci": "p = 2\nvars = x, y, z\ngens = x^2 + z^2, y^3 + z^3 + y*z^2\n",
    # an m-primary tau generated in degrees 3-4 with ell = 4 = D, so its
    # ranks settle it only past D
    "artinian_p3.ci": "p = 3\nvars = x, y\ngens = x^3 + y^3, x^4 + x^3*y + x*y^3\n",
    # leads x^2 and x*y share x, so the regular-sequence ranks run and
    # accept, in 4 variables and, with c = n+1, in 2
    "ci22_p5.ci": "p = 5\nvars = x, y, z, w\ngens = x^2 + y^2 + z^2 + w^2, x*y + z*w\n",
    "binary_p5.ci": "p = 5\nvars = x, y\ngens = x^2 + y^2, x*y\n",
    # a c = 2 witness: its stabilization certificate builds its rows from
    # one map per generator of tau
    "c2_p5.ci": "p = 5\nvars = x, y, z, w\ngens = x^2 + y*z + w^2, y^3 + z^3 + x*w^2\n",
    # a witness certified only past q = p: the binary septic's tau fails
    # the certificate at q = 3 and passes it at q = 9
    "septic_p3.ci": "p = 3\nvars = x, y\ngens = x^7 + y^7\n",
    # large p, where f^(p-1) = f^p / f
    "squares_p101.ci": "p = 101\nvars = x, y, z\ngens = x^2*y^2 + y^2*z^2 + z^2*x^2\n",
    "cubic_p61.ci": "p = 61\nvars = x, y, z\ngens = x^3 + x*y*z + y^2*z + z^3 + x^2*y\n",
    "cubic_p101.ci": "p = 101\nvars = x, y, z\ngens = x^3 + x*y*z + y^2*z + z^3 + x^2*y\n",
    # the Fermat cubic is not F-pure at p = 101 (p = 2 mod 3), with an
    # isolated non-F-pure point, and is F-pure at p = 103 (p = 1 mod 3)
    "fermat_p101.ci": "p = 101\nvars = x, y, z\ngens = x^3 + y^3 + z^3\n",
    "fermat_p103.ci": "p = 103\nvars = x, y, z\ngens = x^3 + y^3 + z^3\n",
}


def problem(tmp_path, name):
    """The path of the problem file name: written under tmp_path if WRITTEN
    holds it, else shipped in problems/."""
    if name in WRITTEN:
        return write(tmp_path, name, WRITTEN[name])
    return f"{PROBLEMS}/{name}"


# ---------------------------------------------------------------------------
# problem files


def test_load_problem_reads_the_full_file():
    problem = load_problem(f"{PROBLEMS}/squares_p3.ci")
    assert problem.ci.ring.p == 3
    assert problem.ci.ring.variables == ("x", "y", "z")
    assert problem.ci.degrees == (4,)
    assert problem.t_min == -3 and problem.t_max == 2
    assert problem.max_q is None


def test_load_problem_optional_keys(tmp_path):
    path = write(
        tmp_path,
        "a.ci",
        "p = 2\nvars = x, y\ngens = x^3 + y^3  # inline comment\nmax_q = 8\n",
    )
    problem = load_problem(path)
    assert problem.max_q == 8
    assert problem.t_min is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p = 3\nbroken line\n", "expected 'key = value'"),
        ("p = 3\ncolor = red\n", "unknown key 'color'"),
        ("p = 3\np = 5\nvars = x\ngens = x\n", "duplicate key 'p'"),
        ("p = 3\nvars = x, y\n", "missing required key 'gens'"),
        ("p = five\nvars = x\ngens = x\n", "p must be an integer, got 'five'"),
        ("p = 4\nvars = x, y\ngens = x\n", "characteristic 4 is not prime"),
        ("p = 3\nvars = x, x\ngens = x\n", "duplicate variable name"),
    ],
)
def test_load_problem_errors(tmp_path, text, fragment):
    path = write(tmp_path, "bad.ci", text)
    with pytest.raises(ParseError, match=fragment):
        load_problem(path)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_load_problem_rejects_non_positive_max_q(tmp_path, value, capsys):
    path = write(tmp_path, "a.ci", f"p = 3\nvars = x, y\ngens = x^2 + y^2\nmax_q = {value}\n")
    assert main(["witness", path]) == 2
    assert capsys.readouterr().err == f"{path}:4: max_q must be positive, got {value}\n"


def test_verify_refuses_deep_degree_before_building_coordinates(capsys):
    # enumerating these coordinates took seconds at t = -3000 and ran out of
    # memory at t = -8000; the count alone refuses them now
    start = time.perf_counter()
    code = main(["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-8000", "--to", "-8000", "--json"])
    assert time.perf_counter() - start < 5
    assert code == 4
    out, err = capsys.readouterr()
    assert json.loads(out)["capped"] == "32020003 coordinate monomials exceed the cap 20000"
    assert err == "stopped early: 32020003 coordinate monomials exceed the cap 20000\n"


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("flag", ["--max-q", "--max-cols"])
def test_non_positive_cap_flags_are_malformed_input(flag, value, capsys):
    # they used to fall back to the defaults (0) or fail as a cap (negative)
    with pytest.raises(SystemExit) as exc:
        main(["verify", f"{PROBLEMS}/squares_p3.ci", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,line",
    [
        ("p", "٣", 1),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        ("max_q", "2_7", 4),
        ("t_min", "-1_0", 4),
        ("t_max", "２", 4),  # FULLWIDTH DIGIT TWO
        ("t_min", "--1", 4),
        ("max_q", "0x1b", 4),
    ],
)
def test_file_integers_are_ascii_digits(tmp_path, key, value, line, capsys):
    # the keys p, max_q, t_min and t_max read the integers gens reads:
    # [+-]?[0-9]+ in ASCII, refused at file:line otherwise (exit 2)
    body = {"p": "3", "vars": "x, y", "gens": "x^2 + y^2"}
    if key == "p":
        body["p"] = value
    text = "".join(f"{k} = {v}\n" for k, v in body.items())
    if key != "p":
        text += f"{key} = {value}\n"
    path = write(tmp_path, "a.ci", text)
    assert main(["verify", path, "--from", "-1", "--to", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}:{line}: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("flag", ["--from", "--to", "--max-q", "--max-cols"])
@pytest.mark.parametrize("value", ["٣", "1_0", "³", " 3", "+-3"])
def test_flag_integers_are_ascii_digits(flag, value, capsys):
    # argparse's own refusal, exit 2; int() took the first two and " 3"
    with pytest.raises(SystemExit) as exc:
        main(["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-1", "--to", "0", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def test_signed_ascii_flags_still_read(capsys):
    assert main(["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-1", "--to", "+1",
                 "--max-cols", "+20000", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["degree"] for r in rows] == [-1, 0, 1]


def test_cli_import_leaves_numpy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fsing.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_load_problem_points_at_the_broken_generator(tmp_path):
    path = write(tmp_path, "bad.ci", "p = 3\nvars = x, y\ngens = x^2 + w\n")
    with pytest.raises(ParseError) as info:
        load_problem(path)
    assert str(info.value) == f"{path}:3:14: unknown variable 'w' at position 6"


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json(capsys):
    assert main(["analyze", f"{PROBLEMS}/squares_p3.ci", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == SQUARES_P3_REPORT
    report = analyze(load_problem(f"{PROBLEMS}/squares_p3.ci").ci)
    assert report_from_json(out) == report


def test_analyze_text(capsys):
    assert main(["analyze", f"{PROBLEMS}/squares_p3.ci"]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(len(k) for k in SQUARES_P3_REPORT)
    assert lines[0] == "a_invariant".ljust(width) + "  1"
    table = dict(line.split(None, 1) for line in lines)
    assert table["fpure_at_m"] == "false"
    assert table["tau_class"] == "isolated_non_f_pure_point"
    assert table["ell"] == "0"
    # an absent value prints as none
    assert main(["analyze", f"{PROBLEMS}/nonisolated_p3.ci"]) == 0
    table = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert table["reg_s_mod_tau"] == table["ell"] == table["thmA_bound"] == "none"


# analyze --json fields pinned per problem, each within 10 s
ANALYZED = {
    "nonisolated_p3.ci": {"tau_class": "non_f_pure_locus_positive_dimensional", "isolated_singularity": False},
    # ell is set exactly for an isolated point
    "monomial_xy_p5.ci": {"tau_class": "everywhere_f_pure", "ell": None},
    # the Fermat cubic's partials 3x^2, 3y^2, 3z^2 are pure-power leads
    "fermat_cubic_p5.ci": {"isolated_singularity": True},
    # a positive-dimensional tau settles isolated_singularity without the
    # Jacobian basis
    "point_p2.ci": {"tau_class": "non_f_pure_locus_positive_dimensional", "isolated_singularity": False},
    "fallback_p2.ci": {"tau_class": "non_f_pure_locus_positive_dimensional", "isolated_singularity": False},
    "artinian_p3.ci": {"ell": 4, "thmA_bound": 1},
    "ci22_p5.ci": {"tau_class": "everywhere_f_pure"},
    "binary_p5.ci": {"a_invariant": 2},
    "squares_p101.ci": {"tau_class": "isolated_non_f_pure_point"},
    "cubic_p61.ci": {"tau_class": "everywhere_f_pure"},
    "cubic_p101.ci": {"tau_class": "everywhere_f_pure"},
    "fermat_p101.ci": {"fpure_at_m": False, "tau_class": "isolated_non_f_pure_point"},
    "fermat_p103.ci": {"tau_class": "everywhere_f_pure"},
}


@pytest.mark.parametrize("name", sorted(ANALYZED))
def test_analyze_json_fields_are_frozen(name, tmp_path, capsys):
    start = time.perf_counter()
    assert main(["analyze", problem(tmp_path, name), "--json"]) == 0
    assert time.perf_counter() - start < 10
    report = json.loads(capsys.readouterr().out)
    assert {k: report[k] for k in ANALYZED[name]} == ANALYZED[name]


def test_analyze_bad_regular_sequence_exit_code(tmp_path, capsys):
    path = write(tmp_path, "notci.ci", "p = 3\nvars = x, y, z\ngens = x*y, y*z\n")
    assert main(["analyze", path]) == 3
    assert capsys.readouterr().err.startswith("not a complete intersection:")
    # a shared factor is refused at the first degree whose quotient is too large
    path = write(tmp_path, "shared_p5.ci", "p = 5\nvars = x, y, z\ngens = x*y, x*z\n")
    assert main(["analyze", path, "--json"]) == 3
    assert capsys.readouterr().err == (
        "not a complete intersection: not a regular sequence: "
        "quotient dimension 5 in degree 3, expected 4\n"
    )


@pytest.mark.parametrize("gens, named", [("x^2, 1", "form 2 (1)"), ("0, x", "form 1 (0)")])
def test_bad_form_refusal_names_its_position_and_the_form(tmp_path, capsys, gens, named):
    # positions count from 1, as make_class's do; the form follows in parentheses
    path = write(tmp_path, "bad_form.ci", f"p = 5\nvars = x, y\ngens = {gens}\n")
    assert main(["analyze", path]) == 3
    assert capsys.readouterr().err == (
        f"not a complete intersection: {named} is not homogeneous of positive degree\n"
    )


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.ci", "p = 3\nvars = x, y\ngens = x^2 + w\n")
    assert main(["analyze", path]) == 2
    assert ":3:14: unknown variable 'w'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "literal, col, fragment",
    [
        pytest.param("x^\u00b2", 10, "unexpected character '\u00b2'", id="superscript"),
        pytest.param("1" * 5000 + "*x", 8, "5000-digit integer", id="5000-digit"),
    ],
)
def test_malformed_integer_literal_is_located(tmp_path, capsys, literal, col, fragment):
    path = write(tmp_path, "lit.ci", f"p = 3\nvars = x, y\ngens = {literal}, y^2\n")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:3:{col}: {fragment}")


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(ci):
        raise InternalError("self-check failed")

    monkeypatch.setattr(cli, "analyze", broken)
    path = write(tmp_path, "a.ci", "p = 2\nvars = x, y\ngens = x^3 + y^3\n")
    write(tmp_path, "b.ci", "p = 3\nvars = x, y\ngens = x^2 + y^2\n")
    assert main(["analyze", path]) == 6
    assert capsys.readouterr().err == "internal error: self-check failed\n"
    assert main(["batch", str(tmp_path)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["file"] for r in records] == ["a.ci", "b.ci"]
    assert all(r["error"]["exit_code"] == 6 for r in records)


@pytest.mark.parametrize("command", ["analyze", "witness", "verify"])
@pytest.mark.parametrize("name", ["squares_p3.ci", "monomial_xy_p5.ci"])
def test_fedder_disagreement_exit_code(monkeypatch, capsys, command, name):
    # Fedder's test against the unit-tau verdict is one of compute_tau's
    # self-checks, so every command that computes tau keeps it
    fedder = frobenius.fedder_test_at_m
    monkeypatch.setattr(frobenius, "fedder_test_at_m", lambda ci: not fedder(ci))
    argv = [command, os.path.join(PROBLEMS, name)]
    if command == "verify":
        argv += ["--from", "-1", "--to", "0"]
    assert main(argv) == 6
    assert capsys.readouterr().err == "internal error: Fedder's test and the unit-tau verdict disagree\n"


def test_regular_sequence_check_cap(tmp_path, capsys):
    # degree 2,000,000,001 is inside the exponent cap, but the check would
    # walk about 2e18 monomials: refused before anything is allocated, also
    # when the product of two such forms would overflow the exponent cap
    write(tmp_path, "a.ci", "p = 3\nvars = x, y\ngens = x^2000000000*y\n")
    write(tmp_path, "b.ci", "p = 3\nvars = x, y\ngens = x^2000000000*y, y^2000000000*x\n")
    for name in ("a.ci", "b.ci"):
        assert main(["analyze", str(tmp_path / name)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("resource cap exceeded: regular-sequence check spans")
    assert main(["batch", str(tmp_path)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["file"] for r in records] == ["a.ci", "b.ci"]
    assert all(r["error"]["exit_code"] == 4 for r in records)


def test_power_of_a_sum_is_capped_before_it_is_built(tmp_path, capsys):
    # (x+y+z)^400 would span comb(403, 3) = 10,827,401 monomials, more than
    # the regular-sequence check accepts: refused before multiplying, while
    # a single-term factor keeps its later refusal
    path = write(tmp_path, "power.ci", "p = 10007\nvars = x, y, z\ngens = (x+y+z)^400\n")
    start = time.perf_counter()
    assert main(["analyze", path]) == 4
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (
        f"resource cap exceeded: {path}:3:8: a product of degree 400 spans 10827401 "
        f"monomials, cap {REGULAR_CHECK_CAP}\n"
    )
    start = time.perf_counter()
    assert main(["batch", str(tmp_path)]) == 1
    assert time.perf_counter() - start < 1
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["file"] == "power.ci"
    assert record["error"]["exit_code"] == 4
    assert record["error"]["message"].startswith(f"{path}:3:8: a product of degree 400")
    # the column points at the generator the cap refused, here the second
    second = write(tmp_path, "second.ci", "p = 10007\nvars = x, y, z\ngens = x*y, (x+y+z)^400\n")
    assert main(["analyze", second]) == 4
    assert capsys.readouterr().err.startswith(
        f"resource cap exceeded: {second}:3:13: a product of degree 400"
    )
    ring = RingDescriptor(3, ("x", "y", "z"))
    with pytest.raises(ResourceLimit, match="degree 200"):
        parse_polynomial("(x+y+z)^100 * (x+y+z)^100", ring)
    assert parse_polynomial("(x+y+z)^100 * x^100", ring).degree() == 200


def test_fpow_term_cap(tmp_path, capsys):
    # f^(p-1) of a plane cubic at p = 10007 would span 450,585,190 monomials:
    # refused before any multiplication; the squares quartic at p = 101
    # (80,601 monomials) stays under the cap
    assert math.comb(4 * 100 + 2, 2) <= FPOW_TERM_CAP
    path = write(tmp_path, "cubic.ci", "p = 10007\nvars = x, y, z\ngens = x^3 + y^3 + z^3\n")
    start = time.perf_counter()
    assert main(["analyze", path]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("resource cap exceeded: f^(p-1) spans")
    assert main(["batch", str(tmp_path)]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["file"] == "cubic.ci"
    assert record["error"]["exit_code"] == 4


def test_fpow_past_the_exponent_cap_in_one_variable(tmp_path, capsys):
    # in one variable f^(p-1) spans one monomial, so the term cap passes x^2
    # at p = 2^31 - 1; its degree, 2(p-1), is refused before any
    # multiplication (exit 4), not an OverflowError traceback
    path = write(tmp_path, "big_p.ci", "p = 2147483647\nvars = x\ngens = x^2\n")
    refusal = "resource cap exceeded: f^(p-1) has degree 4294967292, above the exponent cap 2147483647\n"
    for argv in (["analyze", path], ["witness", path], ["verify", path, "--from", "0", "--to", "0"]):
        assert main(argv) == 4
        assert capsys.readouterr().err == refusal
    assert main(["batch", str(tmp_path)]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["error"]["exit_code"] == 4


def test_witness_past_the_exponent_cap_at_its_stable_q(tmp_path, capsys):
    # x^3 at p = 65537 is stable at q = p, where the self-check's Frobenius
    # image needs the denominator q * p, past the exponent cap: witness
    # refuses (exit 4), while analyze and verify still answer
    path = write(tmp_path, "cubic_line.ci", "p = 65537\nvars = x\ngens = x^3\n")
    assert main(["witness", path, "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap exceeded: denominator exponent exceeds the cap\n"
    assert main(["analyze", path, "--json"]) == 0
    assert main(["verify", path, "--from", "0", "--to", "2", "--json"]) == 0


def test_huge_characteristic_is_refused_before_trial_division(tmp_path, capsys):
    # trial division up to sqrt(2^61 - 1) ran past a 20 s timeout; the cap
    # refuses p above 2^31 - 1 as malformed input at once
    text = "p = 2305843009213693951\nvars = x, y\ngens = x^2 + y^2\n"
    path = write(tmp_path, "huge_p.ci", text)
    start = time.perf_counter()
    assert main(["analyze", path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:")
    assert err.endswith(": characteristic 2305843009213693951 exceeds the cap 2147483647\n")
    assert main(["batch", str(tmp_path)]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["file"] == "huge_p.ci"
    assert record["error"]["exit_code"] == 2


def test_bad_characteristic_is_reported_at_its_own_line(tmp_path, capsys):
    # p comes first, vars third: the error names p's line, not the ring's
    path = write(tmp_path, "p4.ci", "p = 4\n# the ring\nvars = x, y\ngens = x^2 + y^2\n")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == f"{path}:1: characteristic 4 is not prime\n"
    assert main(["batch", str(tmp_path)]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["error"] == {
        "exit_code": 2,
        "message": f"{tmp_path / 'p4.ci'}:1: characteristic 4 is not prime",
    }


def test_analyze_five_forms(tmp_path, capsys):
    # c = 5: the Jacobian minor is built from the smaller minors, with no cap
    path = write(tmp_path, "five.ci", "p = 2\nvars = a, b, c, d, e\ngens = a, b, c, d, e^2\n")
    assert main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["isolated_singularity"] is True


def test_analyze_missing_file_exit_code(capsys):
    assert main(["analyze", "no/such/file.ci"]) == 2
    assert capsys.readouterr().err


# ---------------------------------------------------------------------------
# witness


def test_witness_json(capsys):
    assert main(["witness", f"{PROBLEMS}/squares_p3.ci", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "numerator": "x^2*y^2*z^2",
        "q": 3,
        "degree": 1,
        "frobenius_image_is_zero": True,
    }


def test_witness_text(capsys):
    assert main(["witness", f"{PROBLEMS}/squares_p3.ci"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = dict(line.split(None, 1) for line in lines)
    assert table["numerator"] == "x^2*y^2*z^2"
    assert table["frobenius_image_is_zero"] == "true"


def test_witness_refused_when_f_pure(capsys):
    assert main(["witness", f"{PROBLEMS}/monomial_xy_p5.ci"]) == 5
    err = capsys.readouterr().err
    assert "no witness: tau is not m-primary proper (everywhere_f_pure)" in err
    assert "tau =" not in err


def test_witness_refused_when_locus_positive_dimensional(tmp_path, capsys):
    # witness prints tau's reduced basis, also where Buchberger decided its class
    for name, tau in (
        ("nonisolated_p3.ci", "(x*y)"),
        ("point_p2.ci", "(x + y)"),
        ("fallback_p2.ci", "(y^3 + y*z^2 + z^3, x^2 + z^2, x*y + y*z, x*z + z^2)"),
    ):
        assert main(["witness", problem(tmp_path, name)]) == 5
        assert capsys.readouterr().err == (
            "no witness: tau is not m-primary proper (non_f_pure_locus_positive_dimensional)\n"
            f"tau = {tau}\n"
        )


def test_witness_runs_one_buchberger_on_a_fallback_tau(tmp_path, capsys, monkeypatch):
    # artinian completes the basis that decides this tau and keeps it, so
    # the tau = (...) line reads it from the cache
    runs, real = [], groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger", lambda *args: runs.append(args) or real(*args))
    assert main(["witness", problem(tmp_path, "fallback_p2.ci")]) == 5
    assert len(runs) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "tau = (y^3 + y*z^2 + z^3, x^2 + z^2, x*y + y*z, x*z + z^2)"


# witness --json on every shipped problem and some written ones:
# (exit code, numerator, q, degree)
WITNESSES = {
    "diag_cubic_2vars_p2.ci": (0, "x*y", 2, 1),
    "fermat_cubic_p2.ci": (0, "x*y*z", 2, 0),
    "fermat_cubic_p5.ci": (0, "x^4*y^4*z^4", 5, 0),
    "monomial_xy_p5.ci": (5, None, None, None),
    "nonisolated_p3.ci": (5, None, None, None),
    "squares_p3.ci": (0, "x^2*y^2*z^2", 3, 1),
    "squares_p5.ci": (0, "x^4*y^4*z^4", 5, 1),
    "artinian_p3.ci": (0, "x^7*y^5 + x^6*y^6 + 2*x^4*y^8", 9, 1),
    "c2_p5.ci": (0, "x^4*y^4*z^4*w^3", 5, 0),
    "septic_p3.ci": (0, "x^7*y^5", 9, 1),
}


def test_witness_covers_every_problem():
    shipped = sorted(WITNESSES.keys() - WRITTEN.keys())
    assert shipped == sorted(p.name for p in Path(PROBLEMS).glob("*.ci"))


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_json_is_frozen(name, tmp_path, capsys):
    code, numerator, q, degree = WITNESSES[name]
    assert main(["witness", problem(tmp_path, name), "--json"]) == code
    expected = "" if code else (
        f'{{\n  "numerator": "{numerator}",\n  "q": {q},\n  "degree": {degree},\n'
        '  "frobenius_image_is_zero": true\n}\n'
    )
    assert capsys.readouterr().out == expected


def test_witness_q_cap_from_flag(capsys):
    assert main(["witness", f"{PROBLEMS}/squares_p3.ci", "--max-q", "2"]) == 4
    assert capsys.readouterr().err.startswith("resource cap exceeded:")


def test_witness_q_cap_from_file(tmp_path, capsys):
    path = write(
        tmp_path,
        "capped.ci",
        "p = 3\nvars = x, y, z\ngens = x^2*y^2 + y^2*z^2 + z^2*x^2\nmax_q = 2\n",
    )
    assert main(["witness", path]) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_table(capsys):
    assert main(["verify", f"{PROBLEMS}/squares_p3.ci"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "degree  dim  kernel_dim"
    body = [line.split() for line in lines[1:-1]]
    assert [int(row[0]) for row in body] == list(range(-3, 3))
    for row in body:
        t, dim, kernel = map(int, row)
        assert dim == SQUARES_DIMS[t]
        assert kernel == (1 if t == 1 else 0)
    assert lines[-1] == "consistency: PASS (thmA)"


def test_verify_checks_both_bounds_on_smooth_cubic(capsys):
    assert main(["verify", f"{PROBLEMS}/fermat_cubic_p5.ci"]) == 0
    lines = capsys.readouterr().out.splitlines()
    dims = [int(row.split()[1]) for row in lines[1:-1]]
    assert dims == [15, 12, 9, 6, 3]
    assert all(int(row.split()[2]) == 0 for row in lines[1:-1])
    assert lines[-1] == "consistency: PASS (thmA, thmB)"


def test_verify_flags_override_file_window(capsys):
    assert main(["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "1", "--to", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["1", "1", "1"]


def test_verify_refuses_an_empty_window(tmp_path, capsys):
    # a reversed window checks nothing, so it must not report a PASS
    text = "p = 3\nvars = x, y, z\ngens = x^2*y^2 + y^2*z^2 + z^2*x^2\nt_min = 1\nt_max = 0\n"
    reversed_file = write(tmp_path, "reversed.ci", text)
    for args, window in (
        ([f"{PROBLEMS}/squares_p3.ci", "--from", "2", "--to", "-3"], "from 2 to -3"),
        ([reversed_file], "from 1 to 0"),
    ):
        for json_flag in ([], ["--json"]):
            assert main(["verify", *args, *json_flag]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"empty degree window: {window}\n"


def test_verify_needs_a_window(capsys):
    assert main(["verify", f"{PROBLEMS}/diag_cubic_2vars_p2.ci"]) == 2
    assert "verify needs a degree window" in capsys.readouterr().err


def test_verify_window_cap(capsys):
    code = main(["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-30", "--to", "0"])
    assert code == 2
    assert "capped at 20 degrees" in capsys.readouterr().err


def test_verify_json(capsys):
    assert main(["verify", f"{PROBLEMS}/squares_p3.ci", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
    assert payload["checked"] == ["thmA"]
    assert "capped" not in payload
    assert [r["degree"] for r in payload["rows"]] == list(range(-3, 3))
    assert [r["dim_source"] for r in payload["rows"]] == [14, 10, 6, 3, 1, 0]


def test_consistency_fails_on_rows_that_break_a_theorem(tmp_path):
    # fabricated rows: the squares quartic's Theorem A bound is 1, the
    # Fermat cubic over F_7 is F-pure (no thmA) and clears thmB's threshold 4
    squares = load_problem(f"{PROBLEMS}/squares_p3.ci").ci
    squares_tau = frobenius.compute_tau(squares)
    for rows in ([InjectivityResult(0, 3, 1)], [InjectivityResult(1, 1, 0)]):
        assert cli._consistency(squares, squares_tau, rows) == (False, ["thmA"])
    text = "p = 7\nvars = x, y, z\ngens = x^3 + y^3 + z^3\n"
    fermat = load_problem(write(tmp_path, "fermat_p7.ci", text)).ci
    rows = [InjectivityResult(-1, 3, 1)]
    assert cli._consistency(fermat, frobenius.compute_tau(fermat), rows) == (False, ["thmB"])


def test_verify_reports_a_failed_consistency(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_injectivity", lambda ci, t, max_cols: InjectivityResult(t, 1, 0))
    args = ["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "1", "--to", "1"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "consistency: FAIL (thmA)"
    assert main([*args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["consistent"] is False


def test_verify_unit_row_on_the_lead_of_an_image_row(tmp_path, capsys):
    # in degree 0 a unit annihilation row lands on the least column of a
    # longer Frobenius image row stacked before it: the unit takes the
    # column, and the rest of the image row is still reduced
    path = write(tmp_path, "binary.ci", "p = 2\nvars = x, y\ngens = x^2 + y^2, y^2\n")
    assert main(["verify", path, "--from", "0", "--to", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [
        {"degree": 0, "dim_source": 1, "dim_kernel": 0},
        {"degree": 1, "dim_source": 2, "dim_kernel": 2},
        {"degree": 2, "dim_source": 1, "dim_kernel": 1},
    ]
    assert payload["consistent"] is True
    assert payload["checked"] == ["thmA", "thmB"]


def test_verify_resource_cap(capsys):
    code = main(
        ["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-8", "--to", "-6",
         "--max-cols", "40", "--json"]
    )
    assert code == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["rows"] == []
    assert "exceed the cap 40" in payload["capped"]
    assert captured.err.startswith("stopped early:")


def test_verify_far_below_any_admissible_q(capsys):
    # no power of p up to the exponent cap represents this degree: a capped
    # scan with exit 4, not an OverflowError traceback
    code = main(
        ["verify", f"{PROBLEMS}/squares_p3.ci", "--from", "-100000000000",
         "--to", "-100000000000", "--json"]
    )
    assert code == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["rows"] == []
    assert payload["capped"] == "no admissible q below the exponent cap"
    assert captured.err == "stopped early: no admissible q below the exponent cap\n"


def test_verify_refuses_on_the_coordinate_count_before_an_empty_piece(tmp_path, capsys):
    # S/(x^2, y^2) is Artinian with a(R) = 2, so HF_R(a - t) is 0 at both
    # degrees; the coordinate count still refuses first
    path = write(tmp_path, "artinian.ci", "p = 3\nvars = x, y\ngens = x^2, y^2\n")
    code = main(["verify", path, "--from", "-40", "--to", "-40", "--max-cols", "5", "--json"])
    assert code == 4
    out, err = capsys.readouterr()
    assert json.loads(out)["capped"] == "43 coordinate monomials exceed the cap 5"
    assert err == "stopped early: 43 coordinate monomials exceed the cap 5\n"
    assert main(["verify", path, "--from", "-2", "--to", "-2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [{"degree": -2, "dim_source": 0, "dim_kernel": 0}]


def test_verify_deep_window_in_one_variable(tmp_path, capsys):
    # dim_source is the Hilbert function at a(R) - t alone: the series as a
    # list up to that degree would hold a billion entries
    path = write(tmp_path, "line.ci", "p = 3\nvars = x\ngens = x^2\n")
    start = time.perf_counter()
    code = main(["verify", path, "--from", "-1000000000", "--to", "-999999981", "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [{"degree": t, "dim_source": 0, "dim_kernel": 0}
                    for t in range(-1000000000, -999999980)]


# ---------------------------------------------------------------------------
# batch


def test_batch_over_the_problem_corpus(capsys):
    assert main(["batch", PROBLEMS]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["file"] for r in records] == sorted(r["file"] for r in records)
    assert len(records) == 7
    assert all(r["ok"] for r in records)
    by_name = {r["file"]: r for r in records}
    assert by_name["squares_p3.ci"]["report"] == SQUARES_P3_REPORT
    assert by_name["monomial_xy_p5.ci"]["report"]["tau_class"] == "everywhere_f_pure"


def test_batch_isolates_failures(tmp_path, capsys):
    write(tmp_path, "1_good.ci", "p = 2\nvars = x, y\ngens = x^3 + y^3\n")
    write(tmp_path, "2_notci.ci", "p = 3\nvars = x, y, z\ngens = x*y, y*z\n")
    write(tmp_path, "3_broken.ci", "p = 3\nvars = x\ngens = x +\n")
    assert main(["batch", str(tmp_path)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["ok"] for r in records] == [True, False, False]
    assert records[1]["error"]["exit_code"] == 3
    assert records[2]["error"]["exit_code"] == 2


def test_batch_survives_an_unforeseen_error(tmp_path, capsys):
    # 3,000 nested parentheses exhaust the parser's recursion: that file gets
    # an internal-error record, and the file after it still gets its report
    depth = 3000
    write(tmp_path, "deep.ci", "p = 3\nvars = x, y\ngens = " + "(" * depth + "x" + ")" * depth + "\n")
    shutil.copy(f"{PROBLEMS}/squares_p3.ci", tmp_path)
    assert main(["batch", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "RecursionError" in captured.err
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["file"] for r in records] == ["deep.ci", "squares_p3.ci"]
    assert records[0]["ok"] is False
    assert records[0]["error"]["exit_code"] == 6
    assert records[1] == {"file": "squares_p3.ci", "ok": True, "report": SQUARES_P3_REPORT}


def test_batch_all_failures_exit_code(tmp_path, capsys):
    write(tmp_path, "a.ci", "junk\n")
    write(tmp_path, "b.ci", "more junk\n")
    assert main(["batch", str(tmp_path)]) == 1
    capsys.readouterr()


def test_batch_empty_directory(tmp_path, capsys):
    assert main(["batch", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_batch_rejects_non_directory(capsys):
    assert main(["batch", f"{PROBLEMS}/squares_p3.ci"]) == 2
    assert "not a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one parser for every call


def test_parser_keeps_no_state_between_calls(capsys):
    squares = f"{PROBLEMS}/squares_p3.ci"
    # flags of one call do not leak into the next: the file's window, text
    assert main(["verify", squares, "--from", "-1", "--to", "1", "--json"]) == 0
    assert [r["degree"] for r in json.loads(capsys.readouterr().out)["rows"]] == [-1, 0, 1]
    assert main(["verify", squares]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "degree  dim  kernel_dim"
    assert [int(line.split()[0]) for line in lines[1:-1]] == list(range(-3, 3))
    assert main(["witness", squares, "--max-q", "1"]) == 4
    capsys.readouterr()
    assert main(["witness", squares]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["analyze"], ["verify", f"{PROBLEMS}/squares_p3.ci", "--max-q", "0"]]
)
def test_bad_arguments_fail_alike_on_every_call(argv, capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: fsing ")


def test_main_builds_no_parser_after_the_first_call(monkeypatch, capsys):
    # building the argparse tree used to lead the time of a small call
    squares = f"{PROBLEMS}/squares_p3.ci"
    assert main(["analyze", squares, "--json"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
    )
    assert main(["analyze", squares]) == 0
    assert main(["witness", squares, "--json"]) == 0
    assert main(["verify", squares, "--from", "1", "--to", "1"]) == 0
    capsys.readouterr()
    assert built == []
