import io
import json
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from members import certificate_inputs
from oracles import certificate_document, certificate_json
from psicert import diagram
from psicert.bounds import pigeonhole_certificate
from psicert.cli import run
from psicert.errors import NotInPsiD
from psicert.generators import (
    example_fig1,
    example_fig2,
    generate_fig2_family,
    generate_inductive,
    generate_lambda_example,
    generate_pD,
    generate_qk,
    generate_two_var,
)
from psicert.patterns import SignPattern, pattern_from_poly
from psicert.polycore import RealSparsePoly, monomials_of_degree, poly_from_json, poly_to_json

GOLDEN = Path(__file__).parent / "golden"


def _run_cli(args, cwd=None):
    cmd = [sys.executable, "-m", "psicert", *args]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True)


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(poly_to_json(example_fig2())))
    return str(path)


@pytest.fixture()
def lambda15_file(tmp_path):
    path = tmp_path / "lambda15.json"
    path.write_text(json.dumps(poly_to_json(generate_lambda_example(15))))
    return str(path)


def test_check_psi_member_exit_zero(fig2_file):
    r = _run_cli(["check-psi", "--poly", fig2_file, "--d", "1"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["member"] is True


def test_check_psi_nonmember_exit_one(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps({"n": 2, "terms": [
            {"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "-1"}]})
    )
    r = _run_cli(["check-psi", "--poly", str(path), "--d", "3"])
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["member"] is False
    assert doc["witness"]["monomial"] == [0, 4]


def test_min_d_found(lambda15_file):
    r = _run_cli(["min-d", "--poly", lambda15_file, "--max-d", "32"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["min_d"] == 29


def test_min_d_not_found_exit_one(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps({"n": 2, "terms": [
            {"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "-1"}]})
    )
    r = _run_cli(["min-d", "--poly", str(path), "--max-d", "4"])
    assert r.returncode == 1
    assert json.loads(r.stdout)["min_d"] is None


def test_usage_error_exit_two():
    r = _run_cli(["check-psi", "--d", "1"])  # missing input file
    assert r.returncode == 2
    r2 = _run_cli(["frobnicate"])
    assert r2.returncode == 2
    # inconsistent family parameters are usage errors too
    r3 = _run_cli(["generate", "two-var", "--d", "2", "--m", "3", "--D", "8"])
    assert r3.returncode == 2


def test_search_local_strategy_smoke():
    r = _run_cli(["search", "--n", "2", "--D", "3", "--d", "1",
                  "--strategy", "local", "--budget", "5000", "--seed", "1"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["strategy"] == "local" and doc["seed"] == 1


@pytest.mark.parametrize("n, D, d", [(1, 3, 1), (2, 0, 1)])
def test_all_strategies_agree_without_a_dense_family(n, D, d, capsys):
    # the dense family needs n >= 2 and D >= 1; local search must not need it
    found = {}
    for strategy in ("exhaustive", "greedy", "local"):
        argv = ["search", "--n", str(n), "--D", str(D), "--d", str(d), "--strategy", strategy]
        assert run(argv) == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        found[strategy] = (doc["pattern"], doc["ratio"], doc["realized"])
    assert found["greedy"] == found["exhaustive"] == found["local"]
    assert found["local"][1] == "0"


def test_local_search_finding_nothing_is_negative_verdict(capsys):
    argv = ["search", "--n", "3", "--D", "5", "--d", "1", "--strategy", "local", "--budget", "3"]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "local search exhausted 3 evaluations" in out.err


def test_generate_and_signature_round_trip(tmp_path):
    out = tmp_path / "pd.json"
    r = _run_cli(["generate", "pd", "--n", "3", "--D", "6", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    poly = poly_from_json(doc)
    assert len(poly.support) == 28
    r2 = _run_cli(["signature", "--poly", str(out)])
    sig = json.loads(r2.stdout)
    assert sig["n_plus"] + sig["n_minus"] == 28


def test_generate_fig2_matches_library(tmp_path):
    r = _run_cli(["generate", "fig2"])
    assert r.returncode == 0
    assert poly_from_json(json.loads(r.stdout)) == example_fig2()


def test_generate_fig2_takes_n_and_D(capsys):
    assert run(["generate", "fig2", "--n", "4", "--D", "8"]) == 0
    assert poly_from_json(json.loads(capsys.readouterr().out)) == generate_fig2_family(4, 8)
    assert run(["generate", "fig2", "--n", "4"]) == 0
    assert poly_from_json(json.loads(capsys.readouterr().out)) == generate_fig2_family(4, 6)


@pytest.mark.parametrize(
    "args", [["--n", "1"], ["--D", "0"], ["--n", "3", "--D", "1"], ["--n", "4", "--D", "2"]]
)
def test_generate_fig2_infeasible_params_is_usage_error(capsys, args):
    assert run(["generate", "fig2", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_generate_qk_auto_reports_to_stderr():
    r = _run_cli(["generate", "qk", "--n", "3", "--k", "2"])
    assert r.returncode == 0
    assert "epsilon=1" in r.stderr
    doc = json.loads(r.stdout)
    assert doc["n"] == 3  # stdout stays a clean polynomial document


@pytest.mark.parametrize("epsilon", ["foo", "1/0"])
def test_generate_qk_bad_epsilon_is_usage_error(capsys, epsilon):
    assert run(["generate", "qk", "--n", "3", "--k", "2", "--epsilon", epsilon]) == 2
    assert "--epsilon: not a rational" in capsys.readouterr().err


def test_generate_qk_rational_epsilon(capsys):
    assert run(["generate", "qk", "--n", "3", "--k", "2", "--epsilon", "1/2"]) == 0
    assert poly_from_json(json.loads(capsys.readouterr().out)).n == 3


@pytest.mark.parametrize("args", [["--n", "2", "--k", "3"], ["--n", "3", "--k", "1"], ["--n", "3"]])
def test_generate_qk_faults_read_the_same_with_and_without_the_search(capsys, args):
    outcomes = []
    for epsilon in ("auto", "1/2"):
        code = run(["generate", "qk", *args, "--epsilon", epsilon])
        captured = capsys.readouterr()
        # a value out of range is the family's usage error; a missing flag is argparse's
        prefix = "usage error: " if "--k" in args else "usage: psicert generate qk "
        assert captured.out == "" and captured.err.startswith(prefix)
        outcomes.append((code, captured.err))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2


def test_generate_family_dispatch(capsys):
    for argv, poly in (
        (["fig2"], example_fig2()),
        (["pd", "--n", "3", "--D", "6"], generate_pD(3, 6)),
        (["two-var", "--d", "2", "--m", "3"], generate_two_var(2, 3)),
        (["inductive", "--n", "3", "--d", "2", "--k", "4"], generate_inductive(3, 2, 4)),
        (["qk", "--n", "3", "--k", "2", "--epsilon", "1/4"], generate_qk(3, 2, Fraction(1, 4))),
        (["lambda", "--lam", "15"], generate_lambda_example(15)),
    ):
        assert run(["generate", *argv]) == 0
        assert json.loads(capsys.readouterr().out) == poly_to_json(poly)


def test_generate_validates_combinations(capsys):
    assert run(["generate", "pd", "--n", "3"]) == 2  # missing D
    assert capsys.readouterr().err.endswith("psicert generate pd: error: the following arguments are required: --D\n")
    assert run(["generate", "two-var", "--d", "2", "--m", "3", "--D", "8"]) == 2  # D must be (d+1)m
    assert capsys.readouterr().err == "usage error: two-variable family requires D = (d+1)m, got D=8\n"
    assert run(["generate", "two-var", "--d", "2", "--m", "3", "--D", "9"]) == 0
    assert json.loads(capsys.readouterr().out) == poly_to_json(generate_two_var(2, 3))
    assert run(["generate", "mystery"]) == 2
    assert "invalid choice: 'mystery'" in capsys.readouterr().err


# (a family's valid command line, flags that family does not read)
_FOREIGN_FLAGS = [
    (["pd", "--n", "3", "--D", "2"], ["--k", "7"]),
    (["fig2"], ["--lam", "1"]),
    (["qk", "--n", "3", "--k", "2"], ["--homogenize"]),
    (["lambda", "--lam", "15"], ["--n", "3"]),
    (["two-var", "--d", "2", "--m", "3"], ["--epsilon", "1/2"]),
    (["inductive", "--n", "3", "--d", "2", "--k", "4"], ["--m", "2"]),
    (["pd", "--n", "3", "--D", "2"], ["--k", "7", "--epsilon", "1/2", "--lam", "99", "--homogenize"]),
]


@pytest.mark.parametrize(
    "argv, foreign", _FOREIGN_FLAGS, ids=[" ".join(a + f) for a, f in _FOREIGN_FLAGS]
)
def test_generate_rejects_a_flag_its_family_does_not_read(capsys, argv, foreign):
    # a family must not read past another family's flags: `pd` typed for `fig2` gives another polynomial
    assert run(["generate", *argv]) == 0
    capsys.readouterr()
    assert run(["generate", *argv, *foreign]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"psicert: error: unrecognized arguments: {' '.join(foreign)}\n")


_FAMILY_FLAGS = {
    "pd": {"--n", "--D"},
    "two-var": {"--d", "--m", "--D"},
    "inductive": {"--n", "--d", "--k", "--nu", "--homogenize"},
    "qk": {"--n", "--k", "--epsilon"},
    "lambda": {"--lam", "--lambda"},
    "fig2": {"--n", "--D"},
}


@pytest.mark.parametrize("family", list(_FAMILY_FLAGS))
def test_generate_family_help_lists_its_own_flags(capsys, family):
    assert run(["generate", family, "-h"]) == 0
    shown = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
    assert shown == {"-h", "--help", "--format", "--out"} | _FAMILY_FLAGS[family]


def test_verify_bounds(fig2_file):
    r = _run_cli(["verify-bounds", "--poly", fig2_file, "--d", "1"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["bound"] == "2" and doc["satisfied"] is True


def test_certificate(fig2_file):
    r = _run_cli(["certificate", "--poly", fig2_file])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["max_fiber"] <= 2
    assert len(doc["assignment"]) == 6


def test_certificate_nonmember_exit_one(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps({"n": 2, "terms": [
            {"exp": [2, 0], "coef": "1"}, {"exp": [0, 2], "coef": "-1"}]})
    )
    r = _run_cli(["certificate", "--poly", str(path)])
    assert r.returncode == 1


def test_certificate_zero_polynomial_is_negative_verdict(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"n": 2, "terms": []}))
    assert run(["certificate", "--poly", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "zero polynomial has no certificate"}


def _certificate_run(p: RealSparsePoly, *extra) -> tuple:
    """(exit code, stdout) of `psicert certificate` on p, run in-process."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(poly_to_json(p)))
        with redirect_stdout(out):
            code = run(["certificate", "--poly", str(path), *extra])
    return code, out.getvalue()


def _assert_certificate_bytes(p: RealSparsePoly) -> None:
    """stdout is the generic encoder's document plus a newline, in both formats; a non-member's too."""
    try:
        cert = pigeonhole_certificate(p)
    except NotInPsiD as exc:
        assert _certificate_run(p) == (1, json.dumps({"error": str(exc)}) + "\n")
        assert _certificate_run(p, "--format", "text") == (1, f"error: {exc}\n")
        return
    assert _certificate_run(p) == (0, certificate_json(cert) + "\n")
    doc = certificate_document(cert)
    text = "".join(f"{key}: {doc[key]}\n" for key in sorted(doc))
    assert _certificate_run(p, "--format", "text") == (0, text)


@settings(max_examples=150, deadline=None)
@given(certificate_inputs())
@example(RealSparsePoly(1, {(4,): Fraction(2, 3)}))  # n = 1: nothing negative
@example(RealSparsePoly(3, {(2, 0, 0): 1, (0, 2, 0): 3, (0, 0, 2): 5}))  # no negative term: empty assignment
@example(example_fig1().times(Fraction(7, 3)))  # rescaled member
@example(RealSparsePoly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}))  # non-member
def test_certificate_writes_the_generic_encoders_bytes(p):
    _assert_certificate_bytes(p)


def test_certificate_writes_the_generic_encoders_bytes_on_large_members():
    for p in (generate_pD(3, 96), generate_pD(4, 12).times(Fraction(5, 2)), generate_fig2_family(5, 9)):
        _assert_certificate_bytes(p)


def test_search_cli_restricted(tmp_path, fig2_file):
    pat = tmp_path / "support.json"
    from psicert.patterns import pattern_from_poly, pattern_to_json

    pat.write_text(json.dumps(pattern_to_json(pattern_from_poly(example_fig2()))))
    r = _run_cli(
        [
            "search", "--n", "3", "--D", "6", "--d", "1",
            "--strategy", "exhaustive", "--support", str(pat),
        ]
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["seed"] == 0
    num, _, den = doc["ratio"].partition("/")
    assert int(num) / int(den or "1") >= 6 / 7


def test_reduce_cli(tmp_path):
    from fractions import Fraction

    from members import BUMPING_MEMBER
    from psicert.polycore import GaussianRational, hermitian_to_json

    # the zero diagonal entry of the member is bumped, so its squares need a cross-block step
    herm = tmp_path / "member.json"
    herm.write_text(json.dumps(hermitian_to_json(BUMPING_MEMBER)))
    steps = tmp_path / "steps.json"
    r = _run_cli(["reduce", "--herm", str(herm), "--out", str(steps)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["echelon"] is True
    assert doc["reconstruction_error"] == 0
    assert (doc["n_plus"], doc["n_minus"]) == (2, 1)
    # 1 step, after a rescale by 1/2; the bytes are pinned
    assert steps.read_bytes() == (GOLDEN / "reduce_steps.json").read_bytes()
    recorded = json.loads(steps.read_text())["steps"]
    assert len(recorded) == doc["steps"] == 1
    G = GaussianRational.of
    for step in recorded:
        # every step is re-verified from its exact strings: t* diag(w', -v') t == diag(w, -v)
        t = [[G(re, im) for re, im in row] for row in step["t"]]
        w, v = map(Fraction, step["weights"]["before"])
        w1, v1 = map(Fraction, step["weights"]["after"])
        got = [
            [t[0][i].conjugate() * t[0][j] * w1 - t[1][i].conjugate() * t[1][j] * v1 for j in range(2)]
            for i in range(2)
        ]
        assert got == [[G(w), G(0)], [G(0), G(-v)]]
        assert step["lambda"] is None or 0 < Fraction(step["lambda"]) < 1


_DIAGRAM_INPUTS = {
    "fig1": lambda: ("--poly", poly_to_json(example_fig1())),
    "fig2": lambda: ("--poly", poly_to_json(example_fig2())),
    # asymmetric, so a mirrored row shows; positive, negative and zero points
    "two_var": lambda: ("--pattern", {"n": 2, "D": 5, "pos": [[5, 0], [1, 4]], "neg": [[4, 1], [0, 5]]}),
    "d0": lambda: ("--pattern", {"n": 3, "D": 0, "pos": [[0, 0, 0]], "neg": []}),
}


# golden file: its input and the diagram flags
_DIAGRAM_GOLDENS = {
    "fig2.svg": ("fig2", ["--style", "svg"]),
    "fig2.txt": ("fig2", ["--style", "ascii"]),
    "fig1_simplices.svg": ("fig1", ["--style", "svg", "--show-simplices"]),
    "two_var.svg": ("two_var", ["--style", "svg"]),
    "two_var.txt": ("two_var", ["--style", "ascii"]),
    "d0.svg": ("d0", ["--style", "svg"]),
    "d0.txt": ("d0", ["--style", "ascii"]),
}


@pytest.mark.parametrize("golden", list(_DIAGRAM_GOLDENS))
def test_diagram_golden_files(golden, tmp_path):
    source, flags = _DIAGRAM_GOLDENS[golden]
    kind, doc = _DIAGRAM_INPUTS[source]()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    r = _run_cli(["--format", "text", "diagram", kind, str(path), *flags])
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "pattern, show_simplices",
    [
        (pattern_from_poly(generate_pD(3, 12)), False),
        (pattern_from_poly(generate_pD(3, 12)), True),
        (SignPattern(2, 20, [(20 - b, b) for b in range(0, 21, 3)], [(20 - b, b) for b in range(1, 21, 3)]), False),
    ],
    ids=["pD(3,12)", "pD(3,12)-simplices", "two-var-D20"],
)
def test_diagram_quantizes_each_coordinate_once(monkeypatch, pattern, show_simplices):
    # x texts by column, y and label texts by row, the size and the radius: at most
    # 4D + 12 quantizations, however many points and contributor corners are drawn
    calls = []
    q = diagram._q

    def counted(x):
        calls.append(x)
        return q(x)

    monkeypatch.setattr(diagram, "_q", counted)
    doc = diagram.render_diagram(pattern, "svg", show_simplices)
    assert doc.count("<circle") == len(monomials_of_degree(pattern.n, pattern.D))
    assert len(calls) <= 4 * pattern.D + 12


def test_diagram_deterministic(fig2_file):
    a = _run_cli(["diagram", "--poly", fig2_file])
    b = _run_cli(["diagram", "--poly", fig2_file])
    assert a.stdout == b.stdout


def test_diagram_empty_pattern_header_only(tmp_path):
    pat = tmp_path / "empty.json"
    pat.write_text(json.dumps({"n": 3, "D": 2, "pos": [], "neg": []}))
    r = _run_cli(["--format", "text", "diagram", "--pattern", str(pat)])
    assert r.returncode == 0
    assert r.stdout.count("<circle") == 0
    assert r.stdout.startswith("<svg") and r.stdout.rstrip().endswith("</svg>")


def test_reduce_nonmember_exit_one(tmp_path):
    doc = {"n": 2, "entries": [
        {"alpha": [1, 0], "beta": [1, 0], "re": "1", "im": "0"},
        {"alpha": [0, 1], "beta": [0, 1], "re": "-1", "im": "0"},
    ]}
    herm = tmp_path / "bad.json"
    herm.write_text(json.dumps(doc))
    r = _run_cli(["reduce", "--herm", str(herm)])
    assert r.returncode == 1


def test_diagram_rejects_many_vars(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(
        json.dumps({"n": 4, "terms": [{"exp": [1, 0, 0, 0], "coef": "1"}]})
    )
    r = _run_cli(["diagram", "--poly", str(path)])
    assert r.returncode == 2


def test_check_psi_hermitian_input(tmp_path):
    from members import random_psi1_member
    from psicert.polycore import hermitian_to_json

    herm = tmp_path / "member.json"
    herm.write_text(json.dumps(hermitian_to_json(random_psi1_member(5))))
    r = _run_cli(["check-psi", "--herm", str(herm), "--d", "1"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["member"] is True


def test_malformed_input_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = _run_cli(["check-psi", "--poly", str(bad), "--d", "1"])
    assert r.returncode == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"n": 2, "terms": [{"exp": [1], "coef": "1"}]}))
    r2 = _run_cli(["check-psi", "--poly", str(bad2), "--d", "1"])
    assert r2.returncode == 2


def test_core_value_error_is_internal(tmp_path, monkeypatch):
    from psicert import psi

    herm = tmp_path / "h.json"
    herm.write_text(json.dumps(_HERM_SQUARE))

    def broken(scaled):
        raise ValueError("bug inside the exact core")

    monkeypatch.setattr(psi, "congruence_factorization", broken)
    assert run(["signature", "--herm", str(herm)]) == 3


def test_out_of_range_power_is_usage_error(fig2_file):
    assert run(["check-psi", "--poly", fig2_file, "--d", "-1"]) == 2
    assert run(["min-d", "--poly", fig2_file, "--max-d", "-1"]) == 2
    assert run(["verify-bounds", "--poly", fig2_file, "--d", "0"]) == 2


@pytest.mark.parametrize(
    "flag, value", [("--n", "0"), ("--D", "-1"), ("--budget", "-5")]
)
def test_search_out_of_range_arguments_are_usage_errors(flag, value, capsys):
    argv = {"--n": "2", "--D": "4", "--d": "1", "--strategy": "greedy"}
    argv[flag] = value
    assert run(["search", *(x for kv in argv.items() for x in kv)]) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy", "local"])
def test_search_empty_support_is_usage_error(tmp_path, strategy, capsys):
    support = tmp_path / "empty.json"
    support.write_text(json.dumps({"n": 3, "D": 5, "pos": [], "neg": []}))
    argv = ["search", "--n", "3", "--D", "5", "--d", "1", "--strategy", strategy]
    assert run([*argv, "--support", str(support)]) == 2
    assert "empty support" in capsys.readouterr().err


def test_check_psi_with_multiplier(tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(
        json.dumps({"n": 2, "terms": [
            {"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "-1"}]})
    )
    mult = tmp_path / "s.json"
    mult.write_text(json.dumps({"n": 2, "exps": [[2, 0], [0, 2]]}))
    r = _run_cli(["check-psi", "--poly", str(poly), "--d", "0",
                  "--multiplier", str(mult)])
    assert r.returncode == 1
    assert json.loads(r.stdout)["witness"]["monomial"] == [0, 3]


def test_search_reports_knight_reference():
    r = _run_cli(["search", "--n", "3", "--D", "2", "--d", "2",
                  "--strategy", "greedy"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["knight_move_reference"] == 4


def test_json_outputs_reparse(fig2_file):
    # every JSON document a subcommand prints must parse back
    for args in (
        ["check-psi", "--poly", fig2_file, "--d", "1"],
        ["signature", "--poly", fig2_file],
        ["verify-bounds", "--poly", fig2_file, "--d", "1"],
        ["certificate", "--poly", fig2_file],
    ):
        r = _run_cli(args)
        json.loads(r.stdout)


def test_run_callable_directly(fig2_file):
    assert run(["check-psi", "--poly", fig2_file, "--d", "1"]) == 0
    assert run(["nonsense"]) == 2


def test_zero_denominator_in_input_is_usage_error(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"exp": [1, 0], "coef": "1/0"}]}))
    herm = tmp_path / "h.json"
    herm.write_text(json.dumps({"n": 1, "entries": [
        {"alpha": [1], "beta": [1], "re": "1/0", "im": "0"}]}))
    assert run(["check-psi", "--poly", str(poly), "--d", "1"]) == 2
    assert run(["signature", "--herm", str(herm)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_search_off_lattice_support_is_usage_error(tmp_path, capsys):
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"n": 3, "D": 5, "pos": [[0, 5, 0]], "neg": []}))
    assert run(["search", "--n", "3", "--D", "6", "--d", "1",
                "--support", str(support)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "(0, 5, 0)" in err
    support.write_text(json.dumps({"n": 2, "D": 6, "pos": [[0, 6]], "neg": []}))
    assert run(["search", "--n", "3", "--D", "6", "--d", "1",
                "--support", str(support)]) == 2


def test_signature_and_verify_bounds_agree_on_both_inputs(tmp_path, monkeypatch, capsys):
    from psicert import psi
    from psicert.polycore import hermitian_to_json, real_to_diagonal

    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(poly_to_json(example_fig2())))
    herm = tmp_path / "h.json"
    herm.write_text(json.dumps(hermitian_to_json(real_to_diagonal(example_fig2()))))
    for flag, path in (("--poly", poly), ("--herm", herm)):
        assert run(["signature", flag, str(path)]) == 0
        sig = json.loads(capsys.readouterr().out)
        assert sig == {"n_plus": 7, "n_minus": 6, "rank": 13}
        assert run(["verify-bounds", flag, str(path), "--d", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["n_plus"], doc["n_minus"]) == (3, 7, 6)
    # a diagonal table takes the diagonal route, as check-psi --herm does: no factorization, no dimension cap
    def no_factoring(scaled):
        raise AssertionError("a diagonal table was factored")

    monkeypatch.setenv("PSI_MAX_DIM", "1")
    monkeypatch.setattr(psi, "congruence_factorization", no_factoring)
    assert run(["signature", "--herm", str(herm)]) == 0
    assert json.loads(capsys.readouterr().out) == {"n_plus": 7, "n_minus": 6, "rank": 13}
    assert run(["verify-bounds", "--herm", str(herm), "--d", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["n_plus"], doc["n_minus"]) == (3, 7, 6)
    assert run(["check-psi", "--herm", str(herm), "--d", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True


def test_reduce_takes_the_diagonal_route(tmp_path, monkeypatch, capsys):
    # a diagonal table's signed squares are its own monomials: reduce factors nothing, so the
    # dimension cap does not apply, and it prints what the factoring run printed
    from psicert import reduction
    from psicert.polycore import hermitian_to_json, real_to_diagonal

    herm = _write(tmp_path, "h.json", hermitian_to_json(real_to_diagonal(example_fig2())))
    out = str(tmp_path / "steps.json")
    assert run(["reduce", "--herm", herm, "--out", out]) == 0
    uncapped = capsys.readouterr().out
    assert json.loads(uncapped) == {
        "echelon": True, "n_minus": 6, "n_plus": 7, "out": out, "reconstruction_error": 0, "steps": 0,
    }

    def no_factoring(scaled):
        raise AssertionError("a diagonal table was factored")

    monkeypatch.setenv("PSI_MAX_DIM", "1")
    monkeypatch.setattr(reduction, "congruence_factorization", no_factoring)
    Path(out).unlink()
    assert run(["reduce", "--herm", herm, "--out", out]) == 0
    assert capsys.readouterr().out == uncapped
    assert json.loads(Path(out).read_text()) == {"steps": []}


def test_hermitian_verdicts_build_no_fraction_before_the_witness_value(tmp_path, monkeypatch, capsys):
    # a non-diagonal table with imaginary parts, read from canonical texts, goes from the document
    # to the verdict in ints: the only Fraction built is a printed witness value v* M v, and only
    # a printed witness replays a transform column
    import psicert.inertia
    import psicert.polycore
    from members import random_psi1_member
    from psicert.inertia import CongruenceFactorization
    from psicert.polycore import hermitian_to_json

    r = random_psi1_member(3)
    assert not r.is_diagonal() and any(y for _, y in r.table.values())
    herm = _write(tmp_path, "herm.json", hermitian_to_json(r))
    built = []

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    for module in (psicert.polycore, psicert.inertia):
        monkeypatch.setattr(module, "Fraction", Counting)
    columns = []
    integer_column = CongruenceFactorization.integer_column

    def counting_column(fact, k):
        columns.append(k)
        return integer_column(fact, k)

    monkeypatch.setattr(CongruenceFactorization, "integer_column", counting_column)
    assert run(["signature", "--herm", herm]) == 0
    assert json.loads(capsys.readouterr().out) == {"n_plus": 5, "n_minus": 1, "rank": 6}
    assert built == []
    assert run(["check-psi", "--herm", herm, "--d", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert built == []
    assert columns == []
    assert run(["check-psi", "--herm", herm, "--d", "0"]) == 1
    value = json.loads(capsys.readouterr().out)["witness"]["value"]
    assert [str(Fraction(*args)) for args in built] == [value]
    assert len(columns) == 1
    built.clear()
    columns.clear()
    assert run(["min-d", "--herm", herm, "--max-d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["min_d"] == 1
    # power 0 fails, but min-d prints no witness, so none is built
    assert built == [] and columns == []


# |z1 - z2|^2, not diagonal, and its negative: a member at power 0 and a non-member at every power
_HERM_SQUARE = {
    "n": 2,
    "entries": [
        {"alpha": [0, 1], "beta": [0, 1], "re": "1", "im": "0"},
        {"alpha": [0, 1], "beta": [1, 0], "re": "-1", "im": "0"},
        {"alpha": [1, 0], "beta": [1, 0], "re": "1", "im": "0"},
    ],
}
_HERM_NEGATIVE = {
    "n": 2,
    "entries": [
        {"alpha": [0, 1], "beta": [0, 1], "re": "-1", "im": "0"},
        {"alpha": [0, 1], "beta": [1, 0], "re": "1", "im": "0"},
        {"alpha": [1, 0], "beta": [1, 0], "re": "-1", "im": "0"},
    ],
}
_POLY_DIFF = {"n": 2, "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "-1"}]}


@pytest.mark.parametrize(
    "flag, doc", [("--poly", _POLY_DIFF), ("--herm", _HERM_SQUARE)], ids=["poly", "herm"]
)
@pytest.mark.parametrize(
    "exps, message",
    [
        ([], "nonempty"),
        ([[1, 0, 0]], "arity"),
        ([[-1, 1]], "negative exponent"),
        ([[1, 0], [1, 0]], "repeated"),
    ],
    ids=["empty", "arity", "negative", "repeated"],
)
def test_bad_multiplier_is_usage_error(tmp_path, capsys, flag, doc, exps, message):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    mult = tmp_path / "m.json"
    mult.write_text(json.dumps({"n": 2, "exps": exps}))
    argv = ["check-psi", flag, str(inp), "--d", "0", "--multiplier", str(mult)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, doc", [("--poly", _POLY_DIFF), ("--herm", _HERM_SQUARE)], ids=["poly", "herm"]
)
def test_multiplier_for_another_n_is_usage_error(tmp_path, capsys, flag, doc):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    mult = tmp_path / "m.json"
    mult.write_text(json.dumps({"n": 3, "exps": [[1, 0]]}))
    argv = ["check-psi", flag, str(inp), "--d", "0", "--multiplier", str(mult)]
    assert run(argv) == 2
    assert "multiplier is for n = 3, the input has n = 2" in capsys.readouterr().err


def test_hermitian_multiplier_verdicts(tmp_path, capsys):
    for doc, rc in ((_HERM_SQUARE, 0), (_HERM_NEGATIVE, 1)):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(doc))
        mult = tmp_path / "m.json"
        mult.write_text(json.dumps({"n": 2, "exps": [[1, 0], [0, 2]]}))
        assert run(["check-psi", "--herm", str(inp), "--d", "0", "--multiplier", str(mult)]) == rc
        out = json.loads(capsys.readouterr().out)
        assert out["member"] is (rc == 0)
        if rc:
            assert out["witness"]["kind"] == "negative-direction"


def test_check_psi_reads_no_power_with_a_multiplier(tmp_path, capsys):
    # the multiplier file gives the powers: --d may be left out, 0 still parses, any other power is a usage error
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(_HERM_SQUARE))
    mult = tmp_path / "m.json"
    mult.write_text(json.dumps({"n": 2, "exps": [[1, 0], [0, 2]]}))
    base = ["check-psi", "--herm", str(inp), "--multiplier", str(mult)]
    outs = []
    for extra in ([], ["--d", "0"]):
        assert run([*base, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["member"] is True
    assert run([*base, "--d", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ") and out.err.count("\n") == 1
    assert run(["check-psi", "--herm", str(inp)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "usage error: check-psi needs --d, or a --multiplier file that gives the powers\n"


def test_dimension_cap_on_hermitian_membership(tmp_path, monkeypatch, capsys):
    # the product matrix of a two-variable input has dimension d + 2 at power d
    herm = tmp_path / "neg.json"
    herm.write_text(json.dumps(_HERM_NEGATIVE))
    argv_check = ["check-psi", "--herm", str(herm), "--d", "2"]
    argv_min = ["min-d", "--herm", str(herm), "--max-d", "8"]
    assert run(argv_check) == 1
    assert run(argv_min) == 1
    capsys.readouterr()
    monkeypatch.setenv("PSI_MAX_DIM", "3")
    assert run(["check-psi", "--herm", str(herm), "--d", "1"]) == 1
    for argv in (argv_check, argv_min):
        assert run(argv) == 2
        assert "dimension 4 exceeds cap 3" in capsys.readouterr().err


_WRONG_KIND = [
    ("--poly", _HERM_SQUARE, ["check-psi", "--d", "0"]),
    ("--poly", _HERM_SQUARE, ["min-d"]),
    ("--poly", _HERM_SQUARE, ["signature"]),
    ("--poly", _HERM_SQUARE, ["verify-bounds", "--d", "1"]),
    ("--poly", _HERM_SQUARE, ["certificate"]),
    ("--herm", _POLY_DIFF, ["check-psi", "--d", "0"]),
    ("--herm", _POLY_DIFF, ["min-d"]),
    ("--herm", _POLY_DIFF, ["signature"]),
    ("--herm", _POLY_DIFF, ["reduce"]),
]


@pytest.mark.parametrize(
    "flag, doc, argv", _WRONG_KIND, ids=[f"{flag[2:]}-{argv[0]}" for flag, _, argv in _WRONG_KIND]
)
def test_document_of_the_wrong_kind_is_usage_error(tmp_path, capsys, flag, doc, argv):
    # a missing "terms" / "entries" key used to read as the zero polynomial
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert run([argv[0], flag, str(inp), *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert ("'terms'" if flag == "--poly" else "'entries'") in out.err


def test_zero_mirror_of_a_nonzero_entry_is_usage_error(tmp_path, capsys):
    # [[1, 1], [0, 1]] given entry by entry is not Hermitian; read as |z1 + z2|^2 it printed rank 1
    herm = tmp_path / "zero-mirror.json"
    entries = [([1, 0], [1, 0], "1"), ([0, 1], [0, 1], "1"), ([1, 0], [0, 1], "1"), ([0, 1], [1, 0], "0")]
    herm.write_text(json.dumps({"n": 2, "entries": [{"alpha": a, "beta": b, "re": re} for a, b, re in entries]}))
    for argv in (["signature"], ["check-psi", "--d", "0"], ["reduce"]):
        assert run([argv[0], "--herm", str(herm), *argv[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "not conjugate" in out.err


def test_lines_past_the_bit_cap_are_usage_errors_at_once(tmp_path, capsys):
    # x1^N - x1^(N-1) x2 + x2^N at N = 10**12 would need lines of terabits on the diagonal route
    N = 10**12
    terms = [([N, 0], "1"), ([N - 1, 1], "-1"), ([0, N], "1")]
    poly = tmp_path / "huge.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"exp": a, "coef": c} for a, c in terms]}))
    for argv in (["check-psi", "--d", "1"], ["min-d"], ["certificate"]):
        start = time.perf_counter()
        assert run([argv[0], "--poly", str(poly), *argv[1:]]) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == "" and "bits" in out.err


def test_explicit_empty_documents_are_the_zero_polynomial(tmp_path, capsys):
    for flag, doc in (("--poly", {"n": 2, "terms": []}), ("--herm", {"n": 2, "entries": []})):
        inp = tmp_path / "zero.json"
        inp.write_text(json.dumps(doc))
        assert run(["check-psi", flag, str(inp), "--d", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"d": 0, "member": True}
        assert run(["signature", flag, str(inp)]) == 0
        assert json.loads(capsys.readouterr().out) == {"n_plus": 0, "n_minus": 0, "rank": 0}


def test_dimension_cap_on_signature_and_reduce(tmp_path, monkeypatch, capsys):
    # every exact inertia question goes through the one capped factorization
    herm = tmp_path / "sq.json"
    herm.write_text(json.dumps(_HERM_SQUARE))
    monkeypatch.setenv("PSI_MAX_DIM", "1")
    for argv in (["signature", "--herm", str(herm)], ["reduce", "--herm", str(herm)]):
        assert run(argv) == 2
        assert "dimension 2 exceeds cap 1" in capsys.readouterr().err
    monkeypatch.setenv("PSI_MAX_DIM", "2")
    assert run(["signature", "--herm", str(herm)]) == 0
    assert json.loads(capsys.readouterr().out) == {"n_plus": 1, "n_minus": 0, "rank": 1}


_WRONG_SHAPE = [
    ("--poly", [1, 2], ["check-psi", "--d", "1"]),
    ("--poly", {"n": 2, "terms": {"a": 1}}, ["check-psi", "--d", "1"]),
    ("--herm", [1, 2], ["check-psi", "--d", "1"]),
    ("--herm", {"n": 2, "entries": {"a": 1}}, ["signature"]),
    ("--pattern", [1, 2], ["diagram"]),
    ("--pattern", {"n": 2, "D": 2, "pos": {"a": 1}}, ["diagram"]),
    ("--pattern", {"n": 2, "D": 2, "pos": [1]}, ["diagram"]),
    ("--support", [1, 2], ["search", "--n", "2", "--D", "2", "--d", "1"]),
    # the ratio ceiling needs n >= 2, as `verify-bounds --n 1` does
    ("--poly", {"n": 1, "terms": [{"exp": [2], "coef": "1"}]}, ["verify-bounds", "--d", "1"]),
    ("--herm", {"n": 1, "entries": [{"alpha": [1], "beta": [1], "re": "1"}]}, ["verify-bounds", "--d", "1"]),
]


@pytest.mark.parametrize(
    "flag, doc, argv",
    _WRONG_SHAPE,
    ids=["poly-list", "poly-dict-terms", "herm-list", "herm-dict-entries", "pattern-list",
         "pattern-dict-pos", "pattern-int-point", "support-list", "poly-n-1-bounds", "herm-n-1-bounds"],
)
def test_structurally_wrong_input_is_usage_error(tmp_path, capsys, flag, doc, argv):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert run([argv[0], flag, str(inp), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "internal error" not in err


def test_back_to_back_runs_share_no_state(fig2_file, capsys):
    # the parser is built once; --format text, before or after the subcommand, must not leak
    sig = ["signature", "--poly", fig2_file]
    as_json = '{"n_minus": 6, "n_plus": 7, "rank": 13}\n'
    as_text = "n_minus: 6\nn_plus: 7\nrank: 13\n"
    for argv in (["--format", "text", *sig], [*sig, "--format", "text"]):
        assert run(argv) == 0
        assert capsys.readouterr().out == as_text
        assert run(sig) == 0
        assert capsys.readouterr().out == as_json
    mixed = [
        ["check-psi", "--poly", fig2_file, "--d", "1"],
        ["--format", "text", "verify-bounds", "--poly", fig2_file, "--d", "1"],
        ["min-d", "--poly", fig2_file, "--max-d", "2"],
        ["certificate", "--poly", fig2_file, "--format", "text"],
        sig,
    ]
    for argv in mixed:
        fresh = _run_cli(argv)
        assert run(argv) == fresh.returncode
        assert capsys.readouterr().out == fresh.stdout


def test_format_after_the_command_overrides_one_before_it(fig2_file, capsys):
    sig = ["signature", "--poly", fig2_file]
    assert run(["--format", "text", *sig, "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"n_minus": 6, "n_plus": 7, "rank": 13}\n'
    assert run(["--format", "json", *sig, "--format", "text"]) == 0
    assert capsys.readouterr().out == "n_minus: 6\nn_plus: 7\nrank: 13\n"


_MEMBER_PATTERN = {"n": 2, "D": 2, "pos": [[2, 0], [0, 2]], "neg": [[1, 1]]}
_SEARCH = ["search", "--n", "2", "--D", "2", "--d", "1"]
_NON_INTEGER = [
    ("--poly", {"n": 2, "terms": [{"exp": [1.7, 0], "coef": "1"}]}, ["check-psi", "--d", "0"]),
    ("--poly", {"n": 2, "terms": [{"exp": [1.0, 0], "coef": "1"}]}, ["check-psi", "--d", "0"]),
    ("--poly", {"n": 2, "terms": [{"exp": [True, 0], "coef": "1"}]}, ["signature"]),
    ("--poly", {"n": 2.9, "terms": [{"exp": [1, 0], "coef": "1"}]}, ["check-psi", "--d", "0"]),
    ("--poly", {"n": "2", "terms": [{"exp": [1, 0], "coef": "1"}]}, ["min-d"]),
    ("--herm", {"n": 2, "entries": [{"alpha": [1.0, 0], "beta": [1, 0], "re": "1"}]}, ["signature"]),
    ("--herm", {"n": 2, "entries": [{"alpha": [1, 0], "beta": [1, "0"], "re": "1"}]}, ["min-d"]),
    ("--herm", {"n": True, "entries": [{"alpha": [1], "beta": [1], "re": "1"}]}, ["reduce"]),
    ("--pattern", dict(_MEMBER_PATTERN, n=2.0), ["diagram"]),
    ("--pattern", dict(_MEMBER_PATTERN, D=2.5), ["diagram"]),
    ("--pattern", dict(_MEMBER_PATTERN, pos=[[2, 0], [0, 2.0]]), ["diagram"]),
    ("--pattern", dict(_MEMBER_PATTERN, neg=[[1, True]]), ["diagram"]),
    ("--support", dict(_MEMBER_PATTERN, pos=[[2, 0], [0, 2.0]]), _SEARCH),
]


@pytest.mark.parametrize(
    "flag, doc, argv",
    _NON_INTEGER,
    ids=["poly-exp-float", "poly-exp-integral-float", "poly-exp-bool", "poly-n-float", "poly-n-string",
         "herm-alpha-float", "herm-beta-string", "herm-n-bool", "pattern-n-float", "pattern-D-float",
         "pattern-pos-float", "pattern-neg-bool", "support-float"],
)
def test_non_integer_sizes_and_exponents_are_usage_errors(tmp_path, capsys, flag, doc, argv):
    # JSON integers only: int() used to truncate 1.7 to 1 and 2.9 to 2
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert run([argv[0], flag, str(inp), *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage error" in out.err


@pytest.mark.parametrize(
    "mult",
    [{"n": 2, "exps": [[1.5, 0]]}, {"n": 2, "exps": [[1, 0], [0, True]]}, {"n": 2.0, "exps": [[1, 0]]}],
    ids=["exp-float", "exp-bool", "n-float"],
)
def test_non_integer_multiplier_is_usage_error(tmp_path, capsys, mult):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(_POLY_DIFF))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mult))
    assert run(["check-psi", "--poly", str(inp), "--d", "0", "--multiplier", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage error" in out.err


# -- collector pause, reference cycles and a closed stdout ---------------------


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _one_job_per_command(tmp_path):
    from members import random_psi1_member
    from psicert.patterns import pattern_from_poly, pattern_to_json
    from psicert.polycore import hermitian_to_json

    fig2 = _write(tmp_path, "fig2.json", poly_to_json(example_fig2()))
    lam = _write(tmp_path, "lam.json", poly_to_json(generate_lambda_example(15)))
    herm = _write(tmp_path, "herm.json", hermitian_to_json(random_psi1_member(3)))
    mult = _write(tmp_path, "mult.json", {"n": 3, "exps": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    support = _write(tmp_path, "support.json", pattern_to_json(pattern_from_poly(example_fig2())))
    search = ["search", "--n", "3", "--D", "3", "--d", "1"]
    return [
        ["generate", "pd", "--n", "3", "--D", "12"],
        ["check-psi", "--poly", fig2, "--d", "1"],
        ["check-psi", "--herm", herm, "--d", "0"],
        ["check-psi", "--poly", fig2, "--d", "0", "--multiplier", mult],
        ["min-d", "--poly", lam, "--max-d", "32"],
        ["min-d", "--herm", herm, "--max-d", "2"],
        ["signature", "--herm", herm],
        ["verify-bounds", "--poly", fig2, "--d", "1"],
        ["certificate", "--poly", fig2],
        search,
        ["search", "--n", "3", "--D", "6", "--d", "1", "--support", support],
        [*search, "--strategy", "greedy"],
        [*search, "--strategy", "local", "--seed", "5"],
        [*search, "--strategy", "local", "--budget", "40"],
        ["reduce", "--herm", herm],
        ["diagram", "--poly", fig2, "--style", "ascii"],
    ]


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    # the collector is paused inside run(), so every command must free all it
    # allocates by refcounting alone; gc.collect() finds what would be left
    import gc

    jobs = _one_job_per_command(tmp_path)
    was = gc.isenabled()
    gc.disable()
    try:
        for argv in jobs:
            run(argv)  # first run: imports and caches may build cycles once
        capsys.readouterr()
        gc.collect()
        left = {}
        for argv in jobs:
            assert run(argv) in (0, 1), argv
            capsys.readouterr()
            found = gc.collect()
            if found:
                left[" ".join(argv)] = found
    finally:
        if was:
            gc.enable()
    assert left == {}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, fails, code",
    [
        (["signature", "--poly", "FIG2"], False, 0),
        (["signature", "--poly", ""], False, 2),  # usage error from the command body
        (["signature", "--bogus"], False, 2),  # usage error from argparse
        (["signature", "--poly", "FIG2"], True, 3),  # internal error
    ],
)
def test_run_restores_the_collector(fig2_file, monkeypatch, capsys, enabled, argv, fails, code):
    import gc

    from psicert import cli

    seen = []
    command = cli._COMMANDS["signature"]

    def watched(args):
        seen.append(gc.isenabled())
        if fails:
            raise RuntimeError("bug inside a command")
        return command(args)

    monkeypatch.setitem(cli._COMMANDS, "signature", watched)
    argv = [fig2_file if a == "FIG2" else a for a in argv]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == ([] if "--bogus" in argv else [False])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "pd", "--n", "3", "--D", "40"],  # larger than the buffer: print raises
        ["generate", "fig2"],  # buffered until main flushes stdout
    ],
)
def test_closed_stdout_exits_quietly(argv):
    # nobody reads the pipe: every write to stdout fails with EPIPE
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "psicert", *argv], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert r.returncode == 141
    assert r.stderr == b""


# each reading flag and --out, given a directory or an empty path: "usage error", never "internal error",
# and an empty path is never taken for a flag left out
_DIRECTORY_PATHS = [
    ["check-psi", "--poly", "{dir}", "--d", "1"],
    ["certificate", "--poly", "{dir}"],
    ["signature", "--herm", "{dir}"],
    ["check-psi", "--poly", "{fig2}", "--d", "0", "--multiplier", "{dir}"],
    ["search", "--n", "3", "--D", "2", "--d", "1", "--support", "{dir}"],
    ["diagram", "--pattern", "{dir}"],
    ["generate", "pd", "--n", "3", "--D", "4", "--out", "{dir}"],
    ["reduce", "--herm", "{herm}", "--out", "{dir}"],
    ["diagram", "--poly", "{fig2}", "--out", "{dir}"],
    ["generate", "pd", "--n", "3", "--D", "4", "--out", "{dir}/missing/x.json"],
    ["check-psi", "--poly", "{fig2}", "--d", "0", "--multiplier", ""],
    ["search", "--n", "3", "--D", "2", "--d", "1", "--support", ""],
    ["generate", "pd", "--n", "3", "--D", "4", "--out", ""],
    ["reduce", "--herm", "{herm}", "--out", ""],
    ["diagram", "--poly", "{fig2}", "--out", ""],
]


@pytest.mark.parametrize(
    "argv", _DIRECTORY_PATHS, ids=[" ".join(a[:1] + a[-2:-1] + ['""'] * (a[-1] == "")) for a in _DIRECTORY_PATHS]
)
def test_path_that_cannot_be_opened_is_usage_error(tmp_path, fig2_file, capsys, argv):
    from members import random_psi1_member
    from psicert.polycore import hermitian_to_json

    herm = tmp_path / "member.json"
    herm.write_text(json.dumps(hermitian_to_json(random_psi1_member(3))))
    paths = {"dir": str(tmp_path), "fig2": fig2_file, "herm": str(herm)}
    assert run([arg.format(**paths) for arg in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ") and "Error(" in out.err


# -- two input files, and the one-level dispatch -------------------------------


_CONFLICTS = {
    "check-psi": ["check-psi", "--poly", "{fig2}", "--herm", "{herm}", "--d", "1"],
    "min-d": ["min-d", "--herm", "{herm}", "--poly", "{fig2}", "--max-d", "2"],
    "signature": ["signature", "--poly", "{fig2}", "--herm", "{herm}"],
    "verify-bounds": ["verify-bounds", "--poly", "{fig2}", "--d", "1", "--herm", "{herm}"],
    "diagram": ["diagram", "--poly", "{fig2}", "--pattern", "{pattern}", "--style", "ascii"],
}


def _input_files(tmp_path):
    from members import random_psi1_member
    from psicert.polycore import hermitian_to_json

    return {
        "fig2": _write(tmp_path, "fig2.json", poly_to_json(example_fig2())),
        "herm": _write(tmp_path, "herm.json", hermitian_to_json(random_psi1_member(3))),
        "pattern": _write(tmp_path, "pattern.json", _MEMBER_PATTERN),
        "tmp": str(tmp_path),
    }


@pytest.mark.parametrize("argv", list(_CONFLICTS.values()), ids=list(_CONFLICTS))
def test_two_input_files_are_a_usage_error(tmp_path, capsys, argv):
    # the second file used to be dropped without a word (diagram drew --pattern)
    argv = [a.format(**_input_files(tmp_path)) for a in argv]
    assert run(argv) == 2
    out = capsys.readouterr()
    first, second = [a for a in argv if a in ("--poly", "--herm", "--pattern")]
    assert out.out == ""
    assert f"{argv[0]}: error: argument {second}: not allowed with argument {first}\n" in out.err


_SEARCH_D4 = ["search", "--n", "2", "--D", "4", "--d", "1"]
_DISPATCH_CORPUS = [
    ["search", "--n=2", "--D=4", "--d=1", "--strategy=greedy"],
    [*_SEARCH_D4, "--strat", "local"],
    [*_SEARCH_D4, "--strategy", "local", "--seed", "-3"],
    ["--format", "text", "signature", "--poly", "{fig2}"],
    ["signature", "--poly", "{fig2}", "--format", "text"],
    ["--format=text", "search", "--n", "3", "--D", "3", "--d", "1", "--form", "json"],
    ["generate", "fig2", "--out", "{tmp}/out.json"],
    ["search", "-h"],
    ["-h"],
    ["--format", "text"],
    ["frobnicate", "--poly", "{fig2}"],
    [],
    ["check-psi", "--poly", "{fig2}"],
    [*_SEARCH_D4, "--strategy", "annealing"],
    ["signature", "--poly", "{fig2}", "extra"],
    ["signature", "--poly", "{fig2}", "--bogus"],
    ["signature", "--", "--poly", "{fig2}"],
    ["generate", "--", "pd", "--n", "3", "--D", "4"],
    ["generate", "pd", "--n", "3", "--D", "4", "--k", "7"],
    ["generate", "inductive", "--n", "3", "--d", "2"],
    ["check-psi", "--d", "1"],
    ["min-d", "--max-d", "2"],
    ["signature"],
    ["verify-bounds", "--d", "1"],
    ["diagram", "--style", "ascii"],
    *_CONFLICTS.values(),
]


def test_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    # run() hands an argv that starts with a command to that command's parser;
    # with the map emptied every argv takes the two-level path through the
    # top-level parser, and the two must not differ in any byte
    from psicert import cli

    files = _input_files(tmp_path)
    corpus = _one_job_per_command(tmp_path) + [[a.format(**files) for a in argv] for argv in _DISPATCH_CORPUS]
    out_file = tmp_path / "out.json"

    def outcome(argv):
        code = run(argv)
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, *capsys.readouterr(), written

    one_level = [outcome(argv) for argv in corpus]
    monkeypatch.setattr(cli, "_SUBPARSERS", {})
    assert [outcome(argv) for argv in corpus] == one_level
    # the corpus reaches every command and every kind of exit
    assert {argv[0] for argv in corpus if argv} >= set(cli._COMMANDS)
    assert {code for code, *_ in one_level} == {0, 1, 2}
