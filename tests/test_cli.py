import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opslab
from opslab import (
    cli,
    gen,
    is_mc_isometric,
    metric,
    minv,
    operator_norm,
    suites,
)
from opslab.cli import main, parse_complex
from opslab.conj import entrywise_conjugation
from opslab.gen import gen_jordan, gen_left_m_pair, gen_similar_isometry, haar_unitary
from opslab.matcore import dump_json, matrix_from_json_dict


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors, read as perfbench's call_cli reads them
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    Path(path).write_text(dump_json(np.asarray(m, dtype=complex)))
    return str(path)


def test_parse_complex_literals():
    assert parse_complex("1+0i") == 1.0
    assert parse_complex("0.5-2i") == 0.5 - 2j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2") == 2.0
    with pytest.raises(Exception):
        parse_complex("1 + 2i")


def test_check_m_isometry_jordan(tmp_path, capsys):
    j2 = write_matrix(tmp_path / "j2.json", [[1, 1], [0, 1]])
    code, out, _ = run(capsys, "check", "m-isometry", "--s", j2, "--m", "3")
    assert code == 0
    assert "PASS" in out

    code, out, _ = run(capsys, "check", "m-isometry", "--s", j2, "--m", "2")
    assert code == 1
    assert "FAIL" in out


def test_check_identity_is_1_isometry(tmp_path, capsys):
    eye = write_matrix(tmp_path / "eye.json", np.eye(2))
    code, out, _ = run(capsys, "check", "m-isometry", "--s", eye, "--m", "1")
    assert code == 0


def test_check_power_bounded_jordan_fails_with_witness(tmp_path, capsys):
    j2 = write_matrix(tmp_path / "j2.json", [[1, 1], [0, 1]])
    code, out, _ = run(capsys, "check", "power-bounded", "--s", j2, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdicts"]["power-bounded"]["pass"] is False
    assert "semisimple" in payload["artifacts"]["report"]["witness"]["reason"]


def test_check_power_bounded_text_mode_skips_witness(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_norm(m):
        calls.append(1)
        return operator_norm(m)

    monkeypatch.setattr(metric, "operator_norm", counting_norm)
    eye = write_matrix(tmp_path / "eye.json", np.eye(8))
    code, out, _ = run(capsys, "check", "power-bounded", "--s", eye)
    assert code == 0
    assert "verdict power-bounded: PASS" in out
    assert len(calls) <= 1
    code, out, _ = run(capsys, "check", "power-bounded", "--s", eye, "--json")
    report = json.loads(out)["artifacts"]["report"]
    assert report["m1_estimate"] == 1.0
    assert report["horizon"] == 64


def test_check_power_bounded_overflowing_witness(tmp_path, capsys):
    big = write_matrix(tmp_path / "big.json", np.diag([1e6, 0.5]))
    code, out, _ = run(capsys, "check", "power-bounded", "--s", big)
    assert code == 1
    assert "verdict power-bounded: FAIL" in out
    assert "spectral radius exceeds 1" in out

    code, out, _ = run(capsys, "check", "power-bounded", "--s", big, "--json")
    assert code == 1
    payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert payload["artifacts"]["report"]["m1_estimate"] is None
    assert payload["artifacts"]["report"]["witness"]["reason"] == "spectral radius exceeds 1"


def test_check_power_bounded_rejects_zero_horizon(tmp_path, capsys):
    eye = write_matrix(tmp_path / "eye.json", np.eye(2))
    code, _, err = run(capsys, "check", "power-bounded", "--s", eye, "--horizon", "0")
    assert code == 2
    assert "horizon" in err


def test_check_power_bounded_takes_horizons_up_to_32768(tmp_path, capsys):
    # The witness keeps 8 bytes a power, 256 KiB at the largest horizon; a
    # larger one is refused before anything is allocated.
    s = write_matrix(tmp_path / "s.json", gen.gen_power_bounded(3, 0))
    code, out, _ = run(capsys, "check", "power-bounded", "--s", s, "--json", "--horizon", "32768")
    assert code == 0
    assert json.loads(out)["artifacts"]["report"]["horizon"] == 32768
    for horizon in ("32769", "1000000000000"):
        code, out, err = run(capsys, "check", "power-bounded", "--s", s, "--json", "--horizon", horizon)
        assert (code, out) == (2, "")
        assert err == f"error: horizon must be in [1, 32768], got {horizon}\n"


def test_check_left_m_inverse(tmp_path, capsys):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    s = write_matrix(tmp_path / "u.json", q)
    t = write_matrix(tmp_path / "ustar.json", q.conj().T)
    code, out, _ = run(capsys, "check", "left-m-inverse", "--s", s, "--t", t, "--m", "1")
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 21: check left-m-inverse --m 4 passes the delta = 1e-3 close-phase pair (residual "
    "1.000e-09, exit 0) that solve similarity refuses with ||T S - I||_F = 1.000e+00",
)
def test_check_left_m_inverse_refuses_the_pair_that_solve_similarity_refuses(tmp_path, capsys):
    s, t = gen.gen_close_phase_pair(1e-3)
    pair = ["--s", write_matrix(tmp_path / "s.json", s), "--t", write_matrix(tmp_path / "t.json", t), "--m", "4"]
    code, _, err = run(capsys, "solve", "similarity", *pair)
    assert code == 1 and "(||T S - I||_F = 1.000e+00)" in err
    code, out, _ = run(capsys, "check", "left-m-inverse", *pair)
    assert code == 1, out


def test_check_requires_m(tmp_path, capsys):
    eye = write_matrix(tmp_path / "eye.json", np.eye(2))
    code, _, err = run(capsys, "check", "m-isometry", "--s", eye)
    assert code == 2
    assert "--m" in err


def test_check_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    code, _, err = run(capsys, "check", "m-isometry", "--s", str(bad), "--m", "1")
    assert code == 2
    assert "data length" in err


@pytest.mark.parametrize("sizes", ['"rows": true, "cols": true', '"rows": 1, "cols": 1.0'])
def test_check_refuses_sizes_that_are_not_integers(tmp_path, capsys, sizes):
    # JSON true parses to a Python bool, an int subclass; it is refused like 1.0.
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{{sizes}, "data": [[1, 0]]}}')
    code, out, err = run(capsys, "check", "power-bounded", "--s", str(bad))
    assert (code, out, err) == (2, "", "error: S: rows/cols must be positive integers\n")


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "m-isometry", "--s", str(tmp_path / "nope.json"), "--m", "1")
    assert code == 2


# A value each operand parses; argparse refuses before any file is read.
VALUES = {"--m": ["2"], "--n": ["3"], "--k": ["2"], "--lambda": ["1"], "--horizon": ["8"], "--hyperbolic": []}
# The flags every kind of a command takes besides its operands.
COMMON = {
    "check": {"--help", "--abs-tol", "--rel-tol", "--json"},
    "solve": {"--help", "--abs-tol", "--rel-tol", "--json"},
    "generate": {"--help", "--count", "--out", "--seed", "--json"},
}
KIND_ROWS = [(command, kind, *operands) for command, kinds in cli.KINDS.items() for kind, operands in kinds.items()]
# Operands a command's kinds no longer take: a script that still passes one is refused, not ignored.
RETIRED = {"solve": {"--p"}, "generate": {"--m"}}


def operands(command, flags):
    values = {**VALUES, "--t": ["1.5"]} if command == "generate" else VALUES
    return [x for flag in flags for x in [flag, *values.get(flag, ["x.json"])]]


def foreign(command, required, optional):
    """The flags other kinds of the command take, or its kinds took, and this kind does not."""
    taken = {flag for req, opt in cli.KINDS[command].values() for flag in (*req, *opt)} | RETIRED.get(command, set())
    return sorted(taken - set(required) - set(optional))


@pytest.mark.parametrize(
    "command, kind, flag",
    [(c, k, flag) for c, k, required, _ in KIND_ROWS for flag in required],
)
def test_each_missing_required_operand_is_a_usage_error(capsys, command, kind, flag):
    required = cli.KINDS[command][kind][0]
    code, out, err = run(capsys, command, kind, *operands(command, [f for f in required if f != flag]))
    assert (code, out) == (2, "")
    assert f"the following arguments are required: {flag}" in err


@pytest.mark.parametrize(
    "command, kind, flag",
    [(c, k, flag) for c, k, required, optional in KIND_ROWS for flag in foreign(c, required, optional)],
)
def test_each_foreign_operand_is_a_usage_error(capsys, command, kind, flag):
    # A flag only another kind reads would otherwise be accepted and ignored.
    required = cli.KINDS[command][kind][0]
    code, out, err = run(capsys, command, kind, *operands(command, [*required, flag]))
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["suite", "thm24", "--dim", "3"], "unrecognized arguments: --dim 3"),  # not --dim-max
        (["solve", "invariant-metric", "--s", "x.json", "--a", "0.5"], "unrecognized arguments: --a 0.5"),
        (["check", "power-bounded", "--s", "x.json", "--hor", "8"], "unrecognized arguments: --hor 8"),
        (["check", "--s", "x.json", "power-bounded"], "invalid choice: 'x.json'"),  # operands follow the kind
        (["check", "--json", "power-bounded", "--s", "x.json"], "unrecognized arguments: --json"),
    ],
)
def test_abbreviated_and_misplaced_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "kind, flag", [("jordan", "--k"), ("left-m-pair", "--n"), ("left-m-inverse", "--m"), ("power-bounded", "--count")]
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sizes_below_one_are_usage_errors(capsys, kind, flag, value):
    command = "check" if kind == "left-m-inverse" else "generate"
    sizes = {**dict.fromkeys(cli.KINDS[command][kind][0], "2"), flag: value}
    argv = [x for item in sizes.items() for x in item]
    code, out, err = run(capsys, command, kind, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be >= 1, got {value}" in err


@pytest.mark.parametrize(
    "argv, operand, given, default",
    [
        (["check", "power-bounded", "--s", "s.json"], ["--horizon", "8"], 8, 64),
        (["solve", "similarity", "--s", "s.json", "--t", "t.json"], ["--m", "3"], 3, 1),
        (["solve", "similarity", "--s", "s.json", "--t", "t.json"], ["--m", str(2**63 - 1)], 2**63 - 1, 1),
        (["solve", "canonical-inverse", "--s", "s.json"], ["--m", "3"], 3, 1),
        (["generate", "one-c-isometry", "--n", "2"], ["--hyperbolic"], True, False),
        (["generate", "one-c-isometry", "--n", "2"], ["--t", "2.5"], 2.5, 1.0),
    ],
)
def test_optional_operands_parse_and_default(argv, operand, given, default):
    dest = operand[0].lstrip("-")
    parser = cli.build_parser()
    assert getattr(parser.parse_args(argv + operand), dest) == given
    assert getattr(parser.parse_args(argv), dest) == default


@pytest.mark.parametrize("command, kind, required, optional", KIND_ROWS)
def test_each_kinds_help_lists_exactly_its_operands(capsys, command, kind, required, optional):
    code, out, _ = run(capsys, command, kind, "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z][\w-]*", out)) == {*required, *optional} | COMMON[command]


def test_check_mc_isometry(tmp_path, capsys):
    rot = write_matrix(tmp_path / "rot.json", [[0.0, -1.0], [1.0, 0.0]])
    conj_path = tmp_path / "conj.json"
    conj_path.write_text(dump_json({"J": np.eye(2, dtype=complex)}))
    code, out, _ = run(
        capsys, "check", "mc-isometry", "--s", rot, "--conj", str(conj_path), "--m", "1"
    )
    assert code == 0


def test_check_mc_isometry_takes_one_recursion_pass(tmp_path, capsys, monkeypatch):
    s = np.eye(3, dtype=complex)
    s_path = write_matrix(tmp_path / "s.json", s)
    conj_path = tmp_path / "conj.json"
    conj_path.write_text(dump_json({"J": np.eye(3, dtype=complex)}))
    calls = []
    defects = minv._defects  # the one pass of the defect recursion
    monkeypatch.setattr(minv, "_defects", lambda *a: calls.append(1) or defects(*a))
    argv = ["check", "mc-isometry", "--s", s_path, "--conj", str(conj_path), "--m", "3", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    # The report of one is_mc_isometric call per order, as two passes gave it.
    c = entrywise_conjugation(3)
    passed, residual = is_mc_isometric(s, c, 3)
    expected = {
        "command": "check mc-isometry",
        "tolerances": {"abs_tol": 1e-10, "rel_tol": 1e-8},
        "seed": None,
        "verdicts": {"mc-isometry": {"pass": passed, "residual": residual}},
        "artifacts": {"one_c_isometric": is_mc_isometric(s, c, 1)[0]},
        "exit_code": 0,
    }
    assert out == dump_json(expected) + "\n"
    assert '"tolerances":{"abs_tol":1e-10,"rel_tol":1e-8}' in out


@pytest.mark.parametrize(
    "conj, m, message",
    [
        ("[]", "1", 'error: conjugation JSON must be an object with a "J" field'),
        ('{"K": 1}', "1", 'error: conjugation JSON must be an object with a "J" field'),
        (dump_json({"J": np.eye(2, dtype=complex)}), "1",
         "error: S must match the conjugation dimension 2, got (3, 3)"),
        (dump_json({"J": np.eye(3, dtype=complex)}), "two",
         "argument --m: invalid int value: 'two'"),
    ],
)
def test_check_mc_isometry_refuses_operands_that_do_not_fit(tmp_path, capsys, conj, m, message):
    s_path = write_matrix(tmp_path / "s.json", np.eye(3))
    conj_path = tmp_path / "conj.json"
    conj_path.write_text(conj)
    code, out, err = run(capsys, "check", "mc-isometry", "--s", s_path, "--conj", str(conj_path), "--m", m)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("operand", ["--s", "--t", "--conj"])
@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
def test_check_reports_an_unreadable_input_file(tmp_path, capsys, operand, unreadable):
    bad = tmp_path / "bad.json"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe")
    good = write_matrix(tmp_path / "eye.json", np.eye(2))
    conj_path = tmp_path / "conj.json"
    conj_path.write_text(dump_json({"J": np.eye(2, dtype=complex)}))
    kind, operands = {
        "--s": ("power-bounded", {"--s": good}),
        "--t": ("left-m-inverse", {"--s": good, "--t": good, "--m": "1"}),
        "--conj": ("mc-isometry", {"--s": good, "--conj": str(conj_path), "--m": "1"}),
    }[operand]
    operands[operand] = str(bad)
    code, out, err = run(capsys, "check", kind, *[x for pair in operands.items() for x in pair])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if unreadable == "not-utf8":
        name = {"--s": "S", "--t": "T", "--conj": "conjugation file"}[operand]
        assert err.startswith(f"error: {name}: not UTF-8 text")


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "Infinity", "1e400", "-1" + "0" * 400])
def test_check_refuses_a_non_finite_literal_as_invalid_json(tmp_path, capsys, literal):
    s_path = tmp_path / "s.json"
    s_path.write_text(f'{{"rows": 1, "cols": 1, "data": [[{literal}, 0.0]]}}')
    code, out, err = run(capsys, "check", "power-bounded", "--s", str(s_path), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: S: invalid JSON (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "left-m-pair", "--n", str(2**70)],
        ["generate", "jordan", "--k", "2", "--lambda", "1", "--seed", str(2**63)],
        ["suite", "thm24", "--count", "1", "--seed", str(-(2**63) - 1)],
        ["check", "power-bounded", "--s", "s.json", "--horizon", str(2**64)],
    ],
)
def test_integer_flags_beyond_64_bits_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--json"])
    assert info.value.code == 2
    assert "is outside [-2**63, 2**63)" in capsys.readouterr().err


def test_generate_text_report_prints_the_metadata_as_compact_json(capsys):
    code, out, _ = run(capsys, "generate", "jordan", "--k", "2", "--lambda", "1+0.5i")
    assert code == 0
    assert 'metadata: {"generator":"jordan","parameters":{"k":2,"lambda":[1.0,0.5]},"seed":0}\n' in out


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    j3 = write_matrix(tmp_path / "j3.json", gen_jordan(3, 1.0))
    s_path = write_matrix(tmp_path / "s.json", gen_left_m_pair(4, seed=3)[0])
    sequence = [
        ["check", "no-such-kind", "--s", j3],  # usage error
        ["check", "m-isometry", "--s", j3, "--m", "3", "--json"],
        ["solve", "canonical-inverse", "--s", s_path],  # m = 1 by default
        ["check", "power-bounded", "--s", j3, "--json"],
        ["check", "power-bounded", "--s", j3],  # text mode after --json
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert fresh[0][0] == 2 and fresh[1][0] == 1 and fresh[2][0] == 0

    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        if kwargs.get("prog") == "opslab":
            built.append(self)
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    assert [outcome(argv) for argv in sequence] == fresh
    assert len(built) == 1
    assert cli._parser().parse_args(["solve", "canonical-inverse", "--s", s_path]).m == 1


def test_solve_invariant_metric_on_generated_instance(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    code, _, _ = run(
        capsys, "generate", "similar-isometry", "--n", "4", "--seed", "7",
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    s_path = tmp_path / "s.json"
    s_path.write_text(json.dumps(payload["S"]))
    code, out, _ = run(capsys, "solve", "invariant-metric", "--s", str(s_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["metric"]["pass"]
    assert set(report["verdicts"]) == {"metric", "similarity"}
    assert "P" in report["artifacts"]["certificate"]
    # The verdicts carry the residuals the certificate checked.
    residuals = report["artifacts"]["certificate"]["residuals"]
    assert {name: v["residual"] for name, v in report["verdicts"].items()} == residuals


def test_cli_makes_no_tolerance_decision():
    # Every residual a command reports was judged by the library call that
    # computed it; the CLI compares nothing against a threshold.
    tree = ast.parse(Path(cli.__file__).read_text())
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "zero_threshold"]
    assert uses == []


def test_solve_invariant_metric_decaying_fails(tmp_path, capsys):
    half = write_matrix(tmp_path / "half.json", [[0.5]])
    code, _, err = run(capsys, "solve", "invariant-metric", "--s", half)
    assert code == 1
    assert "zero" in err or "positive definite" in err


def test_solve_douglas_refuses_at_the_tolerance_edge(tmp_path, capsys):
    # ||BC - A||_F = 1.2e-8 exceeds 1e-10 + 1e-8 * max(||A||_F, ||B||_F).
    a_path = write_matrix(tmp_path / "a.json", np.diag([1.0, 1.2e-8]))
    b_path = write_matrix(tmp_path / "b.json", np.diag([1.0, 0.0]))
    code, _, err = run(capsys, "solve", "douglas", "--a", a_path, "--b", b_path)
    assert code == 1
    assert err.startswith("error: ran(A) is not contained in ran(B)")


def test_solve_douglas_projection(tmp_path, capsys):
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    a_path = write_matrix(tmp_path / "a.json", b)
    b_path = write_matrix(tmp_path / "b.json", b)
    code, out, _ = run(
        capsys, "solve", "douglas", "--a", a_path, "--b", b_path, "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["artifacts"]["mu2"] == pytest.approx(1.0, abs=1e-8)
    c = matrix_from_json_dict(report["artifacts"]["C"])
    np.testing.assert_allclose(c, b, atol=1e-10)


def test_solve_douglas_reports_the_residual_the_factor_was_checked_by(tmp_path, capsys):
    a, b, _ = suites._douglas_instance(np.random.default_rng(3), 6)
    a_path = write_matrix(tmp_path / "a.json", a)
    b_path = write_matrix(tmp_path / "b.json", b)
    code, out, _ = run(capsys, "solve", "douglas", "--a", a_path, "--b", b_path, "--json")
    assert code == 0
    assert json.loads(out)["verdicts"]["douglas"] == {"pass": True, "residual": metric.douglas_factor(a, b)[2]}


def test_solve_canonical_inverse(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    run(capsys, "generate", "similar-isometry", "--n", "3", "--seed", "5",
        "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    s_path = tmp_path / "s.json"
    s_path.write_text(json.dumps(payload["S"]))
    code, out, _ = run(
        capsys, "solve", "canonical-inverse", "--s", str(s_path), "--m", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["canonical-inverse"]["pass"]


def test_solve_similarity(tmp_path, capsys):
    out_file = tmp_path / "pair.json"
    run(capsys, "generate", "left-m-pair", "--n", "3", "--seed", "11",
        "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(json.dumps(payload["S"]))
    t_path.write_text(json.dumps(payload["T"]))
    code, out, _ = run(
        capsys, "solve", "similarity", "--s", str(s_path), "--t", str(t_path),
        "--m", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["unitary-models"]["pass"]


def test_solve_canonical_inverse_evaluates_the_defect_once(tmp_path, capsys, monkeypatch):
    s_path = write_matrix(tmp_path / "s.json", gen_left_m_pair(4, seed=3)[0])
    calls = []
    defects = minv._defects  # the one pass of the defect recursion
    monkeypatch.setattr(minv, "_defects", lambda *a: calls.append(1) or defects(*a))
    code, out, _ = run(capsys, "solve", "canonical-inverse", "--s", s_path, "--m", "2", "--json")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["verdicts"]["canonical-inverse"]["pass"]


def test_solve_canonical_inverse_certifies_once(tmp_path, capsys, monkeypatch):
    s, _ = gen_left_m_pair(4, seed=3)
    calls = []
    certify = metric.certify_power_bounded
    monkeypatch.setattr(metric, "certify_power_bounded", lambda *a, **k: calls.append(1) or certify(*a, **k))
    code, out, _ = run(
        capsys, "solve", "canonical-inverse", "--s", write_matrix(tmp_path / "s.json", s), "--m", "2", "--json"
    )
    assert code == 0
    assert len(calls) == 1  # S; T = P^-1 V* P is power bounded by construction
    # T is the canonical inverse P^-2 S* P^2, which is S^-1: one LU inverse of S.
    assert np.array_equal(matrix_from_json_dict(json.loads(out)["artifacts"]["T"]), np.linalg.inv(s))


def test_solve_canonical_inverse_gives_one_t_for_every_m(tmp_path, capsys):
    # A coupled unimodular pair at d = 1e-4, cond(P) ~ 2e4, where T S = I
    # holds every order's defect at 0: every m gives the same T = S^-1.
    rng = np.random.default_rng(5)
    q = haar_unitary(4, rng)
    block = np.diag(np.exp(2j * np.pi * np.r_[0.0, 0.0, rng.random(2)]))
    block[:2, :2] = [[1.0, 1.0], [0.0, np.exp(1e-4j)]]
    s_path = write_matrix(tmp_path / "s.json", q @ block @ q.conj().T)
    outs = {}
    for m in ("1", "2", "3"):
        code, outs[m], _ = run(capsys, "solve", "canonical-inverse", "--s", s_path, "--m", m, "--json")
        assert code == 0
    assert outs["1"] == outs["2"] == outs["3"]
    assert json.loads(outs["2"])["verdicts"]["canonical-inverse"]["residual"] < 1e-14


def test_solve_similarity_gives_one_verdict_for_every_m(tmp_path, capsys):
    # S = P0^-1 V P0 at cond(P0) = 1e4, whose exact pair (S, S^-1) misses
    # the order-2 defect threshold by rounding: T S = I decides every m
    # alike, so --m 1, 2 and 3 print the same bytes, and the same refusal
    # when T is (1 + 1e-6) S^-1.
    s, _ = gen.gen_conditioned_similarity(4, np.random.default_rng(0), 1e4)
    assert not minv.is_left_m_inverse(s, np.linalg.inv(s), 2)[0]
    s_path = write_matrix(tmp_path / "s.json", s)
    for t, expected in ((np.linalg.inv(s), 0), ((1 + 1e-6) * np.linalg.inv(s), 1)):
        t_path = write_matrix(tmp_path / "t.json", t)
        outs = set()
        for m in ("1", "2", "3"):
            argv = ["solve", "similarity", "--s", s_path, "--t", t_path, "--m", m, "--json"]
            code, out, err = run(capsys, *argv)
            assert code == expected
            outs.add((out, err))
        assert len(outs) == 1
        out, err = outs.pop()
        assert bool(out) == (expected == 0)
        assert err.startswith("error: ") if expected else err == ""


def test_solve_similarity_reports_the_solver_residual(tmp_path, capsys, monkeypatch):
    s, t = gen_left_m_pair(3, seed=11)
    solve = metric.similar_to_unitary
    monkeypatch.setattr(metric, "similar_to_unitary", lambda *a: (*solve(*a)[:3], 0.125))
    code, out, _ = run(
        capsys, "solve", "similarity", "--s", write_matrix(tmp_path / "s.json", s),
        "--t", write_matrix(tmp_path / "t.json", t), "--m", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["unitary-models"]["residual"] == 0.125


def test_solve_similarity_certifies_each_operator_once(tmp_path, capsys, monkeypatch):
    s, t = gen_left_m_pair(4, seed=3)
    calls = []
    certify = metric.certify_power_bounded
    monkeypatch.setattr(metric, "certify_power_bounded", lambda *a, **k: calls.append(1) or certify(*a, **k))
    code, _, _ = run(
        capsys, "solve", "similarity", "--s", write_matrix(tmp_path / "s.json", s),
        "--t", write_matrix(tmp_path / "t.json", t), "--m", "2", "--json",
    )
    assert code == 0
    assert len(calls) == 1  # S; its certificate also decides T* (T = S^-1)


def _near_tolerance_pairs():
    """(S, T) whose order-2 defect passes only within tolerance and whose T fails T S = I.

    T = diag(e^(i d), 1) against S = I, and T = inv(S) with its eigenphases
    rotated by e N(0, 1) against S = gen_similar_isometry(4, 3).
    """
    for delta in (1e-4, 1e-5, 1e-6):
        yield np.eye(2, dtype=complex), np.diag([np.exp(1j * delta), 1.0])
    s, _, _ = gen_similar_isometry(4, 3)
    rng = np.random.default_rng(0)
    for eps in (1e-5, 1e-6):
        w, x = np.linalg.eig(np.linalg.inv(s))
        yield s, x @ np.diag(w * np.exp(1j * eps * rng.standard_normal(4))) @ np.linalg.inv(x)


def test_a_near_tolerance_pair_is_refused_as_not_an_inverse(tmp_path, capsys):
    # Each passes the order-2 defect check only within tolerance, and fails
    # T S = I, so T is not S^-1 within tolerance: a refusal and not an
    # internal error, whatever the order.
    for s, t in _near_tolerance_pairs():
        with pytest.raises(opslab.AssumptionError, match="not S\\^-1.*T S - I"):
            metric.similar_to_unitary(metric.similarity_certificate(s), t)
        code, _, err = run(
            capsys, "solve", "similarity", "--s", write_matrix(tmp_path / "s.json", s),
            "--t", write_matrix(tmp_path / "t.json", t), "--m", "2",
        )
        assert code == 1
        assert err.startswith("error: ") and "internal check failed" not in err


@pytest.mark.parametrize("kind", ["invariant-metric", "similarity"])
def test_solve_at_n64(tmp_path, capsys, kind):
    s, t = gen_left_m_pair(64, seed=1)  # S from gen_similar_isometry(64, 1)
    argv = ["solve", kind, "--s", write_matrix(tmp_path / "s.json", s), "--json"]
    if kind == "similarity":
        argv += ["--t", write_matrix(tmp_path / "t.json", t), "--m", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts and all(entry["pass"] for entry in verdicts.values())


def test_generate_jordan_matches_library(tmp_path, capsys):
    out_file = tmp_path / "j.json"
    code, _, _ = run(
        capsys, "generate", "jordan", "--k", "2", "--lambda", "1+0i",
        "--out", str(out_file),
    )
    assert code == 0
    written = matrix_from_json_dict(json.loads(out_file.read_text()))
    assert np.array_equal(written, gen_jordan(2, 1.0))


def test_generate_roundtrip_bit_identical(tmp_path, capsys):
    out_file = tmp_path / "pb.json"
    run(capsys, "generate", "power-bounded", "--n", "4", "--seed", "3",
        "--out", str(out_file))
    first = matrix_from_json_dict(json.loads(out_file.read_text()))
    run(capsys, "generate", "power-bounded", "--n", "4", "--seed", "3",
        "--out", str(out_file))
    second = matrix_from_json_dict(json.loads(out_file.read_text()))
    assert np.array_equal(first, second)


def test_generate_power_bounded_at_n_256(tmp_path, capsys):
    out_file = tmp_path / "s.json"
    code, _, err = run(capsys, "generate", "power-bounded", "--n", "256", "--seed", "2", "--out", str(out_file))
    assert (code, err) == (0, "")
    s = matrix_from_json_dict(json.loads(out_file.read_text()))
    assert np.array_equal(s, gen.gen_power_bounded(256, 2))


def test_generate_conjugation_validates(tmp_path, capsys):
    out_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "generate", "conjugation", "--n", "3", "--seed", "1",
                     "--out", str(out_file))
    assert code == 0
    from opslab import Conjugation

    Conjugation.from_json_dict(json.loads(out_file.read_text()))


def test_generate_unknown_generator_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "does-not-exist", "--n", "2"])
    assert excinfo.value.code == 2


def test_generate_corpus_manifest(tmp_path, capsys):
    out_file = tmp_path / "corpus.json"
    code, _, _ = run(
        capsys, "generate", "power-bounded", "--n", "3", "--seed", "5",
        "--count", "4", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["generator"] == "power-bounded"
    assert payload["seed"] == 5
    assert len(payload["instances"]) == 4
    mats = [matrix_from_json_dict(inst) for inst in payload["instances"]]
    assert not np.array_equal(mats[0], mats[1])
    # Same command line reproduces the manifest bit for bit.
    run(capsys, "generate", "power-bounded", "--n", "3", "--seed", "5",
        "--count", "4", "--out", str(out_file))
    assert json.loads(out_file.read_text()) == payload


def test_generate_manifest_seeds_instance_i_as_the_sweeps_do(capsys):
    # Instance i of a manifest is the single instance at the first draw of derive_rng(seed, i).
    argv = ["generate", "left-m-pair", "--n", "3", "--json"]
    _, out, _ = run(capsys, *argv, "--seed", "-5", "--count", "3")
    instances = json.loads(out)["artifacts"]["payload"]["instances"]
    for i, instance in enumerate(instances):
        seed = int(gen.derive_rng(-5, i).integers(0, 2**63))
        _, out, _ = run(capsys, *argv, "--seed", str(seed))
        single = json.loads(out)["artifacts"]["payload"]
        assert {key: single[key] for key in ("S", "T")} == instance


def test_generate_one_c_isometry_hyperbolic(tmp_path, capsys):
    out_file = tmp_path / "hyp.json"
    code, _, _ = run(
        capsys, "generate", "one-c-isometry", "--n", "2", "--seed", "4",
        "--hyperbolic", "--t", "1.0", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    s = matrix_from_json_dict(payload["S"])
    np.testing.assert_allclose(s.T @ s, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("t", ["700", "-700"])
def test_generate_one_c_isometry_hyperbolic_at_large_t(tmp_path, capsys, t):
    out_file = tmp_path / "hyp.json"
    code, _, err = run(
        capsys, "generate", "one-c-isometry", "--n", "2", "--hyperbolic", "--t", t, "--out", str(out_file),
    )
    assert code == 0 and err == ""
    assert np.all(np.isfinite(matrix_from_json_dict(json.loads(out_file.read_text())["S"])))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["one-c-isometry", "--n", "2", "--hyperbolic", "--t", "800"],
         "error: t must satisfy |t| <= 710.4758600739439 (cosh t overflows beyond), got 800.0"),
        (["one-c-isometry", "--n", "3", "--hyperbolic", "--t", "nan"],
         "error: t must satisfy |t| <= 710.4758600739439 (cosh t overflows beyond), got nan"),
        (["jordan", "--k", "2", "--lambda", "nan"],
         "error: lambda must be a finite complex number (both parts finite), got (nan+0j)"),
        (["jordan", "--k", "2", "--lambda", "1e400+0i"],
         "error: lambda must be a finite complex number (both parts finite), got (inf+0j)"),
        (["jordan", "--k", "2", "--lambda", "1+2x"], "error: invalid complex literal '1+2x'"),
    ],
)
def test_generate_refuses_parameters_that_overflow(capsys, argv, message):
    # Before the check, t = 800 overflowed cosh with RuntimeWarnings and the
    # JSON writer then refused a non-finite matrix without naming t.
    code, out, err = run(capsys, "generate", *argv)
    assert code == 2 and out == ""
    assert err.strip() == message


def test_generate_left_m_pair_writes_s_and_t(tmp_path, capsys):
    # The pair is a left m-inverse at every m, so the payload names no order.
    out_file = tmp_path / "pair.json"
    code, _, _ = run(capsys, "generate", "left-m-pair", "--n", "3", "--seed", "2", "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    assert code == 0 and set(payload) == {"generator", "seed", "parameters", "S", "T"}
    assert payload["parameters"] == {"n": 3}
    s, t = gen_left_m_pair(3, seed=2)
    assert np.array_equal(matrix_from_json_dict(payload["S"]), s)
    assert np.array_equal(matrix_from_json_dict(payload["T"]), t)


def test_report_determinism(tmp_path, capsys):
    eye = write_matrix(tmp_path / "eye.json", np.eye(3))
    _, out1, _ = run(capsys, "check", "pf-property", "--s", eye, "--json")
    _, out2, _ = run(capsys, "check", "pf-property", "--s", eye, "--json")
    assert out1 == out2


def run_entry_point(*argv, cwd):
    """``python -m opslab.cli`` in a fresh interpreter, as a shell user runs it."""
    src = str(Path(opslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "opslab.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_entry_point_json_report_is_one_line(tmp_path):
    write_matrix(tmp_path / "j2.json", gen_jordan(2, 1.0))
    proc = run_entry_point("check", "power-bounded", "--s", "j2.json", "--json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1 and proc.stdout.endswith("\n")
    report = json.loads(proc.stdout)
    assert proc.stdout == dump_json(report) + "\n"
    assert report["exit_code"] == 1
    assert report["artifacts"]["report"]["witness"]["reason"] == "unimodular eigenvalue is not semisimple"


def test_entry_point_generate_out_writes_the_compact_payload(tmp_path):
    proc = run_entry_point(
        "generate", "similar-isometry", "--n", "3", "--seed", "7", "--out", "inst.json", cwd=tmp_path
    )
    assert proc.returncode == 0
    s, p0, u = gen_similar_isometry(3, 7)
    payload = {
        "generator": "similar-isometry",
        "seed": 7,
        "parameters": {"n": 3},
        "S": s,
        "P0": p0,
        "U": u,
    }
    assert (tmp_path / "inst.json").read_bytes() == dump_json(payload).encode()
    assert (tmp_path / "inst.json").read_bytes().startswith(b'{"P0":{"cols":3,"data":[[')


def listed(obj, path, found):
    """``obj`` with each matrix in the schema's per-entry list form, the writer's
    oracle; ``found`` collects the path of each matrix."""
    if isinstance(obj, np.ndarray):
        assert obj.dtype == np.complex128 and obj.ndim == 2  # the writer's rule
        found.append(path)
        data = [[float(z.real), float(z.imag)] for z in obj.ravel()]
        return {"rows": obj.shape[0], "cols": obj.shape[1], "data": data}
    if isinstance(obj, dict):
        return {key: listed(value, f"{path}/{key}", found) for key, value in obj.items()}
    if isinstance(obj, list):
        return [listed(value, f"{path}/{i}", found) for i, value in enumerate(obj)]
    return obj


# Each generator's operands and the paths of the matrices in its payload.
GENERATED = {
    "jordan": (["--k", "3", "--lambda", "0.6+0.8i"], [""]),
    "similar-isometry": (["--n", "3"], ["/P0", "/S", "/U"]),
    "left-m-pair": (["--n", "3"], ["/S", "/T"]),
    "power-bounded": (["--n", "3"], [""]),
    "conjugation": (["--n", "3"], ["/J"]),
    "one-c-isometry": (["--n", "3", "--hyperbolic"], ["/J", "/S"]),
}
# Each writer's request, its operands named by the inputs below, and the paths of its matrices.
WRITERS = [
    (["solve", "invariant-metric", "--s", "S"], ["/artifacts/certificate/P", "/artifacts/certificate/V"]),
    (["check", "pf-property", "--s", "PF"], [f"/artifacts/report/counterexample/{key}" for key in "VX"]),
    (["solve", "similarity", "--s", "S", "--t", "S_INV"], ["/artifacts/P", "/artifacts/U1", "/artifacts/U2"]),
    (["solve", "canonical-inverse", "--s", "S"], ["/artifacts/T"]),
    (["solve", "douglas", "--a", "I", "--b", "S"], ["/artifacts/C"]),
    *(
        (["generate", kind, *ops, "--json"], [f"/artifacts/payload{path}" for path in paths])
        for kind, (ops, paths) in GENERATED.items()
    ),
    *((["generate", kind, *ops, "--out", "OUT"], paths) for kind, (ops, paths) in GENERATED.items()),
    (
        ["generate", "similar-isometry", "--n", "3", "--count", "2", "--out", "OUT"],
        [f"/instances/{i}/{key}" for i in range(2) for key in ("P0", "S", "U")],
    ),
]


@pytest.mark.parametrize(
    "argv, paths", WRITERS, ids=[" ".join(arg for arg in argv if not arg.isupper()) for argv, _ in WRITERS]
)
def test_each_report_writer_writes_its_matrices_like_the_per_entry_loop(tmp_path, capsys, monkeypatch, argv, paths):
    s, _, _ = gen_similar_isometry(3, 7)
    inputs = {"S": s, "S_INV": np.linalg.inv(s), "I": np.eye(3), "PF": gen.gen_pf_edge([0.5, 1.0, 0.5], 0.1)}
    files = {name: write_matrix(tmp_path / f"{name}.json", m) for name, m in inputs.items()}
    files["OUT"] = str(tmp_path / "out.json")
    argv = [files.get(arg, arg) for arg in argv]
    handed = []  # every object the CLI hands to the writer
    monkeypatch.setattr(cli, "dump_json", lambda obj: handed.append(obj) or dump_json(obj))
    code, out, err = run(capsys, *argv, *([] if "--out" in argv else ["--json"]))
    assert code == (1 if "pf-property" in argv else 0) and err == ""
    written = Path(files["OUT"]).read_text() if "--out" in argv else out.removesuffix("\n")
    found = []
    assert written in [dump_json(listed(obj, "", found)) for obj in handed]
    assert sorted(found) == sorted(paths)


@pytest.mark.parametrize("argv", [["--json"], ["--out", "out.json"], ["--out", "out.json", "--json"]])
def test_a_non_finite_matrix_is_refused_before_anything_is_written(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gen, "gen_power_bounded", lambda n, seed: np.diag([np.inf, 1.0]).astype(complex))
    code, out, err = run(capsys, "generate", "power-bounded", "--n", "2", *argv)
    assert (code, out, err) == (2, "", "error: matrix contains non-finite entries\n")
    assert not (tmp_path / "out.json").exists()


def test_suite_small_smoke(capsys):
    code, out, _ = run(
        capsys, "suite", "thm24", "--count", "3", "--dim-max", "3", "--seed", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["similarity-roundtrip"]["pass"]
    assert payload["verdicts"]["z-inverse-contract"]["pass"]


def test_suite_scalar_sanity():
    # The thm24 sweeps draw n from 1..dim_max; at dim_max 1 every instance is scalar.
    assert suites.run_similarity_roundtrip(count=5, dim_max=1).passed
    assert suites.run_z_inverse_contract(count=5, dim_max=1).passed


@pytest.mark.parametrize("name", sorted(cli.SUITES))
def test_suite_refuses_counts_and_sizes_out_of_range(capsys, name):
    # The first seeded sweep of the suite refuses; the thm24 sweeps draw n from 1, the others from 2.
    gate = next(gate.name for gate in suites.GATES if gate.claim == name and gate.seeded)
    n_min = 1 if name == "thm24" else 2
    for flag, value, message in (
        ("--count", "0", "count must be >= 1"),
        ("--count", "-3", "count must be >= 1"),
        ("--dim-max", str(n_min - 1), f"dim_max must be >= {n_min}"),
    ):
        code, out, err = run(capsys, "suite", name, flag, value)
        assert (code, out, err) == (2, "", f"error: {gate}: {message}\n")
    for dim_max in range(n_min, 3):
        code, out, _ = run(capsys, "suite", name, "--count", "1", "--dim-max", str(dim_max), "--json")
        assert code == 0
        assert all(entry["pass"] for entry in json.loads(out)["verdicts"].values())


def test_suite_runs_each_sweep_at_its_own_defaults(capsys, monkeypatch):
    # Without --count/--dim-max every sweep runs at its own defaults, the gate sizes.
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return suites.SuiteResult("spy")

    monkeypatch.setitem(cli.SUITES, "douglas", (spy,))
    for argv in ([], ["--seed", "3"], ["--count", "7"], ["--dim-max", "4", "--count", "2"]):
        assert run(capsys, "suite", "douglas", *argv)[0] == 0
    assert calls == [
        {"seed": 0},
        {"seed": 3},
        {"seed": 0, "count": 7},
        {"seed": 0, "count": 2, "dim_max": 4},
    ]


def test_suite_and_generate_take_no_tolerance_flags(capsys):
    # Suites and generators run at pinned tolerances; only check and solve
    # accept --abs-tol/--rel-tol.
    with pytest.raises(SystemExit) as exc:
        main(["suite", "douglas", "--abs-tol", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "jordan", "--k", "2", "--lambda", "1", "--rel-tol", "0.5"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "suite", "thm24", "--count", "1", "--dim-max", "2", "--json")
    assert code == 0
    assert json.loads(out)["tolerances"] is None
    code, out, _ = run(capsys, "suite", "thm24", "--count", "1", "--dim-max", "2")
    assert "tolerances" not in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
def test_non_finite_tolerances_are_usage_errors(tmp_path, capsys, flag, value):
    # With a NaN tolerance the Jordan block J2(1) used to pass power-bounded
    # and I2 to fail 1-isometry at residual 0.
    j2 = write_matrix(tmp_path / "j2.json", gen_jordan(2, 1.0))
    eye = write_matrix(tmp_path / "eye.json", np.eye(2))
    for argv in (["power-bounded", "--s", j2], ["m-isometry", "--m", "1", "--s", eye]):
        code, out, err = run(capsys, "check", *argv, f"{flag}={value}")
        assert (code, out, err) == (2, "", "error: tolerances must be finite and nonnegative\n")


def test_check_pf_property_reports_one_verdict(tmp_path, capsys):
    coupled = write_matrix(tmp_path / "coupled.json", [[1.0, 1.0], [0.0, 0.5]])
    code, out, _ = run(capsys, "check", "pf-property", "--s", coupled, "--json")
    assert code == 1
    report = json.loads(out)["artifacts"]["report"]
    assert sorted(report) == ["counterexample", "satisfies_pf"]
    j2 = write_matrix(tmp_path / "j2.json", gen_jordan(2, 1.0))
    code, out, err = run(capsys, "check", "pf-property", "--s", j2)
    assert (code, out) == (1, "")
    assert err == (
        "error: pf_property_check requires a power bounded matrix "
        "(unimodular eigenvalue is not semisimple, eigenvalue 1+0j)\n"
    )


def test_check_and_solve_take_no_seed_or_samples_flags(tmp_path, capsys):
    # Nothing in check or solve is random, so neither takes --seed.
    eye = write_matrix(tmp_path / "eye.json", np.eye(2))
    for argv in (
        ["check", "pf-property", "--s", eye, "--samples", "5"],
        ["check", "pf-property", "--s", eye, "--seed", "1"],
        ["solve", "invariant-metric", "--s", eye, "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for argv in (["check", "pf-property"], ["solve", "invariant-metric"]):
        code, out, _ = run(capsys, *argv, "--s", eye, "--json")
        assert code == 0
        assert json.loads(out)["seed"] is None


def test_defect_agreement_runs_uncapped():
    result = suites.run_defect_agreement(count=50, dim_max=8)
    assert result.passed
    assert "caps" not in result.to_json_dict()
