import json

import numpy as np
import pytest

from opslab import (
    matrix_from_json_dict,
    matrix_to_json_dict,
    metric,
    minv,
    operator_norm,
    save_matrix,
    suites,
)
from opslab.cli import main, parse_complex
from opslab.gen import gen_jordan, gen_left_m_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    save_matrix(path, np.asarray(m, dtype=complex))
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


def test_check_left_m_inverse(tmp_path, capsys):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    s = write_matrix(tmp_path / "u.json", q)
    t = write_matrix(tmp_path / "ustar.json", q.conj().T)
    code, out, _ = run(capsys, "check", "left-m-inverse", "--s", s, "--t", t, "--m", "1")
    assert code == 0


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


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "m-isometry", "--s", str(tmp_path / "nope.json"), "--m", "1")
    assert code == 2


def test_check_mc_isometry(tmp_path, capsys):
    rot = write_matrix(tmp_path / "rot.json", [[0.0, -1.0], [1.0, 0.0]])
    conj_path = tmp_path / "conj.json"
    conj_path.write_text(json.dumps({"J": matrix_to_json_dict(np.eye(2, dtype=complex))}))
    code, out, _ = run(
        capsys, "check", "mc-isometry", "--s", rot, "--conj", str(conj_path), "--m", "1"
    )
    assert code == 0


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
    assert report["verdicts"]["isometry"]["pass"]
    assert "P" in report["artifacts"]["certificate"]


def test_solve_invariant_metric_decaying_fails(tmp_path, capsys):
    half = write_matrix(tmp_path / "half.json", [[0.5]])
    code, _, err = run(capsys, "solve", "invariant-metric", "--s", half)
    assert code == 1
    assert "zero" in err or "positive definite" in err


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
    run(capsys, "generate", "left-m-pair", "--n", "3", "--m", "2", "--seed", "11",
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
    s_path = write_matrix(tmp_path / "s.json", gen_left_m_pair(4, 2, seed=3).s)
    calls = []
    defect = minv.defect
    monkeypatch.setattr(minv, "defect", lambda *a: calls.append(1) or defect(*a))
    code, out, _ = run(capsys, "solve", "canonical-inverse", "--s", s_path, "--m", "2", "--json")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["verdicts"]["canonical-inverse"]["pass"]


def test_solve_similarity_reports_the_solver_residual(tmp_path, capsys, monkeypatch):
    pair = gen_left_m_pair(3, 2, seed=11)
    solve = metric.similar_to_unitary
    monkeypatch.setattr(metric, "similar_to_unitary", lambda *a: (*solve(*a)[:3], 0.125))
    code, out, _ = run(
        capsys, "solve", "similarity", "--s", write_matrix(tmp_path / "s.json", pair.s),
        "--t", write_matrix(tmp_path / "t.json", pair.t), "--m", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["unitary-models"]["residual"] == 0.125


def test_solve_similarity_certifies_each_operator_once(tmp_path, capsys, monkeypatch):
    pair = gen_left_m_pair(4, 2, seed=3)
    calls = []
    certify = metric.certify_power_bounded
    monkeypatch.setattr(metric, "certify_power_bounded", lambda *a, **k: calls.append(1) or certify(*a, **k))
    code, _, _ = run(
        capsys, "solve", "similarity", "--s", write_matrix(tmp_path / "s.json", pair.s),
        "--t", write_matrix(tmp_path / "t.json", pair.t), "--m", "2", "--json",
    )
    assert code == 0
    assert len(calls) == 2  # S and T*


@pytest.mark.parametrize("kind", ["invariant-metric", "similarity"])
def test_solve_at_n64(tmp_path, capsys, kind):
    pair = gen_left_m_pair(64, 2, seed=1)  # S from gen_similar_isometry(64, 1)
    argv = ["solve", kind, "--s", write_matrix(tmp_path / "s.json", pair.s), "--json"]
    if kind == "similarity":
        argv += ["--t", write_matrix(tmp_path / "t.json", pair.t), "--m", "2"]
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


def test_report_determinism(tmp_path, capsys):
    eye = write_matrix(tmp_path / "eye.json", np.eye(3))
    _, out1, _ = run(capsys, "check", "pf-property", "--s", eye, "--seed", "5", "--json")
    _, out2, _ = run(capsys, "check", "pf-property", "--s", eye, "--seed", "5", "--json")
    assert out1 == out2


def test_suite_small_smoke(capsys):
    code, out, _ = run(
        capsys, "suite", "thm24", "--count", "3", "--dim-max", "3", "--seed", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["similarity-roundtrip"]["pass"]
    assert payload["verdicts"]["z-inverse-contract"]["pass"]


def test_suite_scalar_sanity(capsys):
    code, _, _ = run(capsys, "suite", "thm24", "--count", "1", "--dim-max", "1")
    assert code == 0


def test_suite_and_generate_take_no_tolerance_flags(capsys):
    # Suites and generators run at pinned tolerances; only check and solve
    # accept --abs-tol/--rel-tol.
    with pytest.raises(SystemExit) as exc:
        main(["suite", "douglas", "--abs-tol", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "jordan", "--k", "2", "--lambda", "1", "--rel-tol", "0.5"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "suite", "thm24", "--count", "1", "--dim-max", "1", "--json")
    assert code == 0
    assert json.loads(out)["tolerances"] is None
    code, out, _ = run(capsys, "suite", "thm24", "--count", "1", "--dim-max", "1")
    assert "tolerances" not in out


def test_suite_reports_the_caps_that_take_effect(capsys):
    # pf-ascent builds n^2 x n^2 maps and runs at dim_max <= 5.
    code, out, _ = run(capsys, "suite", "pf-ascent", "--count", "1", "--json")
    assert code == 0
    suite = json.loads(out)["artifacts"]["pf-ascent"]
    assert suite["caps"] == {"dim_max": {"requested": 8, "used": 5}}
    code, out, _ = run(capsys, "suite", "pf-ascent", "--count", "1", "--dim-max", "4", "--json")
    assert "caps" not in json.loads(out)["artifacts"]["pf-ascent"]
    assert suites.run_defect_agreement(count=1, dim_max=8).caps == {"dim_max": {"requested": 8, "used": 6}}
