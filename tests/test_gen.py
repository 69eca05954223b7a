import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opslab import (
    ArgumentError,
    adjoint,
    certify_power_bounded,
    defect_profile,
    is_mc_isometric,
    is_left_m_inverse,
    similarity_certificate,
)
from opslab import gen
from opslab.conj import make_conjugation
from opslab.gen import (
    _PHASE_GAP,
    _separated_phases,
    derive_rng,
    gen_1c_isometry,
    gen_c_twisted_block,
    gen_close_phase_pair,
    gen_conjugation,
    gen_jordan,
    gen_left_m_pair,
    gen_power_bounded,
    gen_similar_isometry,
)


def test_gen_jordan_shapes():
    assert_allclose(gen_jordan(1, 1.0), [[1.0]])
    assert_allclose(gen_jordan(2, 1.0), [[1.0, 1.0], [0.0, 1.0]])
    j = gen_jordan(3, 1j)
    assert_allclose(np.diag(j), [1j, 1j, 1j])
    assert_allclose(np.diag(j, k=1), [1.0, 1.0])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gen_jordan_defect_order(k):
    lam = np.exp(0.3j)
    j = gen_jordan(k, lam)
    verdicts = [ok for ok, _ in defect_profile(j, adjoint(j), 2 * k)]
    assert verdicts.index(True) + 1 == 2 * k - 1
    assert certify_power_bounded(j).bounded == (k == 1)


def test_gen_similar_isometry_determinism():
    s1, p1, u1 = gen_similar_isometry(4, seed=99)
    s2, p2, u2 = gen_similar_isometry(4, seed=99)
    assert np.array_equal(s1, s2) and np.array_equal(p1, p2) and np.array_equal(u1, u2)
    s3, _, _ = gen_similar_isometry(4, seed=100)
    assert not np.array_equal(s1, s3)


def test_gen_similar_isometry_structure():
    for seed in range(10):
        n = 1 + seed % 8
        s, p0, u = gen_similar_isometry(n, seed)
        assert np.linalg.norm(adjoint(u) @ u - np.eye(n)) < 1e-12
        assert np.linalg.cond(p0) <= 100.0 * 1.01
        assert np.linalg.norm(p0 @ s - u @ p0) < 1e-10 * np.linalg.norm(p0)
        assert certify_power_bounded(s).bounded


def test_gen_similar_isometry_full_certificate():
    for seed in (3, 14, 27):
        s, _, _ = gen_similar_isometry(5, seed)
        cert = similarity_certificate(s)
        scale = max(1.0, np.linalg.norm(s) ** 2)
        assert cert.residual_metric <= 1e-8 * scale
        assert cert.residual_similarity <= 1e-8 * scale


def test_gen_left_m_pair_defect_all_orders():
    s, t = gen_left_m_pair(4, seed=6)
    for m in (1, 2, 3, 4):
        ok, _ = is_left_m_inverse(s, t, m)
        assert ok
    verdicts = [ok for ok, _ in defect_profile(s, t, 4)]
    assert verdicts.index(True) + 1 == 1 and all(verdicts)
    s, t = gen_left_m_pair(1, seed=1)
    assert abs(s[0, 0] * t[0, 0] - 1.0) < 1e-12


def test_generators_refuse_parameters_that_overflow():
    for lam in (complex("nan"), complex(1e400, 0.0), complex(0.0, float("inf"))):
        with pytest.raises(ArgumentError, match="lambda must be a finite"):
            gen_jordan(2, lam)
    for t in (800.0, -710.5, float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match=r"t must satisfy \|t\| <= 710\.4758"):
            gen_1c_isometry(2, 0, hyperbolic=True, t=t)


def test_gen_power_bounded_always_certifies():
    for seed in range(30):
        n = 2 + seed % 7
        s = gen_power_bounded(n, seed)
        assert certify_power_bounded(s).bounded
    with pytest.raises(ArgumentError):
        gen_power_bounded(1, 0)


def test_gen_power_bounded_draws_are_unchanged():
    # The rejection draws of _separated_phases build every draw at
    # n = 2..16, seeds 0..99; their sha256 holds that its fallback touches
    # none of them.
    digest = hashlib.sha256()
    for n in range(2, 17):
        for seed in range(100):
            digest.update(gen_power_bounded(n, seed).tobytes())
    assert digest.hexdigest() == "f795067812ce47ca29509cb5fd4ca9f1a59133c500a317e512e07db1f14e9680"


def test_gen_power_bounded_builds_at_n_256():
    # Seeds 2, 3, 7, 13, 15 and 18 draw 208 to 242 phases, which 1000
    # uniform draws do not separate.
    for seed in range(20):
        s = gen_power_bounded(256, seed)
        assert s.shape == (256, 256) and np.isfinite(s).all()


@pytest.mark.parametrize("k", [300, 3000, 6283])
def test_separated_phases_falls_back_to_drawn_gaps(k):
    theta = _separated_phases(k, derive_rng(k))
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    assert theta.size == k and 0.0 <= theta[0] and theta[-1] < 2.0 * np.pi
    assert gaps.min() > _PHASE_GAP


def test_separated_phases_refuses_more_phases_than_the_circle_holds():
    # 6284 gaps of 1e-3 exceed 2 pi.
    with pytest.raises(ArgumentError, match="cannot separate 6284 phases"):
        _separated_phases(6284, derive_rng(0))


def test_gen_conjugation_valid_and_deterministic():
    for seed in range(10):
        c = gen_conjugation(3, seed)
        make_conjugation(c.j)  # passes validation
    assert np.array_equal(gen_conjugation(5, 8).j, gen_conjugation(5, 8).j)


def test_gen_1c_isometry():
    for seed in range(8):
        n = 1 + seed % 5
        s, c = gen_1c_isometry(n, seed)
        assert is_mc_isometric(s, c, 1)[0]
        assert certify_power_bounded(s).bounded
    s, c = gen_1c_isometry(3, 0, hyperbolic=True, t=1.0)
    assert is_mc_isometric(s, c, 1)[0]
    assert not certify_power_bounded(s).bounded


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_the_close_phase_pair_and_the_c_twisted_block_hold_their_truth(delta):
    # What their docstrings state; the misreads of both are pinned where they are decided.
    for basis in (None, 0):
        s, t = gen_close_phase_pair(delta, basis)
        assert certify_power_bounded(s).bounded and certify_power_bounded(t).bounded
        assert np.linalg.norm(t @ s - np.eye(2)) == pytest.approx(1.0, rel=1e-12)
    s, c = gen_c_twisted_block(delta)
    assert certify_power_bounded(s).bounded
    assert not is_mc_isometric(s, c, 1)[0]


def test_every_family_is_defined_once_in_gen():
    # A family defined in gen is not defined again under tests/, and
    # tests/outputs.py reads its families from gen, never from a test module.
    def defined(path):
        return {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}

    tests = Path(__file__).parent
    names = defined(Path(gen.__file__))
    for path in tests.rglob("*.py"):
        assert not defined(path) & names, f"{path.name} defines {sorted(defined(path) & names)} again"
    outputs = ast.parse((tests / "outputs.py").read_text())
    imported = [alias.name for node in ast.walk(outputs) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(outputs) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0].startswith("test_")]
