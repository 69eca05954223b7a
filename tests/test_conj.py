import numpy as np
import pytest
from numpy.testing import assert_allclose

from opslab import (
    ArgumentError,
    ToleranceConfig,
    adjoint,
    certify_power_bounded,
    conjugate_operator,
    defect,
    is_left_m_inverse,
    is_mc_isometric,
    mc_isometry_defect,
    minv,
    suites,
)
from opslab.conj import entrywise_conjugation, hyperbolic_orthogonal_example, make_conjugation
from opslab.gen import gen_1c_isometry, gen_c_twisted_block, gen_conjugation, gen_power_bounded
from opslab.suites import _mc_defect_antilinear


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_make_conjugation_accepts_standard_forms():
    make_conjugation(np.eye(3, dtype=complex))
    flip = np.fliplr(np.eye(4)).astype(complex)
    make_conjugation(flip)


def test_make_conjugation_rejects_antisymmetric():
    with pytest.raises(ArgumentError, match="symmetric"):
        make_conjugation(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    with pytest.raises(ArgumentError, match="unitary"):
        make_conjugation(2.0 * np.eye(2, dtype=complex))


def test_conjugation_is_antilinear_involution():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(1, 7))
        c = gen_conjugation(n, trial)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(c.apply(c.apply(x)) - x) < 1e-12 * np.linalg.norm(x)
        # <Cx, Cy> = <y, x> with the inner product linear in its first slot
        lhs = np.vdot(c.apply(y), c.apply(x))
        rhs = np.vdot(x, y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_conjugate_operator_entrywise():
    c = entrywise_conjugation(2)
    real = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert_allclose(conjugate_operator(c, real), real)
    assert_allclose(conjugate_operator(c, 1j * np.eye(2)), -1j * np.eye(2))


def test_conjugate_operator_matches_componentwise_application():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        c = gen_conjugation(n, 100 + trial)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = conjugate_operator(c, s)
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = 1.0
            assert_allclose(mat[:, k], c.apply(s @ c.apply(e)), atol=1e-12)


def test_mc_defect_rotation_vanishes():
    c = entrywise_conjugation(2)
    assert np.linalg.norm(mc_isometry_defect(rotation(0.3), c, 1)) < 1e-13


def test_mc_defect_scalar_example():
    c = entrywise_conjugation(2)
    assert_allclose(mc_isometry_defect(1j * np.eye(2), c, 1), -2 * np.eye(2), atol=1e-13)


def test_mc_defect_complex_orthogonal():
    c = entrywise_conjugation(2)
    m = hyperbolic_orthogonal_example(0.7)
    assert np.linalg.norm(mc_isometry_defect(m, c, 1)) < 1e-12


def test_mc_defect_collapse_identity():
    # The oracle applies C to all basis columns in one call.  On a complex
    # S and a non-real J it must give the collapsed defect, and not the
    # same sum with the linear J S J* in place of C S C.
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        c = gen_conjugation(n, 200 + trial)
        assert np.abs(c.j.imag).max() > 0.1
        s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        collapsed = mc_isometry_defect(s, c, m)
        direct = _mc_defect_antilinear(s, c, m)
        linear = defect(c.j @ s @ adjoint(c.j), adjoint(s), m)
        scale = max(1.0, np.abs(collapsed).max())
        assert np.abs(collapsed - direct).max() < 1e-12 * scale
        assert np.abs(linear - direct).max() > 1e-3 * scale


def test_one_c_implies_higher_orders():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        s, c = gen_1c_isometry(n, trial)
        assert is_mc_isometric(s, c, 1)[0]
        for m in range(1, 5):
            res = np.linalg.norm(mc_isometry_defect(s, c, m))
            assert res < 1e-10 * max(1.0, np.linalg.norm(s) ** m)


def test_is_1c_isometric_examples():
    c = entrywise_conjugation(2)
    assert is_mc_isometric(np.eye(2, dtype=complex), c, 1) == (True, 0.0)
    assert is_mc_isometric(rotation(1.1), c, 1)[0]
    ok, residual = is_mc_isometric(1j * np.eye(2), c, 1)
    assert not ok
    assert residual == pytest.approx(2.0 * np.sqrt(2.0))


def test_is_mc_isometric_is_the_left_inverse_decision_on_csc():
    # Same verdict and residual as is_left_m_inverse on (CSC, S*), bit for
    # bit, at the default tolerance and at an absolute 1e-8.
    rng = np.random.default_rng(17)
    absolute = ToleranceConfig(abs_tol=1e-8, rel_tol=0.0)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        c = gen_conjugation(n, 300 + trial)
        if trial % 3 == 0:
            s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        elif trial % 3 == 1:
            s = gen_power_bounded(n, 400 + trial)
        else:
            s, c = gen_1c_isometry(n, trial)
        for tol in (ToleranceConfig(), absolute):
            expected = is_left_m_inverse(conjugate_operator(c, s), adjoint(s), m, tol)
            assert is_mc_isometric(s, c, m, tol) == expected


def test_verify_prop_mc_positive():
    # Power bounded and (m,C)-isometric, hence (1,C)-isometric.
    s, c = gen_1c_isometry(3, seed=4)
    assert certify_power_bounded(s).bounded
    assert is_mc_isometric(s, c, 3)[0] and is_mc_isometric(s, c, 1)[0]
    cid = entrywise_conjugation(2)
    assert is_mc_isometric(np.eye(2, dtype=complex), cid, 4) == (True, 0.0)


def test_hyperbolic_family():
    assert_allclose(hyperbolic_orthogonal_example(0.0), np.eye(2), atol=1e-15)
    for t in (0.5, 1.0, 2.0):
        m = hyperbolic_orthogonal_example(t)
        assert_allclose(m.T @ m, np.eye(2), atol=1e-12)
        assert not certify_power_bounded(m).bounded
        norms = [np.linalg.norm(np.linalg.matrix_power(m, k), 2) for k in (1, 4, 8)]
        assert norms[-1] > norms[0]  # powers escape to infinity


def test_gen_conjugation_is_deterministic():
    a = gen_conjugation(4, 37)
    b = gen_conjugation(4, 37)
    assert np.array_equal(a.j, b.j)


def test_c_isometry_rigidity_runs_the_recursion_once_per_instance(monkeypatch):
    # Orders 1..4 and the order-4 matrix of the antilinear oracle come from
    # one pass per instance; the three hyperbolic checks take one each.
    calls = []
    defects = minv._defects
    monkeypatch.setattr(minv, "_defects", lambda *a: calls.append(1) or defects(*a))
    result = suites.run_c_isometry_rigidity()
    assert result.passed and result.instances == 503
    assert len(calls) == 503


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 21: power bounded and not (1,C)-isometric, yet the order-5 (m,C) defect reads "
    "3.0e-11 at delta = 1e-4 until the least order is decided structurally",
)
def test_a_c_twisted_block_is_not_5c_isometric():
    s, c = gen_c_twisted_block(1e-4)
    assert not is_mc_isometric(s, c, 5)[0]
