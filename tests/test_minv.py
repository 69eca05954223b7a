from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opslab import (
    ArgumentError,
    AssumptionError,
    ToleranceConfig,
    adjoint,
    ascent,
    defect,
    defect_profile,
    frobenius,
    is_left_m_inverse,
    kernel_included,
    null_space,
    operator_norm,
    z_inverses,
    z_norm_bound,
)
from opslab import minv
from opslab.gen import derive_rng, gen_left_m_pair, haar_unitary
from opslab.suites import _kronecker_maps

J2 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


def random_complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)


def test_defect_identity_pair_vanishes_for_all_orders():
    eye = np.eye(3, dtype=complex)
    for m in range(1, 6):
        assert_allclose(defect(eye, eye, m), np.zeros((3, 3)), atol=1e-14)


def test_defect_jordan_block_order_two():
    # Hand expansion of S*^2 S^2 - 2 S* S + I for the unit Jordan block.
    assert_allclose(defect(J2, adjoint(J2), 2), np.array([[0, 0], [0, 2]]), atol=1e-13)


def test_defect_jordan_block_order_three_vanishes():
    assert_allclose(defect(J2, adjoint(J2), 3), np.zeros((2, 2)), atol=1e-13)


def test_defect_rejects_mismatched_shapes():
    with pytest.raises(ArgumentError):
        defect(np.eye(2), np.eye(3), 1)
    with pytest.raises(ArgumentError):
        defect(np.eye(2), np.eye(2), 0)


def test_defect_adjoint_symmetry():
    # The identity defect(S,T,m)* = defect(T*,S*,m) holds entrywise; the two
    # evaluation orders associate the matrix powers differently, so agreement
    # is at machine epsilon rather than bit-exact.
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        s = random_complex(rng, n)
        t = random_complex(rng, n)
        left = adjoint(defect(s, t, m))
        right = defect(adjoint(t), adjoint(s), m)
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() <= 1e-14 * scale


def test_defect_matches_iterated_application():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        s = random_complex(rng, n)
        t = random_complex(rng, n)
        iterated = defect(s, t, m)
        direct = sum(
            ((-1) ** (m - j)) * comb(m, j)
            * (np.linalg.matrix_power(t, j) @ np.linalg.matrix_power(s, j))
            for j in range(m + 1)
        )
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(direct - iterated).max() <= 1e-12 * scale


def test_is_left_m_inverse_unitary():
    u = haar_unitary(4, derive_rng(1))
    ok, residual = is_left_m_inverse(u, adjoint(u), 1)
    assert ok and residual < 1e-12


def test_is_left_m_inverse_metric_pair_all_orders():
    s, t = gen_left_m_pair(4, seed=5)
    for m in range(1, 5):
        ok, _ = is_left_m_inverse(s, t, m)
        assert ok


def test_is_left_m_inverse_jordan_strict():
    ok, residual = is_left_m_inverse(J2, adjoint(J2), 2)
    assert not ok
    assert residual == pytest.approx(2.0, rel=1e-12)


def _first_passing_order(profile):
    return next((k for k, (ok, _) in enumerate(profile, start=1) if ok), None)


def test_defect_profile_first_passing_order():
    u = haar_unitary(3, derive_rng(2))
    assert _first_passing_order(defect_profile(u, adjoint(u), 4)) == 1
    assert _first_passing_order(defect_profile(J2, adjoint(J2), 4)) == 3
    half = np.array([[0.5]], dtype=complex)
    assert _first_passing_order(defect_profile(half, half, 4)) is None


def test_defect_profile_is_every_order_of_one_pass():
    # Each residual is the Frobenius norm of defect(s, t, k) bit for bit,
    # and the last entry is the order-m decision, at both tolerances.
    rng = np.random.default_rng(31)
    absolute = ToleranceConfig(abs_tol=1e-8, rel_tol=0.0)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        s = random_complex(rng, n)
        t = random_complex(rng, n) if rng.uniform() < 0.5 else np.linalg.inv(s)
        for tol in (absolute, ToleranceConfig()):
            profile = defect_profile(s, t, m, tol)
            assert len(profile) == m
            assert [residual for _, residual in profile] == [frobenius(defect(s, t, k)) for k in range(1, m + 1)]
            assert profile[-1] == is_left_m_inverse(s, t, m, tol)
    with pytest.raises(ArgumentError):
        defect_profile(np.eye(2), np.eye(2), 0)


def test_defect_profile_validates_once_and_runs_the_recursion_once(monkeypatch):
    validations, passes = [], []
    validated, defects = minv._validated, minv._defects
    monkeypatch.setattr(minv, "_validated", lambda *a: validations.append(1) or validated(*a))
    monkeypatch.setattr(minv, "_defects", lambda *a: passes.append(1) or defects(*a))
    s, t = gen_left_m_pair(3, seed=7)
    assert all(ok for ok, _ in defect_profile(s, t, 5))
    assert len(z_inverses(s, t, 3, 6)) == 6  # one pass for the whole family
    assert validations == passes == [1, 1]


def z_expansion(s, t, m, n):
    """``Z_n`` term by term from ``np.linalg.matrix_power``."""
    return ((-1) ** (m + 1)) * sum(
        ((-1) ** (m - j)) * comb(m, j)
        * (np.linalg.matrix_power(t, n * j) @ np.linalg.matrix_power(s, n * (j - 1)))
        for j in range(1, m + 1)
    )


def test_z_inverses_match_the_binomial_expansion():
    # The one pass and matrix_power associate the products differently.
    # On a non-normal pair the two roundings part by up to about
    # ||S|| ||T|| ulps of the result (2.5e-14 of it at most, measured over
    # 30 seeds per matrix size up to 8), so the 1e-12 relative gap is
    # scaled by ||S|| ||T||, which is 1 on the unitaries.
    pairs = [gen_left_m_pair(n, seed=n) for n in (1, 3, 5, 8)]
    pairs += [(u, adjoint(u)) for u in (haar_unitary(n, derive_rng(n)) for n in (2, 4, 7))]
    for s, t in pairs:
        conditioning = operator_norm(s) * operator_norm(t)
        for m in (1, 2, 3):
            family = z_inverses(s, t, m, 6)
            assert len(family) == 6
            for n, z in enumerate(family, start=1):
                expected = z_expansion(s, t, m, n)
                scale = max(1.0, np.abs(expected).max()) * conditioning
                assert np.abs(z - expected).max() <= 1e-12 * scale


def test_z_inverse_first_order_is_power_of_t():
    u = haar_unitary(3, derive_rng(4))
    for n, z in enumerate(z_inverses(u, adjoint(u), 1, 3), start=1):
        assert_allclose(z, np.linalg.matrix_power(adjoint(u), n), atol=1e-13)


def test_z_inverse_jordan_matches_expansion():
    s, t = J2, adjoint(J2)
    expected = 3 * t - 3 * (t @ t) @ s + np.linalg.matrix_power(t, 3) @ (s @ s)
    z1 = z_inverses(s, t, 3, 1)[0]
    assert_allclose(z1, expected, atol=1e-13)
    assert_allclose(z1 @ s, np.eye(2), atol=1e-12)


def test_z_inverse_metric_pair():
    s, t = gen_left_m_pair(4, seed=3)
    s3 = np.linalg.matrix_power(s, 3)
    z3 = z_inverses(s, t, 2, 3)[2]
    assert np.linalg.norm(z3 @ s3 - np.eye(4)) < 1e-9 * max(1.0, np.linalg.norm(s3))


def test_z_inverse_requires_defect_pair():
    with pytest.raises(AssumptionError):
        z_inverses(J2, adjoint(J2), 2, 1)
    with pytest.raises(ArgumentError):
        z_inverses(J2, adjoint(J2), 3, 0)


def test_z_norm_bound_values():
    assert z_norm_bound(1, 1.0) == 2.0
    assert z_norm_bound(3, 2.0) == 32.0
    u = haar_unitary(3, derive_rng(8))
    assert operator_norm(z_inverses(u, adjoint(u), 1, 2)[1]) <= z_norm_bound(1, 1.0)
    with pytest.raises(ArgumentError):
        z_norm_bound(1, 0.0)


def _elementary(a, b):
    """The n^2 x n^2 matrix of ``X -> A X B - X``."""
    return _kronecker_maps(a, adjoint(b))[0]


def _derivation(a, b):
    """The n^2 x n^2 matrix of ``X -> A X - X B``."""
    return _kronecker_maps(a, adjoint(b))[1]


def _kernel_dim(rep):
    return null_space(rep).shape[1]


def _assert_matches_on_basis(rep, definitions):
    """The map ``rep`` and its adjoint against the two definitions: column k of
    each is the image of the k-th column-stacked 3 x 3 matrix unit."""
    for m, definition in zip((rep, adjoint(rep)), definitions):
        for k, unit in enumerate(np.eye(9, dtype=complex)):
            image = definition(unit.reshape((3, 3), order="F"))
            assert_allclose(m[:, k], image.flatten(order="F"), atol=1e-13)


def test_elementary_operator_matches_definition_on_basis():
    rng = np.random.default_rng(13)
    a = random_complex(rng, 3)
    v = random_complex(rng, 3)
    _assert_matches_on_basis(
        _kronecker_maps(a, v)[0],
        (lambda x: a @ x @ adjoint(v) - x, lambda x: adjoint(a) @ x @ v - x),
    )


def test_generalized_derivation_matches_definition_on_basis():
    rng = np.random.default_rng(14)
    a = random_complex(rng, 3)
    v = random_complex(rng, 3)
    _assert_matches_on_basis(
        _kronecker_maps(a, v)[1],
        (lambda x: a @ x - x @ adjoint(v), lambda x: adjoint(a) @ x - x @ v),
    )


def test_elementary_kernel_dimensions():
    # X -> 2X - X is injective.
    assert _kernel_dim(_elementary(2 * np.eye(2), np.eye(2))) == 0
    # X -> X - X is the zero map.
    assert _kernel_dim(_elementary(np.eye(2), np.eye(2))) == 4
    # Unitary with spectrum {e^(i 0.7), e^(-i 0.7)}: U X U = X has the two
    # off-diagonal solutions in the eigenbasis.
    u = np.diag([np.exp(0.7j), np.exp(-0.7j)])
    assert _kernel_dim(_elementary(u, u)) == 2


def test_derivation_kernel_dimensions():
    assert _kernel_dim(_derivation(np.eye(2), np.eye(2))) == 4
    assert _kernel_dim(_derivation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))) == 0
    j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert _kernel_dim(_derivation(j, j)) == 2


def test_ascent_examples():
    assert ascent(_elementary(2 * np.eye(2), np.eye(2))) == 0
    assert ascent(_elementary(np.eye(2), np.eye(2))) == 1
    j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert ascent(_derivation(j, j)) == 3


def test_normal_pair_elementary_ascent_at_most_one():
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        a = haar_unitary(n, derive_rng(trial, 0))
        b = haar_unitary(n, derive_rng(trial, 1))
        asc = ascent(_elementary(a, b))
        assert asc <= 1


def test_kernel_included_fails_on_a_coupled_block():
    a = np.array([[1.0, 1.0], [0.0, 0.5]], dtype=complex)
    assert not kernel_included(_kronecker_maps(a, np.eye(2, dtype=complex))[0])
    # A unitary's kernel is included: trivial at V = I, not at V = lam I for its eigenvalue lam.
    u = haar_unitary(3, derive_rng(9))
    for v in (np.eye(3), np.linalg.eigvals(u)[0] * np.eye(3)):
        assert kernel_included(_kronecker_maps(u, v)[0])
