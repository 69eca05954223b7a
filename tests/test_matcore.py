import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opslab import (
    ArgumentError,
    AssumptionError,
    MatrixFormatError,
    ToleranceConfig,
    adjoint,
    as_matrix,
    c0_c1_decompose,
    certify_power_bounded,
    matrix_from_json_dict,
    matrix_to_json_dict,
    operator_norm,
    psd_sqrt,
    pseudo_inverse,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_tolerance_validation():
    with pytest.raises(ArgumentError):
        ToleranceConfig(abs_tol=-1.0)
    tol = ToleranceConfig()
    assert tol.zero_threshold(0.0) == tol.abs_tol


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ArgumentError):
        as_matrix([1, 2, 3])
    with pytest.raises(ArgumentError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ArgumentError):
        as_matrix([[1, 2, 3], [4, 5, 6]], square=True)


def test_adjoint_examples():
    assert_allclose(adjoint(np.array([[1j]])), np.array([[-1j]]))
    eye = np.eye(3, dtype=complex)
    assert_allclose(adjoint(eye), eye)
    assert_allclose(
        adjoint(np.array([[1, 1], [0, 1]], dtype=complex)),
        np.array([[1, 0], [1, 1]], dtype=complex),
    )


def test_operator_norm_examples():
    assert_allclose(operator_norm(np.eye(3)), 1.0)
    assert_allclose(operator_norm(np.diag([3.0, 1.0])), 3.0)
    # Largest singular value of the standard 2x2 Jordan block: sqrt of the
    # top eigenvalue (3 + sqrt 5)/2 of its Gram matrix, i.e. the golden ratio.
    assert_allclose(operator_norm(np.array([[1, 1], [0, 1]])), GOLDEN, rtol=1e-12)


def spectral_radius(m):
    """The spectral radius as the power-boundedness certificate reads it."""
    return certify_power_bounded(m).spectral_radius


def test_spectral_radius_examples():
    assert_allclose(spectral_radius(np.array([[1, 1], [0, 1]])), 1.0)
    assert_allclose(spectral_radius(np.diag([0.5, 2j])), 2.0)
    nil = np.triu(np.ones((4, 4)), k=1)
    assert spectral_radius(nil) < 1e-8
    with pytest.raises(ArgumentError):
        spectral_radius(np.ones((2, 3)))


def test_psd_sqrt_examples():
    assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-13)
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = (np.sqrt(3.0) + 1.0) / 2.0
    b = (np.sqrt(3.0) - 1.0) / 2.0
    assert_allclose(psd_sqrt(h), np.array([[a, b], [b, a]]), atol=1e-12)


def test_psd_sqrt_rejections():
    with pytest.raises(ArgumentError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(AssumptionError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_roundtrip_on_random_gram_matrices():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = random_complex(rng, n, n)
        h = g @ adjoint(g)
        r = psd_sqrt(h)
        assert_allclose(r @ r, h, atol=1e-10 * max(1.0, np.linalg.norm(h)))
        assert np.linalg.norm(r @ h - h @ r) < 1e-10 * max(1.0, np.linalg.norm(h) ** 1.5)


def test_pseudo_inverse_examples():
    rng = np.random.default_rng(11)
    m = random_complex(rng, 3, 3) + 3 * np.eye(3)
    assert_allclose(pseudo_inverse(m), np.linalg.inv(m), atol=1e-10)
    z = np.zeros((2, 2))
    assert_allclose(pseudo_inverse(z), z)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(pseudo_inverse(proj), proj, atol=1e-14)


def test_pseudo_inverse_penrose_identities():
    rng = np.random.default_rng(17)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = random_complex(rng, rows, cols)
        if rng.uniform() < 0.4:  # rank-deficient case
            u, s, vh = np.linalg.svd(m)
            k = min(rows, cols)
            s[int(rng.integers(0, k)):] = 0.0
            m = (u[:, :k] * s) @ vh[:k, :]
        p = pseudo_inverse(m)
        scale = max(1.0, np.linalg.norm(m) ** 3)
        assert np.linalg.norm(m @ p @ m - m) < 1e-9 * scale
        assert np.linalg.norm(p @ m @ p - p) < 1e-9 * scale
        assert np.linalg.norm(adjoint(m @ p) - m @ p) < 1e-9 * scale
        assert np.linalg.norm(adjoint(p @ m) - p @ m) < 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_norm_properties(n, seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n, n)
    assert operator_norm(m) == pytest.approx(operator_norm(adjoint(m)), rel=1e-8)
    assert spectral_radius(m) <= operator_norm(m) + 1e-10


def test_spectral_split_diagonal():
    dec = c0_c1_decompose(np.diag([1.0, 0.5]))
    assert_allclose(dec.block_c0, [[0.5]], atol=1e-12)
    assert_allclose(np.abs(dec.block_c1), [[1.0]], atol=1e-12)


def test_spectral_split_unitary_has_empty_interior():
    rng = np.random.default_rng(2)
    z = random_complex(rng, 4, 4)
    q, _ = np.linalg.qr(z)
    dec = c0_c1_decompose(q)
    assert dec.block_c0.shape == (0, 0)
    assert dec.block_c1.shape == (4, 4)


def test_spectral_split_coupled():
    s = np.array([[0.5, 1.0], [0.0, 1.0]])
    dec = c0_c1_decompose(s)
    t = adjoint(dec.w) @ s @ dec.w
    assert_allclose(dec.block_c0, [[0.5]], atol=1e-12)
    assert abs(t[0, 1]) > 0.1  # genuine coupling survives the basis change
    assert np.linalg.norm(np.tril(t, -1)) < 1e-12


def test_spectral_split_rejects_expanding():
    with pytest.raises(AssumptionError):
        c0_c1_decompose(np.diag([2.0, 0.5]))


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(23)
    m = random_complex(rng, 3, 5)
    d = matrix_to_json_dict(m)
    txt = json.dumps(d)
    back = matrix_from_json_dict(json.loads(txt))
    assert np.array_equal(back, m)  # bit-identical round trip


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2, "data": [[1, 0]] * 3},
        {"rows": 2, "cols": 2},
        {"rows": -1, "cols": 2, "data": []},
        {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        [1, 2, 3],
    ],
)
def test_matrix_json_rejects_malformed(payload):
    with pytest.raises(MatrixFormatError):
        matrix_from_json_dict(payload)
