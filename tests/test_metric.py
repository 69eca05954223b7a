import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from opslab import (
    AssumptionError,
    adjoint,
    ascent_bound_check,
    c0_c1_decompose,
    canonical_left_m_inverse,
    certify_power_bounded,
    douglas_factor,
    douglas_mu,
    extract_isometry,
    invariant_metric,
    is_left_m_inverse,
    metric,
    null_space,
    operator_norm,
    pf_property_check,
    similar_to_unitary,
    similarity_certificate,
    verify_prop_isometric,
)
from opslab import suites
from opslab.gen import (
    derive_rng,
    gen_left_m_pair,
    gen_power_bounded,
    gen_similar_isometry,
    haar_unitary,
    random_positive_definite,
)

J2 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
COUPLED = np.array([[1.0, 1.0], [0.0, 0.5]], dtype=complex)


# ---------------------------------------------------------------------------
# power boundedness
# ---------------------------------------------------------------------------

def test_certify_unitary():
    u = haar_unitary(4, derive_rng(0))
    report = certify_power_bounded(u)
    assert report.bounded
    assert report.m1_estimate == pytest.approx(1.0, abs=1e-10)
    assert report.spectral_radius == pytest.approx(1.0, abs=1e-10)


def test_certify_jordan_block_unbounded():
    report = certify_power_bounded(J2, horizon=16)
    assert not report.bounded
    assert report.witness is not None
    lam, reason = report.witness
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert "semisimple" in reason
    # The power norms witness the growth: ||S^n|| >= n.
    assert report.m1_estimate >= 16.0


def test_certify_mixed_diagonal():
    report = certify_power_bounded(np.diag([0.9, 1.0]))
    assert report.bounded
    assert report.m1_estimate == pytest.approx(1.0, abs=1e-12)


def test_certify_expanding_matrix():
    report = certify_power_bounded(np.diag([1.5, 0.5]))
    assert not report.bounded
    assert report.witness[1] == "spectral radius exceeds 1"


def test_certify_witness_overflow_reports_infinity():
    # Powers of a spectral radius 1e6 overflow within the 64-step horizon.
    report = certify_power_bounded(np.diag([1e6, 0.5]))
    assert not report.bounded
    assert report.witness[1] == "spectral radius exceeds 1"
    assert report.m1_estimate == np.inf
    payload = report.to_json_dict()
    assert payload["m1_estimate"] is None
    json.dumps(payload, allow_nan=False)


def test_certify_decision_skips_power_norm_witness(monkeypatch):
    calls = []

    def counting_norm(m):
        calls.append(1)
        return operator_norm(m)

    monkeypatch.setattr(metric, "operator_norm", counting_norm)
    report = certify_power_bounded(haar_unitary(8, derive_rng(4)))
    assert report.bounded
    assert len(calls) <= 1
    assert report.m1_estimate == pytest.approx(1.0, abs=1e-10)


def test_certify_cluster_edge_and_witness_window():
    # ||S|| is the golden ratio, so eigenvalues closer than 1e-6 * 1.618
    # form one cluster: a phase gap of 3.2e-6 leaves two simple unimodular
    # eigenvalues, a gap of 8e-7 reads as a Jordan block.
    def near_defective(delta):
        return np.array([[1.0, 1.0], [0.0, np.exp(1j * delta)]])

    assert certify_power_bounded(near_defective(3.2e-6)).bounded
    report = certify_power_bounded(near_defective(8e-7))
    assert not report.bounded
    assert report.witness[1] == "unimodular eigenvalue is not semisimple"
    # The witness is max ||S^n|| over n <= horizon, a lower bound on the
    # sup, which is about 2 / delta here.
    report = certify_power_bounded(near_defective(1e-3))
    assert report.bounded
    assert report.m1_estimate == pytest.approx(64.005, abs=1e-3)
    assert report.to_json_dict()["horizon"] == 64
    wide = certify_power_bounded(near_defective(1e-3), horizon=4000)
    assert wide.m1_estimate == pytest.approx(2000.0, abs=1e-3)


def test_certify_generated_corpus():
    for i in range(50):
        s = gen_power_bounded(int(derive_rng(i).integers(2, 9)), seed=i)
        assert certify_power_bounded(s).bounded


# ---------------------------------------------------------------------------
# invariant metric and its consequences
# ---------------------------------------------------------------------------

def test_invariant_metric_unitary_is_identity():
    u = haar_unitary(5, derive_rng(3))
    x = invariant_metric(u)
    assert_allclose(x, np.eye(5), atol=1e-10)


def test_invariant_metric_generated_instances():
    for i in range(25):
        n = int(derive_rng(i, 1).integers(1, 9))
        s, _, _ = gen_similar_isometry(n, seed=1000 + i)
        x = invariant_metric(s)
        assert operator_norm(x) == pytest.approx(1.0, abs=1e-12)
        res = np.linalg.norm(adjoint(s) @ x @ s - x)
        assert res <= 1e-8 * np.linalg.norm(x)
        assert np.linalg.eigvalsh(x).min() > 0


def test_invariant_metric_decaying_scalar_fails():
    with pytest.raises(AssumptionError, match="zero"):
        invariant_metric(np.array([[0.5]], dtype=complex))


def test_invariant_metric_singular_fixed_point_fails():
    with pytest.raises(AssumptionError):
        invariant_metric(np.diag([1.0, 0.5]).astype(complex) @ np.eye(2))


def test_invariant_metric_jordan_fails():
    with pytest.raises(AssumptionError):
        invariant_metric(J2)


def test_invariant_metric_refusal_categories():
    with pytest.raises(AssumptionError, match="only solution .* is zero"):
        invariant_metric(np.diag([0.5, -0.25j]))
    for s in (np.diag([1.0, 0.5]), J2, np.diag([1.5, 1.0])):
        with pytest.raises(AssumptionError, match="not positive definite"):
            invariant_metric(s)


def _stein_fixed_point_basis(s):
    """Oracle: orthonormal basis of the kernel of the vectorized map
    ``X -> S* X S - X``, an n^2 x n^2 matrix (column-major vec)."""
    n = s.shape[0]
    return null_space(np.kron(s.T, adjoint(s)) - np.eye(n * n))


def _assert_in_fixed_point_space(s, x, dimension):
    basis = _stein_fixed_point_basis(s)
    # For S similar to a unitary, the fixed-point space has dimension
    # sum over distinct eigenvalues of (multiplicity)^2.
    assert basis.shape[1] == dimension
    vec = x.flatten(order="F")
    assert np.linalg.norm(vec - basis @ (adjoint(basis) @ vec)) <= 1e-10 * np.linalg.norm(vec)


def _similar_to_diagonal(phases, seed):
    """``P0^{-1} U diag(phases) U* P0`` with Haar U and a random positive P0."""
    rng = derive_rng(seed)
    n = len(phases)
    p0 = random_positive_definite(n, rng)
    u = haar_unitary(n, rng)
    return np.linalg.solve(p0, u @ np.diag(phases) @ adjoint(u) @ p0)


def test_invariant_metric_lies_in_kronecker_fixed_point_space():
    for n in range(1, 9):  # simple eigenvalues
        s, _, _ = gen_similar_isometry(n, seed=40 + n)
        _assert_in_fixed_point_space(s, invariant_metric(s), n)
    s = _similar_to_diagonal(np.repeat(np.exp([0.3j, 2.0j]), 6), seed=9)
    _assert_in_fixed_point_space(s, invariant_metric(s), 6**2 + 6**2)


@pytest.mark.parametrize("seed", range(5))
def test_similarity_certificate_across_the_cluster_edge(seed):
    # Pull one eigenvalue to delta from another, from equal through the
    # clustering tolerance of certify_power_bounded and past it.
    s, p0, u = gen_similar_isometry(6, seed=seed)
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.diag(t).copy()
    cluster_tol = metric._CLUSTER_TOL * max(1.0, operator_norm(s))
    for ratio in (0, 1e-3, 0.1, 0.5, 0.9, 1.1, 2, 10):
        phases[1] = phases[0] * np.exp(1j * ratio * cluster_tol)
        s_delta = np.linalg.solve(p0, z @ np.diag(phases) @ adjoint(z) @ p0)
        cert = similarity_certificate(s_delta)
        assert cert.residual_metric <= 1e-8 * max(1.0, np.linalg.norm(s_delta) ** 2)
        assert cert.residual_isometry <= 1e-8 * max(1.0, np.linalg.norm(cert.v) ** 2)


def test_near_defective_blocks_are_certified_or_refused():
    # [[1, a], [0, 1]] with a below the cluster tolerance is power bounded
    # at tolerance; the certificate either passes its checks or is refused,
    # it never fails an internal check.
    for a in (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 5e-7):
        for k in range(4):
            s = np.array([[1.0, a], [0.0, 1.0]], dtype=complex)
            if k:
                q = haar_unitary(2, derive_rng(50 + k))
                s = q @ s @ adjoint(q)
            try:
                cert = similarity_certificate(s)
            except AssumptionError:
                continue
            assert cert.residual_isometry <= 1e-8 * max(1.0, np.linalg.norm(cert.v) ** 2)


def test_extract_isometry_identity_metric():
    u = haar_unitary(3, derive_rng(4))
    cert = extract_isometry(u, np.eye(3, dtype=complex))
    assert_allclose(cert.v, u)


def test_extract_isometry_recovers_unitary():
    s, p0, u = gen_similar_isometry(4, seed=21)
    cert = extract_isometry(s, p0)
    v = cert.v
    assert np.linalg.norm(adjoint(v) @ v - np.eye(4)) < 1e-9
    assert np.linalg.norm(v - u) < 1e-8 * max(1.0, np.linalg.norm(u))
    # The certificate carries the residuals extract_isometry checked.
    p2 = p0 @ p0
    assert cert.residual_metric == np.linalg.norm(adjoint(s) @ p2 @ s - p2)
    assert cert.residual_isometry == np.linalg.norm(adjoint(v) @ v - np.eye(4))
    assert cert.residual_similarity == np.linalg.norm(p0 @ s - v @ p0)


def test_extract_isometry_rejects_non_metric():
    with pytest.raises(AssumptionError):
        extract_isometry(J2, np.eye(2, dtype=complex))


def test_canonical_left_m_inverse():
    u = haar_unitary(3, derive_rng(6))
    t, _ = canonical_left_m_inverse(u, np.eye(3, dtype=complex), 1)
    assert_allclose(t, adjoint(u), atol=1e-12)

    s, p0, _ = gen_similar_isometry(4, seed=8)
    t, residual = canonical_left_m_inverse(s, p0, 2)
    # The returned residual is the order-2 defect the solver checked.
    assert residual == pytest.approx(is_left_m_inverse(s, t, 2)[1], rel=1e-12, abs=1e-300)
    for m in range(1, 5):
        ok, _ = is_left_m_inverse(s, t, m)
        assert ok
    with pytest.raises(AssumptionError):
        canonical_left_m_inverse(J2, np.eye(2, dtype=complex), 2)


def test_similarity_certificate_pipeline():
    s, _, _ = gen_similar_isometry(5, seed=33)
    cert = similarity_certificate(s)
    scale = max(1.0, np.linalg.norm(s) ** 2)
    assert cert.residual_metric <= 1e-8 * scale
    assert cert.residual_isometry <= 1e-8
    assert cert.residual_similarity <= 1e-8 * scale
    assert np.linalg.eigvalsh(cert.p).min() > 0
    payload = cert.to_json_dict()
    assert set(payload) == {"P", "V", "residuals"}
    assert set(payload["residuals"]) == {"metric", "isometry", "similarity"}
    assert np.array_equal(cert.s, s) and cert.s is not s
    assert "s=" not in repr(cert)


# ---------------------------------------------------------------------------
# Douglas factorization
# ---------------------------------------------------------------------------

def test_douglas_factor_projection_case():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, sv, vh = np.linalg.svd(b)
    sv[2:] = 0.0
    b = (u * sv) @ vh
    c, mu2 = douglas_factor(b, b)
    # C is the orthogonal projection onto the row space of B.
    assert_allclose(c @ c, c, atol=1e-10)
    assert_allclose(adjoint(c), c, atol=1e-10)
    assert mu2 == pytest.approx(1.0, abs=1e-8)


def test_douglas_factor_invertible_case():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    a = rng.standard_normal((3, 3))
    c, _ = douglas_factor(a, b)
    assert_allclose(c, np.linalg.solve(b, a), atol=1e-9)


def test_douglas_factor_rank_one_example():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    c, mu2 = douglas_factor(a, b)
    assert_allclose(c, np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-12)
    assert mu2 == pytest.approx(1.0, abs=1e-10)


def test_douglas_mu_scaling():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert douglas_mu(2.0 * b, b) == pytest.approx(4.0, rel=1e-8)
    assert douglas_mu(b, b) == pytest.approx(1.0, rel=1e-8)


def test_douglas_mu_matches_factor_norm():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if trial % 2:
            u, sv, vh = np.linalg.svd(b)
            sv[int(rng.integers(1, n)):] = 0.0
            b = (u * sv) @ vh
        c0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = b @ c0
        c, mu2 = douglas_factor(a, b)
        assert operator_norm(c) ** 2 == pytest.approx(mu2, rel=1e-6, abs=1e-8)
        assert operator_norm(c) <= operator_norm(c0) + 1e-8


def test_douglas_rejects_range_violation():
    a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(AssumptionError, match="no factor exists .*witness"):
        douglas_factor(a, b)
    with pytest.raises(AssumptionError, match="no finite bound exists"):
        douglas_mu(a, b)


def test_douglas_factor_checks_range_inclusion_once(monkeypatch):
    rng = np.random.default_rng(7)
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = b @ (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    calls = []
    check = metric._range_inclusion_witness
    monkeypatch.setattr(metric, "_range_inclusion_witness", lambda *a: calls.append(1) or check(*a))
    _, mu2 = douglas_factor(a, b)
    assert len(calls) == 1
    assert mu2 == douglas_mu(a, b)


# ---------------------------------------------------------------------------
# asymptotic splitting, Putnam-Fuglede, rigidity
# ---------------------------------------------------------------------------

def test_c0_c1_diagonal():
    dec = c0_c1_decompose(np.diag([1.0, 0.5]))
    assert_allclose(dec.block_c0, [[0.5]], atol=1e-12)
    assert np.abs(dec.block_c1[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert dec.orthogonal


def test_c0_c1_unitary():
    u = haar_unitary(3, derive_rng(12))
    dec = c0_c1_decompose(u)
    assert dec.block_c0.shape == (0, 0)
    assert dec.block_c1.shape == (3, 3)
    assert dec.orthogonal


def test_c0_c1_coupled():
    dec = c0_c1_decompose(COUPLED)
    assert_allclose(dec.block_c0, [[0.5]], atol=1e-12)
    assert not dec.orthogonal
    assert np.linalg.norm(dec.coupling) > 0.1
    # W is a unitary Schur basis: W* S W is upper triangular, and the
    # coupling is its off-diagonal block.
    t = adjoint(dec.w) @ COUPLED @ dec.w
    assert np.linalg.norm(np.tril(t, -1)) < 1e-12
    assert_allclose(t[:1, 1:], dec.coupling, atol=1e-12)


def _sorted_split(s, band):
    """Oracle: the split from one Schur form sorted by LAPACK itself."""
    t, w, k = scipy.linalg.schur(s, output="complex", sort=lambda lam: bool(abs(lam) < 1.0 - band))
    return t[:k, :k], t[k:, k:]


def test_c0_c1_reordering_matches_the_sorted_schur_oracle():
    checked = 0
    for seed in range(40):
        n = 3 + seed % 6
        s = gen_power_bounded(n, seed=500 + seed)
        report = certify_power_bounded(s)
        lead = np.abs(np.diag(report.schur[0])) < 1.0 - report.band
        if lead[: np.count_nonzero(lead)].all():
            continue  # already ordered: no reordering to check
        checked += 1
        dec = c0_c1_decompose(s)
        c0, c1 = _sorted_split(s, report.band)
        assert dec.block_c0.shape == c0.shape and dec.block_c1.shape == c1.shape
        for mine, oracle in ((dec.block_c0, c0), (dec.block_c1, c1)):
            assert_allclose(np.sort_complex(np.diag(mine)), np.sort_complex(np.diag(oracle)), atol=1e-10)
        assert np.linalg.norm(adjoint(dec.w) @ dec.w - np.eye(n)) < 1e-12
        t = adjoint(dec.w) @ s @ dec.w
        assert np.linalg.norm(np.tril(t, -1)) < 1e-12 * np.linalg.norm(s)
    assert checked >= 10


def test_c0_c1_requires_power_bounded():
    for s in (J2, np.diag([2.0, 0.5])):
        with pytest.raises(AssumptionError):
            c0_c1_decompose(s)


def test_pf_unitary_and_contractive():
    u = haar_unitary(3, derive_rng(15))
    assert pf_property_check(u, sample_count=5).satisfies_pf
    contraction = 0.6 * haar_unitary(3, derive_rng(16))
    report = pf_property_check(contraction, sample_count=5)
    assert report.satisfies_pf and report.structural


def test_pf_coupled_fails_with_witness():
    report = pf_property_check(COUPLED, sample_count=5)
    assert not report.satisfies_pf
    assert not report.structural
    v, x = report.counterexample
    forward = np.linalg.norm(COUPLED @ x @ adjoint(v) - x)
    backward = np.linalg.norm(adjoint(COUPLED) @ x @ v - x)
    assert forward < 1e-8
    assert backward > 1e-6


def test_pf_orthogonal_sum_in_rotated_basis():
    rng = derive_rng(17)
    u = haar_unitary(2, rng)
    c = 0.7 * haar_unitary(2, rng)
    a = np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), c]])
    q = haar_unitary(4, rng)
    report = pf_property_check(q @ a @ adjoint(q), sample_count=5)
    assert report.satisfies_pf and report.structural


def test_pf_similar_to_unitary_but_not_normal_fails():
    # Orthogonality of the splitting is not enough: the unimodular block
    # must itself be unitary, which fails for a skewed similarity.
    s, _, _ = gen_similar_isometry(3, seed=77)
    report = pf_property_check(s, sample_count=5)
    assert not report.satisfies_pf
    assert report.counterexample is not None


def test_pf_requires_power_bounded():
    with pytest.raises(AssumptionError):
        pf_property_check(J2)


def test_ascent_bound_unitary_pair():
    rng = derive_rng(18)
    a = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    included, asc = ascent_bound_check(a, v)
    assert included
    assert asc <= 1


def test_ascent_bound_contractive():
    a = 0.5 * haar_unitary(3, derive_rng(19))
    v = haar_unitary(3, derive_rng(20))
    included, asc = ascent_bound_check(a, v)
    assert included  # trivial kernel
    assert asc == 0


def test_ascent_bound_zero_operator():
    a = np.zeros((2, 2), dtype=complex)
    included, asc = ascent_bound_check(a, np.eye(2, dtype=complex))
    assert included
    assert asc == 0


def test_ascent_bound_rejects_non_isometry():
    with pytest.raises(AssumptionError):
        ascent_bound_check(np.eye(2, dtype=complex), J2)


def test_similar_to_unitary_unitary_case():
    u = haar_unitary(3, derive_rng(22))
    u1, u2, p, residual = similar_to_unitary(similarity_certificate(u), adjoint(u), 1)
    assert np.linalg.norm(u1 - p @ u2 @ np.linalg.inv(p)) < 1e-10
    assert residual < 1e-10
    assert np.linalg.norm(adjoint(u1) @ u1 - np.eye(3)) < 1e-10


def test_similar_to_unitary_generated_pair():
    pair = gen_left_m_pair(4, 2, seed=29)
    cert = similarity_certificate(pair.s)
    u1, u2, p, residual = similar_to_unitary(cert, pair.t, 2)
    assert u1 is cert.v
    scale = max(1.0, operator_norm(u1))
    gap = operator_norm(u1 - p @ u2 @ np.linalg.inv(p))
    assert gap <= 1e-7 * scale
    # The returned residual is the conjugacy gap the solver checked.
    assert residual == pytest.approx(gap, rel=1e-12, abs=1e-300)
    # U1 models S: same spectrum up to ordering.
    eig_s = np.sort_complex(np.linalg.eigvals(pair.s))
    eig_u = np.sort_complex(np.linalg.eigvals(u1))
    assert np.linalg.norm(eig_s - eig_u) < 1e-7


def test_similarity_certificate_rejects_jordan():
    with pytest.raises(AssumptionError):
        similarity_certificate(J2)


def test_similar_to_unitary_rejects_jordan():
    # (J2 - I)^2 = 0, so J2 is a left 2-inverse of I, but not power bounded.
    cert = similarity_certificate(np.eye(2, dtype=complex))
    with pytest.raises(AssumptionError, match="power bounded T"):
        similar_to_unitary(cert, J2, 2)


def test_similar_to_unitary_rejects_non_pair():
    u = haar_unitary(3, derive_rng(24))
    with pytest.raises(AssumptionError, match="left 1-inverse pair"):
        similar_to_unitary(similarity_certificate(u), 2 * adjoint(u), 1)


def test_similarity_roundtrip_builds_one_certificate_per_matrix(monkeypatch):
    # One invariant metric for S and one for T* per instance.
    calls = []
    solve = metric.invariant_metric
    monkeypatch.setattr(metric, "invariant_metric", lambda *a: calls.append(1) or solve(*a))
    assert suites.run_similarity_roundtrip(count=5).passed
    assert len(calls) == 10


def test_similarity_roundtrip_beyond_the_tier1_seed():
    # Instance 115 (n = 3, cond(P_T*) ~ 1.7e3) missed the isometry tolerance
    # (4.2e-8 against 3.0e-8) when the metric was an averaged iterate.
    result = suites.run_similarity_roundtrip(seed=2036509382000, count=116, dim_max=8)
    assert result.passed, result.violations


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


def test_one_schur_form_per_operator(monkeypatch):
    s, _, _ = gen_similar_isometry(5, seed=12)
    rng = derive_rng(17)
    a = np.block([[haar_unitary(2, rng), np.zeros((2, 2))], [np.ones((2, 2)), 0.5 * np.eye(2)]])
    schur = _count_calls(monkeypatch, scipy.linalg, "schur")
    eigvals = _count_calls(monkeypatch, np.linalg, "eigvals")
    similarity_certificate(s)
    assert (len(schur), len(eigvals)) == (1, 0)
    schur.clear()
    report = pf_property_check(a, sample_count=3)
    assert (len(schur), len(eigvals)) == (1, 0)
    assert not report.satisfies_pf  # the coupling makes the splitting non-orthogonal


def test_similar_to_unitary_certifies_t_once(monkeypatch):
    pair = gen_left_m_pair(4, 2, seed=29)
    cert = similarity_certificate(pair.s)
    calls = _count_calls(monkeypatch, metric, "certify_power_bounded")
    similar_to_unitary(cert, pair.t, 2)
    assert len(calls) == 1  # inside similarity_certificate(T*)


def test_verify_prop_isometric():
    u = haar_unitary(3, derive_rng(23))
    assert verify_prop_isometric(u, 3) == (True, True)
    assert verify_prop_isometric(np.diag([0.5]).astype(complex), 2) == (False, False)
    for i in range(20):
        s = gen_power_bounded(4, seed=3000 + i)
        is_m, is_iso = verify_prop_isometric(s, 4)
        assert not (is_m and not is_iso)


def test_verify_prop_isometric_requires_power_bounded():
    with pytest.raises(AssumptionError):
        verify_prop_isometric(J2, 3)
