import ast
import json
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opslab import (
    DEFAULT_TOL,
    AssumptionError,
    IdentityCheckError,
    adjoint,
    ascent_bound_check,
    canonical_left_m_inverse,
    certify_power_bounded,
    douglas_factor,
    frobenius,
    invariant_metric,
    is_left_m_inverse,
    kernel_included,
    metric,
    null_space,
    operator_norm,
    pf_property_check,
    similar_to_unitary,
    similarity_certificate,
)
from opslab import minv, suites
from opslab.conj import hyperbolic_orthogonal_example
from opslab.gen import (
    derive_rng,
    gen_1c_isometry,
    gen_jordan,
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
    # Both eigenvalues have kappa ~ 1 / delta and ||S||_F = sqrt(3), so the
    # two merge when delta^2 <= 2 C eps sqrt(3), delta <= 8.8e-8 at C = 10:
    # a phase gap of 8e-7 leaves two simple unimodular eigenvalues (S is
    # diagonalizable), a gap of 5e-8 reads as a Jordan block.
    def near_defective(delta):
        return np.array([[1.0, 1.0], [0.0, np.exp(1j * delta)]])

    assert certify_power_bounded(near_defective(3.2e-6)).bounded
    assert certify_power_bounded(near_defective(8e-7)).bounded
    report = certify_power_bounded(near_defective(5e-8))
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


def per_power_m1(t, horizon):
    """The power-norm witness one ``operator_norm`` per power: the oracle."""
    m1, power = 0.0, np.eye(t.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            power = power @ t
            if not np.isfinite(power).all():
                return np.inf
            m1 = max(m1, operator_norm(power))
    return m1


def conjugated(m, seed):
    w = haar_unitary(m.shape[0], derive_rng(seed)) + 2.0 * np.eye(m.shape[0])
    return w @ m @ np.linalg.inv(w)


TRANSIENT = np.array([[0.5, 10.0], [0.0, 0.5]], dtype=complex)


def radius_scaled(n, radius, seed):
    """A random complex n x n matrix scaled to spectral radius ``radius``."""
    rng = derive_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return radius * g / np.max(np.abs(np.linalg.eigvals(g)))


def unimodular_with_huge_coupling(size):
    """``[[1, size], [0, exp(0.3 i)]]``: bounded powers with entries near ``size / 0.15``."""
    return np.array([[1.0, size], [0.0, np.exp(0.3j)]])


@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 200])
def test_m1_estimate_equals_the_per_power_norms(horizon):
    operators = [gen_power_bounded(n, seed=n) for n in (2, 5, 8)]
    operators += [gen_jordan(k, lam) for k, lam in [(2, 1.0), (3, np.exp(0.4j)), (4, 0.9), (3, 1.02)]]
    operators += [
        radius_scaled(6, 1.05, seed=11),  # radius > 1
        conjugated(gen_jordan(3, np.exp(0.7j)), seed=5),  # unimodular Jordan block
        hyperbolic_orthogonal_example(1.0),
        TRANSIENT,
        1e-100 * TRANSIENT,  # below the floor of the Gram bound
        1e-170 * TRANSIENT,  # Frobenius squares underflow
        np.diag([1e3, 0.5]),  # Frobenius squares overflow
        unimodular_with_huge_coupling(1e100),  # ||P* P||_F overflows, ||P* P||_inf does not
        unimodular_with_huge_coupling(1e160),  # P* P overflows, P is finite
        haar_unitary(6, derive_rng(12)),  # every power ties
        haar_unitary(24, derive_rng(13)),
        np.array([[0.0, 2.0], [0.5, 0.0]]),  # S^2 = I: the odd powers share the max
        np.diag([1.3e308, 1.3e308]),  # ||S||_F overflows, S is finite
        np.kron(np.eye(3), unimodular_with_huge_coupling(2e307)),  # ||S^n||_F overflows, S^n is finite
    ]
    if horizon in (64, 200):
        # Four powers fill the budget at n = 64, so these span 16 and 50 chunks.
        operators += [gen_power_bounded(64, seed=64), radius_scaled(64, 1.02, seed=3)]
    for s in operators:
        report = certify_power_bounded(s, horizon=horizon)
        assert report.m1_estimate == per_power_m1(report.schur[0], horizon)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.5, 1.1),
    coupling=st.floats(0.0, 10.0),
    horizon=st.integers(1, 200),
)
def test_m1_estimate_equals_the_per_power_norms_on_random_operators(n, seed, radius, coupling, horizon):
    # A unitary conjugate of a triangular T: eigenvalues of modulus up to
    # radius, the first on it, and a strictly upper part that sets the transient.
    rng = np.random.default_rng(seed)
    moduli = radius * np.concatenate([[1.0], rng.uniform(0.0, 1.0, n - 1)])
    t = np.diag(moduli * np.exp(2j * np.pi * rng.random(n)))
    t += coupling * np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    report = certify_power_bounded(q @ t @ q.conj().T, horizon=horizon)
    assert report.m1_estimate == per_power_m1(report.schur[0], horizon)


def test_m1_estimate_overflows_to_inf_without_a_warning():
    # 1.5^n overflows near n = 1750; the pytest configuration turns any
    # numpy warning into an error.
    report = certify_power_bounded(np.array([[1.5, 1.0], [0.0, -1.5]]), horizon=4000)
    assert report.m1_estimate == np.inf
    assert certify_power_bounded(np.diag([1e300, 1.0]), horizon=3).m1_estimate == np.inf


def svd_count(monkeypatch, report):
    """``report.m1_estimate`` and the number of matrices its SVDs take."""
    count = 0
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        nonlocal count
        count += 1 if np.ndim(a) == 2 else len(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    m1 = report.m1_estimate
    monkeypatch.undo()
    return m1, count


def test_m1_estimate_svds_only_the_powers_that_can_set_the_max(monkeypatch):
    s = np.array([[1.0, 1.0], [0.0, np.exp(1e-3j)]])
    report = certify_power_bounded(s, horizon=4000)
    m1, count = svd_count(monkeypatch, report)
    assert m1 == pytest.approx(2000.0, abs=1e-3)
    assert m1 == per_power_m1(report.schur[0], 4000)
    assert count <= 8
    # e^n grows so fast that the SVD of the last power settles the max.
    assert svd_count(monkeypatch, certify_power_bounded(hyperbolic_orthogonal_example(1.0)))[1] == 1
    # So does 1e3^n, whose entries pass 1e154 at n = 52: each power is
    # scaled before its entries are squared, so its bound stays finite.
    assert svd_count(monkeypatch, certify_power_bounded(np.diag([1e3, 0.5])))[1] == 1
    # So does a growing input over sixteen chunks of four powers (n = 64).
    assert svd_count(monkeypatch, certify_power_bounded(radius_scaled(64, 1.05, seed=3)))[1] == 1
    # A decaying transient reaches its max in its first powers; ten times
    # the horizon takes no more SVDs.
    _, first = svd_count(monkeypatch, certify_power_bounded(TRANSIENT, horizon=64))
    _, ten = svd_count(monkeypatch, certify_power_bounded(TRANSIENT, horizon=640))
    assert first and ten == first


@pytest.mark.parametrize("n", [16, 24, 32])
def test_m1_estimate_svds_few_powers_of_power_bounded_operators(monkeypatch, n):
    # One SVD per power would take 512 matrices on these eight operators;
    # the Frobenius bound alone leaves 269, 328 and 273 at n = 16, 24, 32.
    counts = [svd_count(monkeypatch, certify_power_bounded(gen_power_bounded(n, seed)))[1] for seed in range(8)]
    assert sum(counts) <= 32


def ladder_power_bounded(n, seed):
    """The ``check power-bounded`` input of the benchmark's ladder at ``seed`` (first repeat).

    ``W (D1 + D0) W^-1``: D1 holds n // 2 unimodular phases with gaps of at
    least pi / (n // 2), D0 is a Gaussian block scaled to spectral radius
    0.8, and W is a unitary times a Hermitian positive definite factor of
    condition 10.  The draws follow ``perfbench/inputs.power_bounded``.
    """
    key = [seed] + [zlib.crc32(part.encode()) for part in ("ladder", "power-bounded")] + [n, 0]
    rng = np.random.default_rng(np.random.SeedSequence(key))
    k = n // 2
    d = np.zeros((n, n), dtype=complex)
    theta = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    d[:k, :k] = np.diag(np.exp(1j * theta))
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    d[k:, k:] = g * (0.8 / np.abs(np.linalg.eigvals(g)).max())
    sv = np.exp(rng.uniform(0.0, np.log(10.0), n))
    sv[0], sv[-1] = 1.0, 10.0
    q = haar_unitary(n, rng)
    w = haar_unitary(n, rng) @ ((q * sv) @ q.conj().T)
    return w @ np.linalg.solve(w.T, d.T).T


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 24, 32])
def test_m1_estimate_svds_few_powers_of_the_ladder_draws(monkeypatch, n, seed):
    # Half the spectrum unimodular puts several singular values of each
    # power near the max, where a screen by ||P* P||^(1/2) leaves most of
    # the 64 powers to their SVDs.
    report = certify_power_bounded(ladder_power_bounded(n, seed))
    assert report.bounded
    m1, count = svd_count(monkeypatch, report)
    assert m1 == per_power_m1(report.schur[0], 64)
    assert count <= 8


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_m1_estimate_holds_its_powers_in_a_fixed_budget(n):
    report = certify_power_bounded(gen_power_bounded(n, seed=n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report.m1_estimate
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # All 64 powers at once read 0.27, 1.08, 4.3 and 17.3 MiB.
    budget = {16: 0.27 * 2**20, 32: 1.1 * 2**20}.get(n, metric._POWER_BYTES + 4 * 16 * n * n)
    assert peak <= budget


def test_certify_names_a_rounding_split_jordan_block():
    # w J2(lam) w^-1 with |lam| = 1: rounding splits the double eigenvalue
    # by about sqrt(eps), often past the unimodular band 1 + 1e-8.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lam = np.exp(2j * np.pi * rng.random())
        report = certify_power_bounded(w @ gen_jordan(2, lam) @ np.linalg.inv(w))
        assert not report.bounded
        assert report.witness[1] == "unimodular eigenvalue is not semisimple"
        assert report.witness[0] == pytest.approx(lam, abs=1e-6)
        assert not report.unimodular_semisimple


def test_certify_keeps_the_radius_reason_off_the_circle():
    simple = certify_power_bounded(np.diag([1.05, 1.0, 0.5]))
    assert simple.witness == (1.05, "spectral radius exceeds 1")
    assert simple.unimodular_semisimple
    # A semisimple double eigenvalue just past the band is not a defect.
    double = certify_power_bounded(np.diag([1.0 + 1e-7, 1.0 + 1e-7]))
    assert double.witness[1] == "spectral radius exceeds 1"
    for t in (0.5, 1.0, 2.0):
        s, _ = gen_1c_isometry(2, seed=3, hyperbolic=True, t=t)
        report = certify_power_bounded(s)
        assert report.witness[1] == "spectral radius exceeds 1"
        assert abs(report.witness[0]) == pytest.approx(np.exp(t))


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


def _cluster_edge(seed):
    """``gen_similar_isometry(6, seed)`` with one eigenvalue pulled to delta
    from another, from equal (a scalar cluster) through ``1e-6 * max(1,
    ||S||_2)``, once the certificate's fixed clustering distance, and past it."""
    s, p0, u = gen_similar_isometry(6, seed=seed)
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.diag(t).copy()
    cluster_tol = 1e-6 * max(1.0, operator_norm(s))
    for ratio in (0, 1e-3, 0.1, 0.5, 0.9, 1.1, 2, 10):
        phases[1] = phases[0] * np.exp(1j * ratio * cluster_tol)
        yield np.linalg.solve(p0, z @ np.diag(phases) @ adjoint(z) @ p0)


@pytest.mark.parametrize("seed", range(5))
def test_similarity_certificate_across_the_cluster_edge(seed):
    for s_delta in _cluster_edge(seed):
        cert = similarity_certificate(s_delta)
        assert cert.residual_metric <= 1e-8 * max(1.0, np.linalg.norm(s_delta) ** 2)


def test_the_metric_factor_is_unitary_by_construction():
    # V = O diag(lambda / |lambda|) O*, so V* V = I holds to rounding on the
    # conditioning corpus and across the cluster edge; the certificate
    # carries no isometry residual.
    inputs = [s for s, _ in _conditioning_corpus(1e4, 200)]
    inputs += [s for seed in range(5) for s in _cluster_edge(seed)]
    for s in inputs:
        _, _, v = metric._metric_factor(s, DEFAULT_TOL)
        assert frobenius(adjoint(v) @ v - np.eye(len(s))) <= DEFAULT_TOL.zero_threshold(frobenius(v) ** 2)


def _row_block_decoupling(s):
    """``(W, V, block)`` of the split of S, decoupled by one ``ztrsyl`` per
    block boundary against the trailing part of T: row block i of W is
    ``[0, I, -Y_i]`` with ``T_ii Y_i - Y_i T_rest = -T_i,rest``, and
    ``V = W^{-1}``.  The blocks are the report's clusters, and ``block``
    holds each position's block index."""
    t, _, labels = certify_power_bounded(s).split
    n = t.shape[0]
    bounds = [*np.flatnonzero(np.diff(labels, prepend=-1)), n]
    w = np.eye(n, dtype=complex)
    for lo, hi in zip(bounds[:-2], bounds[1:-1]):
        y, factor, _ = scipy.linalg.lapack.ztrsyl(t[lo:hi, lo:hi], t[hi:, hi:], -t[lo:hi, hi:], isgn=-1)
        w[lo:hi, hi:] = -y / factor
    v, _ = scipy.linalg.lapack.ztrtri(w, unitdiag=1)
    return w, v, np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def _decoupling_calls(monkeypatch, s):
    """The results of the ``ztrsyl`` and ``ztrtri`` calls of ``similarity_certificate(s)``."""
    sylvester, triangular = [], []
    ztrsyl, ztrtri = scipy.linalg.lapack.ztrsyl, scipy.linalg.lapack.ztrtri

    def solve(*args, **kwargs):
        sylvester.append(ztrsyl(*args, **kwargs))
        return sylvester[-1]

    def invert(*args, **kwargs):
        triangular.append(ztrtri(*args, **kwargs))
        return triangular[-1]

    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", solve)
    monkeypatch.setattr(scipy.linalg.lapack, "ztrtri", invert)
    similarity_certificate(s)
    monkeypatch.undo()
    return sylvester, triangular


def test_the_certificate_decouples_its_schur_form_by_one_sylvester_solve(monkeypatch):
    # gen_similar_isometry draws n distinct eigenvalues: n blocks, one solve.
    for n in range(2, 9):
        s, _, _ = gen_similar_isometry(n, seed=n)
        sylvester, _ = _decoupling_calls(monkeypatch, s)
        assert len(sylvester) == 1


def test_the_cluster_rule_takes_one_sylvester_solve_and_no_svd(monkeypatch):
    s, _, _ = gen_similar_isometry(6, seed=3)
    owners = {"ztrsyl": scipy.linalg.lapack, "ztrtri": scipy.linalg.lapack, "svd": np.linalg}
    calls = {name: _count_calls(monkeypatch, owner, name) for name, owner in owners.items()}
    assert len(certify_power_bounded(s).clusters) == 6
    assert {name: len(c) for name, c in calls.items()} == {"ztrsyl": 1, "ztrtri": 1, "svd": 0}


def test_the_one_sylvester_solve_matches_the_row_block_decoupling(monkeypatch):
    # On the conditioning corpus (cond(W) up to 2.5e7) and the cluster edge
    # (scalar clusters included) both decouplings agree to 5.4e-15 in the
    # relative Frobenius norm; the bound leaves 200 times that.  The entries
    # of R below the diagonal and inside a block are exact zeros.  The
    # certificate's own solve takes every position as a block, and the
    # metric reuses it unless a cluster holds several positions.
    inputs = [s for s, _ in _conditioning_corpus(1e4, 200)]
    inputs += [s for seed in range(5) for s in _cluster_edge(seed)]
    for s in inputs:
        w_ref, v_ref, block = _row_block_decoupling(s)
        sylvester, triangular = _decoupling_calls(monkeypatch, s)
        assert len(sylvester) == len(triangular) == (1 if len(set(block)) == len(block) else 2)
        (r, scale, _), (w, _) = sylvester[-1], triangular[-1]
        inside = (block[:, None] == block) | np.tri(len(block), k=-1, dtype=bool)
        assert np.all(r[inside] == 0)
        v = np.eye(len(block)) + r / scale
        assert frobenius(v - v_ref) <= 1e-12 * frobenius(v_ref)
        assert frobenius(w - w_ref) <= 1e-12 * frobenius(w_ref)


def test_near_defective_blocks_are_certified_or_refused():
    # [[1, a], [0, 1]], unrotated and rotated: the certificate either passes
    # its checks or is refused, it never fails an internal check.
    for a in (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 5e-7):
        for k in range(4):
            s = np.array([[1.0, a], [0.0, 1.0]], dtype=complex)
            if k:
                q = haar_unitary(2, derive_rng(50 + k))
                s = q @ s @ adjoint(q)
            _certified(s)


def _jordan_edge_in_five_bases(a):
    """``S = [[1, a], [0, 1]]``, then ``Q S Q*`` for ``Q = haar_unitary(2, derive_rng(k, 0))``, k = 0..3."""
    s = np.array([[1.0, a], [0.0, 1.0]], dtype=complex)
    return [s, *(q @ s @ adjoint(q) for q in (haar_unitary(2, derive_rng(k, 0)) for k in range(4)))]


def _certified(s):
    """Whether ``similarity_certificate`` certifies S rather than refuse it."""
    try:
        similarity_certificate(s)
    except AssumptionError:
        return False
    return True


def test_the_jordan_edge_is_power_bounded_in_every_basis_and_certified_below_it():
    # The two eigenvalues merge in every basis; the cluster's block minus its
    # mean has the singular value a, against zero_threshold(||S||_F) = 1.4e-8.
    # In exact arithmetic the block is not power bounded for any a > 0.
    for a in (1e-9, 1e-8):
        assert all(certify_power_bounded(s).bounded for s in _jordan_edge_in_five_bases(a))
        assert all(map(_certified, _jordan_edge_in_five_bases(a)))
    for a in (3e-8, 1e-7, 1e-6):
        for s in _jordan_edge_in_five_bases(a):
            report = certify_power_bounded(s)
            assert not report.bounded and report.witness[1] == "unimodular eigenvalue is not semisimple"
            assert not _certified(s)


@pytest.mark.parametrize("a", [3e-8, 1e-7, 1e-6])
def test_the_jordan_edge_gets_one_positivity_verdict_in_every_basis(a):
    assert len({_certified(s) for s in _jordan_edge_in_five_bases(a)}) == 1


def test_eigenvalue_condition_numbers_match_the_left_and_right_eigenvectors():
    # kappa_i = ||V e_i|| ||e_i* W|| = 1 / |y_i* x_i| for unit eigenvectors;
    # both sides carry rounding: 1.5e-12 relative at worst here, and 4.2e-12
    # on gen_power_bounded(7, 1).
    for n in range(4, 33, 4):
        for seed in range(10):
            s = gen_power_bounded(n, seed)
            report = certify_power_bounded(s)
            v, w = report.decoupling
            kappa = np.linalg.norm(v, axis=0) * np.linalg.norm(w, axis=1)
            lam, y, x = scipy.linalg.eig(s, left=True, right=True)
            order = [int(np.argmin(np.abs(lam - mu))) for mu in np.diag(report.schur[0])]
            assert sorted(order) == list(range(n))
            reference = 1.0 / np.abs(np.sum(y.conj() * x, axis=0))[order]
            assert_allclose(kappa, reference, rtol=1e-11, atol=0.0)


def _rotated_jordan(blocks, lam, b):
    """``Q (J_k1(lam) (+) J_k2(lam) (+) ...) Q*`` with ``Q = haar_unitary(n, derive_rng(b, n))``."""
    a = scipy.linalg.block_diag(*(gen_jordan(k, lam) for k in blocks))
    q = haar_unitary(a.shape[0], derive_rng(b, a.shape[0]))
    return q @ a @ adjoint(q)


def _rotated_jordan_blocks(sizes=range(1, 5), bases=range(4)):
    """``(Q J_k(lam) Q*, k, lam)`` at the four gate phases, ``Q = haar_unitary(k, derive_rng(b, k))``."""
    for k in sizes:
        for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
            for b in bases:
                yield _rotated_jordan([k], lam, b), k, lam


def _unitary_plus_nilpotent(count):
    """``(Q (U + N) Q*, p)``: n = 2..8, Q Haar, and per Jordan-like block of size k <= p
    ``lam I + N_k`` with lam unimodular and N_k strictly upper Gaussian, so N, of
    order p <= 4 (the largest block, drawn first), commutes with U."""
    rng = np.random.default_rng(13)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, min(4, n) + 1))
        sizes = [p]
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, min(p, n - sum(sizes)) + 1)))
        blocks = [
            np.exp(2j * np.pi * rng.random()) * np.eye(k)
            + np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), 1)
            for k in sizes
        ]
        q = haar_unitary(n, rng)
        yield q @ scipy.linalg.block_diag(*blocks) @ adjoint(q), p


@pytest.mark.parametrize("factor", [10.0, 100.0])
def test_every_coalescence_factor_from_10_to_100_gives_the_exact_verdicts(monkeypatch, factor):
    # Rounding splits a rotated k-block by about eps^(1/k) (1e-4 at k = 4),
    # far past any fixed clustering distance; the condition numbers merge it
    # at every factor in the band, and the default is its lower end.  At
    # 1000, one of the 300 U + N inputs is misread.
    assert metric._COALESCE == 10.0
    monkeypatch.setattr(metric, "_COALESCE", factor)
    jordan = list(_rotated_jordan_blocks())
    assert [certify_power_bounded(s).bounded for s, *_ in jordan] == [k == 1 for _, k, _ in jordan]
    pairs = list(_unitary_plus_nilpotent(300))
    assert [certify_power_bounded(s).bounded for s, _ in pairs] == [p == 1 for _, p in pairs]
    for a in (1e-9, 1e-8, 3e-8, 1e-7, 1e-6):
        assert [certify_power_bounded(s).bounded for s in _jordan_edge_in_five_bases(a)] == [a <= 1e-8] * 5


def test_the_cluster_rule_scales_the_norm_it_reads():
    # ||S||_F of diag(1e300, 1) overflows unscaled; pytest turns a numpy
    # warning into an error.  [[1, 1e160], [0, e^(0.3i)]] has kappa near
    # 3e160, past the largest double for its norms' squares: its two
    # eigenvalues lie within a backward error of eps ||S||_F of each other,
    # one cluster at the circle whose block is far from scalar.
    assert certify_power_bounded(np.diag([1e300, 1.0])).witness == (1e300, "spectral radius exceeds 1")
    report = certify_power_bounded(unimodular_with_huge_coupling(1e160))
    assert report.clusters == ((0, 1),)
    assert report.witness == (1.0, "unimodular eigenvalue is not semisimple")


def test_a_cluster_is_interior_only_when_every_member_is():
    # Gaps of 0.55, 0.3 and 0.5 against kappa near 1e7 / gap: each pair is
    # one cluster whose mean lies inside the disc, of modulus 0.775, 0.989
    # and 0.75.  A member past the band still names the radius, and a
    # member in the band still takes the semisimplicity test.
    report = certify_power_bounded(np.array([[1.05, 1e7], [0.0, 0.5]]))
    assert report.witness == (1.05, "spectral radius exceeds 1")
    for s in (unimodular_with_huge_coupling(1e7), np.array([[1.0, 1e7], [0.0, 0.5]])):
        report = certify_power_bounded(s)
        assert report.clusters == ((0, 1),)
        assert report.witness == (1.0, "unimodular eigenvalue is not semisimple")
    # ker(A - I) = span e1, and (A* - I) e1 = [0, 1e7]: the property fails,
    # so the split must not accept it.
    with pytest.raises(AssumptionError, match="not semisimple"):
        pf_property_check(unimodular_with_huge_coupling(1e7))


def _conditioning_corpus(c, count):
    """``S = P0^-1 V P0`` with V Haar, n = 2..8 and ``P0 = U diag(geomspace(1, 1/c, n)) U*``."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        v = haar_unitary(n, rng)
        u = haar_unitary(n, rng)
        p0 = u @ np.diag(np.geomspace(1, 1 / c, n)) @ adjoint(u)
        yield np.linalg.solve(p0, v @ p0), p0


def test_canonical_left_m_inverse():
    u = haar_unitary(3, derive_rng(6))
    t, _ = canonical_left_m_inverse(similarity_certificate(u))
    assert_allclose(t, adjoint(u), atol=1e-12)

    s, _, _ = gen_similar_isometry(4, seed=8)
    t, residual = canonical_left_m_inverse(similarity_certificate(s))
    # The returned residual is the order-1 defect T S - I the solver checked.
    assert residual == pytest.approx(is_left_m_inverse(s, t, 1)[1], rel=1e-12, abs=1e-300)
    for m in range(1, 5):
        ok, _ = is_left_m_inverse(s, t, m)
        assert ok
    with pytest.raises(AssumptionError):  # J2 is not power bounded: no certificate
        canonical_left_m_inverse(similarity_certificate(J2))


def _assert_canonical_inverse_passes_its_order_1_check(cert):
    """The canonical inverse of ``cert`` is returned, with ``||T S - I||_F`` within the order-1 threshold."""
    t, residual = canonical_left_m_inverse(cert)
    eye = np.eye(len(cert.s))
    assert residual == pytest.approx(frobenius(t @ cert.s - eye), rel=1e-12, abs=1e-300)
    assert residual <= DEFAULT_TOL.zero_threshold(DEFAULT_TOL.scale_of(cert.s, t, eye))


def test_similarity_certificate_pipeline():
    s, _, _ = gen_similar_isometry(5, seed=33)
    cert = similarity_certificate(s)
    scale = max(1.0, np.linalg.norm(s) ** 2)
    assert cert.residual_metric <= 1e-8 * scale
    assert cert.residual_similarity <= 1e-8 * scale
    assert np.linalg.eigvalsh(cert.p).min() > 0
    payload = cert.to_json_dict()
    assert set(payload) == {"P", "V", "residuals"}
    assert set(payload["residuals"]) == {"metric", "similarity"}
    assert np.array_equal(cert.s, s) and cert.s is not s
    assert "s=" not in repr(cert)


def test_a_failed_similarity_residual_is_an_internal_error(monkeypatch):
    # For S = I, a unitary V = W != I is an isometry and S* P^2 S = P^2
    # holds, but P S = V P fails: the certificate refuses it.
    p = np.diag([1.0, 2.0]).astype(complex)
    w = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    monkeypatch.setattr(metric, "_metric_factor", lambda *args: (p, np.linalg.inv(p), w))
    with pytest.raises(IdentityCheckError, match="P S and V P differ"):
        similarity_certificate(np.eye(2, dtype=complex))


def test_a_failed_metric_residual_is_internal_for_a_computed_p(monkeypatch):
    # A computed P whose square misses the metric identity is a bug of the
    # library.
    s, _, _ = gen_similar_isometry(4, seed=21)
    original = metric._metric_factor

    def skewed(*args):
        p, p_inv, v = original(*args)
        return p @ p, p_inv, v

    monkeypatch.setattr(metric, "_metric_factor", skewed)
    with pytest.raises(IdentityCheckError, match="not an invariant metric"):
        similarity_certificate(s)


def test_a_failed_cholesky_of_the_metric_is_a_refusal(monkeypatch):
    # Rounding can make a Gram block I + Z* Z indefinite once ||Z||^2 nears
    # 1 / (n eps); the CLI catches only OpslabError.
    def indefinite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    s, _, _ = gen_similar_isometry(3, seed=1)
    monkeypatch.setattr(np.linalg, "cholesky", indefinite)
    with pytest.raises(AssumptionError, match="not positive definite"):
        similarity_certificate(s)


def test_similarity_certificate_evaluates_the_metric_identity_once(monkeypatch):
    # S* enters only S* P^2 S - P^2, so one adjoint of S per certificate.
    s, _, _ = gen_similar_isometry(5, seed=12)
    args = []
    original = metric.adjoint
    monkeypatch.setattr(metric, "adjoint", lambda m: args.append(m) or original(m))
    similarity_certificate(s)
    assert sum(np.array_equal(m, s) for m in args) == 1


def test_an_ill_conditioned_power_bounded_input_is_certified_or_refused():
    rng = derive_rng(7)
    v, u = haar_unitary(2, rng), haar_unitary(2, rng)
    p0 = u @ np.diag([1.0, 1e-4]) @ adjoint(u)
    s = np.linalg.solve(p0, v @ p0)
    assert certify_power_bounded(s).bounded
    try:
        similarity_certificate(s)
    except AssumptionError:
        pass


def test_every_similarity_at_cond_1e4_is_certified():
    # X = P^2 sits at cond 1e8, where its eigh refused 47 of these 200;
    # the SVD of the metric's factor works at cond(P).
    for s, _ in _conditioning_corpus(1e4, 200):
        similarity_certificate(s)


@pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
def test_every_inverse_pair_of_the_conditioning_corpus_is_similar_to_unitary(c):
    # (S, S^-1) passes T S = I, and S's certificate conjugates T* = S^-* to
    # its own V.  The order-m defect check this replaced refused 0/3/192 of
    # these pairs at m = 2 and 0/8/197 at m = 3 (c = 1e2/1e3/1e4).
    # The canonical inverse is that S^-1, and passes its own T S = I check.
    for s, _ in _conditioning_corpus(c, 200):
        cert = similarity_certificate(s)
        similar_to_unitary(cert, np.linalg.inv(s))
        _assert_canonical_inverse_passes_its_order_1_check(cert)


def test_an_inverse_perturbed_off_the_unit_circle_is_refused_at_cond_1e4():
    # T = (I + e y1 yn*) S^-1, with y1 and yn the extreme singular vectors of
    # S's P, passes the order-1 defect check, yet P T P^-1 is off V* by about
    # e cond(P), which moves T's spectrum off the unit circle.
    for s, _ in _conditioning_corpus(1e4, 200):
        cert = similarity_certificate(s)
        y = np.linalg.svd(cert.p)[0]
        s_inv = np.linalg.inv(s)
        e = 0.5 * DEFAULT_TOL.rel_tol * max(np.linalg.norm(s), np.linalg.norm(s_inv))
        t = (np.eye(len(s)) + e * np.outer(y[:, 0], y[:, -1].conj())) @ s_inv
        assert is_left_m_inverse(s, t, 1)[0]
        assert np.abs(np.abs(np.linalg.eigvals(t)) - 1).max() > 1e-6
        with pytest.raises(AssumptionError, match="not S\\^-1"):
            similar_to_unitary(cert, t)


@pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
def test_an_inverse_perturbed_along_the_extreme_singular_vectors_is_refused(c):
    # With e = rel_tol max(||S||_F, ||S^-1||_F) and y1, yn the extreme
    # singular vectors of S's P, T = (I + 2e yn y1*) S^-1 misses T S = I by
    # 2e, past the order-1 threshold, while its model error is only about
    # 2e / cond(P): the order-m defect check let 6/4/3 of these through at
    # m = 2 and 7/7/0 at m = 3 (c = 1e2/1e3/1e4).  T = (I + (e/2) y1 yn*) S^-1
    # passes T S = I and is refused by its model error, about e cond(P) / 2.
    for s, _ in _conditioning_corpus(c, 200):
        cert = similarity_certificate(s)
        y = np.linalg.svd(cert.p)[0]
        s_inv = np.linalg.inv(s)
        e = DEFAULT_TOL.rel_tol * max(np.linalg.norm(s), np.linalg.norm(s_inv))
        for size, (i, j), check in ((2.0, (-1, 0), "T S - I"), (0.5, (0, -1), "P\\^-1 T\\* P - V")):
            t = (np.eye(len(s)) + size * e * np.outer(y[:, i], y[:, j].conj())) @ s_inv
            with pytest.raises(AssumptionError, match=f"power bounded T.*not S\\^-1.*{check}"):
                similar_to_unitary(cert, t)


def _coupled_unimodular_pairs(count):
    """``(Q ([[1, 1], [0, e^(i d)]] (+) U) Q*, d)``: d log-uniform in [2e-6, 0.1], n = 2..8, U diagonal, Q Haar."""
    rng = np.random.default_rng(12)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        delta = float(np.exp(rng.uniform(np.log(2e-6), np.log(0.1))))
        u = np.diag(np.exp(2j * np.pi * rng.random(n - 2)))
        m = scipy.linalg.block_diag([[1.0, 1.0], [0.0, np.exp(1j * delta)]], u)
        q = haar_unitary(n, rng)
        yield q @ m @ adjoint(q), delta


def test_a_coupled_unimodular_pair_is_certified_at_cond_p_near_2_over_delta():
    # sup ||S^n|| is about 2 / d, and cond(P) bounds it.  Below d ~ 2e-4,
    # X = P^2 passed cond 1e8 and its eigh refused it as not positive definite.
    # Their canonical inverse S^-1 passes its T S = I check up to cond(P) ~ 1e6.
    for s, delta in _coupled_unimodular_pairs(200):
        cert = similarity_certificate(s)
        assert 0.99 <= np.linalg.cond(cert.p) * delta / 2 <= 1.01
        _assert_canonical_inverse_passes_its_order_1_check(cert)


# ---------------------------------------------------------------------------
# Douglas factorization
# ---------------------------------------------------------------------------

def test_douglas_factor_projection_case():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, sv, vh = np.linalg.svd(b)
    sv[2:] = 0.0
    b = (u * sv) @ vh
    c, mu2, _ = douglas_factor(b, b)
    # C is the orthogonal projection onto the row space of B.
    assert_allclose(c @ c, c, atol=1e-10)
    assert_allclose(adjoint(c), c, atol=1e-10)
    assert mu2 == pytest.approx(1.0, abs=1e-8)


def test_douglas_factor_invertible_case():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    a = rng.standard_normal((3, 3))
    c, _, _ = douglas_factor(a, b)
    assert_allclose(c, np.linalg.solve(b, a), atol=1e-9)


def test_douglas_factor_rank_one_example():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    c, mu2, _ = douglas_factor(a, b)
    assert_allclose(c, np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-12)
    assert mu2 == pytest.approx(1.0, abs=1e-10)


def test_douglas_mu_scaling():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert douglas_factor(2.0 * b, b)[1] == pytest.approx(4.0, rel=1e-8)
    assert douglas_factor(b, b)[1] == pytest.approx(1.0, rel=1e-8)


def test_douglas_mu_matches_factor_norm():
    # mu2 = ||C||^2 by construction; the pencil (A A*, B B*) on ran(B) is
    # the independent value of inf {lam : A A* <= lam B B*}.
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
        c, mu2, _ = douglas_factor(a, b)
        assert_allclose(c, np.linalg.pinv(b) @ a, atol=1e-10 * max(1.0, np.linalg.norm(c)))
        assert operator_norm(c) ** 2 == pytest.approx(mu2, rel=1e-10)
        assert suites._pencil_top(a, b, DEFAULT_TOL) == pytest.approx(mu2, rel=1e-6, abs=1e-8)
        assert operator_norm(c) <= operator_norm(c0) + 1e-8


def test_douglas_factor_returns_the_residual_it_checked():
    # ||(I - U_r U_r*) A||_F and ||B C - A||_F agree to rounding, and both
    # sit below the threshold that decided range inclusion.
    for seed in range(20):
        a, b, _ = suites._douglas_instance(*suites._instance(seed, 0, 2, 8))
        c, _, residual = douglas_factor(a, b)
        threshold = DEFAULT_TOL.zero_threshold(DEFAULT_TOL.scale_of(a, b))
        assert residual <= threshold
        assert abs(residual - frobenius(b @ c - a)) <= 1e-3 * threshold


def test_douglas_rejects_range_violation():
    a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(AssumptionError, match="no factor exists .*witness"):
        douglas_factor(a, b)


def test_douglas_factor_checks_range_inclusion_once(monkeypatch):
    # One SVD of B decides; mu2 is the 2-norm of an r x n block.  No
    # [B A] stack, no pencil.
    rng = np.random.default_rng(7)
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = b @ (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: calls.append(m.shape) or svd(m, *a, **k))
    monkeypatch.setattr(scipy.linalg, "eigh", None)
    douglas_factor(a, b)
    assert len(calls) <= 2 and all(shape[1] == 6 for shape in calls)
    calls.clear()
    with pytest.raises(AssumptionError):
        douglas_factor(rng.standard_normal((6, 6)), b[:, :3] @ b[:3])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a_diag, b_diag, mu2",
    [
        # rank B = 1: ||BC - A||_F = delta against 1e-10 + 1e-8 * max(||A||_F, ||B||_F)
        ([1.0, 9e-9], [1.0, 0.0], 1.0),
        ([1.0, 1.2e-8], [1.0, 0.0], None),
        ([1.0, 2e-8], [1.0, 0.0], None),
        # s_2 = 2e-8 is above the rank cutoff, so ||C|| reaches 5e7; it must
        # not enter the scale, or the residual 0.3 in ker B* would pass.
        ([0.0, 1.0, 0.3], [1.0, 2e-8, 0.0], None),
        ([0.0, 1.0, 0.0], [1.0, 2e-8, 0.0], 2.5e15),
    ],
)
def test_douglas_decides_at_the_tolerance_edge(a_diag, b_diag, mu2):
    a = np.diag(a_diag).astype(complex)
    b = np.diag(b_diag).astype(complex)
    if mu2 is None:
        with pytest.raises(AssumptionError, match="no factor exists"):
            douglas_factor(a, b)
    else:
        c, got, _ = douglas_factor(a, b)
        assert frobenius(b @ c - a) <= 1e-8
        assert got == pytest.approx(mu2, rel=1e-12)


def test_douglas_perturbed_gate_corpus_raises_no_internal_error():
    # Each gate pair of seeds 0-9 with A + N(0,1) 10^U(-12,-6): a factor or
    # an AssumptionError, never an IdentityCheckError.
    outcomes = {"factored": 0, "refused": 0}
    for seed in range(10):
        for i in range(200):
            a, b, _ = suites._douglas_instance(*suites._instance(seed, i, 2, 8))
            rng = np.random.default_rng([seed, i, 7])
            a = a + rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-12, -6)
            try:
                douglas_factor(a, b)
                outcomes["factored"] += 1
            except AssumptionError:
                outcomes["refused"] += 1
    assert outcomes["factored"] > 0 and outcomes["refused"] > 0


# ---------------------------------------------------------------------------
# asymptotic splitting, Putnam-Fuglede, rigidity
# ---------------------------------------------------------------------------

def test_pf_unitary_and_contractive():
    u = haar_unitary(3, derive_rng(15))
    assert pf_property_check(u).satisfies_pf
    contraction = 0.6 * haar_unitary(3, derive_rng(16))
    assert pf_property_check(contraction).satisfies_pf


def test_pf_coupled_fails_with_witness():
    report = pf_property_check(COUPLED)
    assert not report.satisfies_pf
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
    a = q @ a @ adjoint(q)
    assert pf_property_check(a).satisfies_pf


def test_pf_similar_to_unitary_but_not_normal_fails():
    # Orthogonality of the splitting is not enough: the unimodular block
    # must itself be unitary, which fails for a skewed similarity.
    s, _, _ = gen_similar_isometry(3, seed=77)
    report = pf_property_check(s)
    assert not report.satisfies_pf
    assert report.counterexample is not None


def _pf_oracle(a):
    """Kernel inclusion of the n^2 x n^2 maps at V = mu I for every unimodular phase mu of A."""
    eigs = np.linalg.eigvals(a)
    phases = [lam / abs(lam) for lam in eigs if abs(abs(lam) - 1.0) < 1e-8]
    return all(kernel_included(suites._kronecker_maps(a, mu * np.eye(a.shape[0]))[0]) for mu in phases)


def _assert_pf_matches_oracle(a):
    report = pf_property_check(a)
    assert report.satisfies_pf == _pf_oracle(a)
    if report.counterexample is not None:
        v, x = report.counterexample
        assert frobenius(a @ x @ adjoint(v) - x) <= 1e-8
        assert frobenius(adjoint(a) @ x @ v - x) > 1e-6
    return report.satisfies_pf


def test_pf_eigenspace_verdict_matches_the_vectorized_maps():
    verdicts = []
    for seed in range(12):
        verdicts.append(_assert_pf_matches_oracle(gen_power_bounded(2 + seed % 5, seed=700 + seed)))
        assert not _assert_pf_matches_oracle(gen_similar_isometry(2 + seed % 5, seed=700 + seed)[0])
    assert True in verdicts and False in verdicts
    # Repeated unimodular eigenvalues: the probe mu I reaches the whole
    # two-dimensional eigenspace.
    rng = derive_rng(31)
    d = np.diag([1, 1, 1j, 1j, 0.5, 0.2]).astype(complex)
    u = haar_unitary(6, rng)
    assert _assert_pf_matches_oracle(u @ d @ adjoint(u))
    w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert not _assert_pf_matches_oracle(w @ d @ np.linalg.inv(w))


def test_pf_builds_no_kronecker_map(monkeypatch):
    kron = _count_calls(monkeypatch, np, "kron")
    pf_property_check(gen_power_bounded(8, seed=5))
    assert kron == []


def _coupled_power_bounded(n, rng):
    """Unimodular diagonal (+) contraction, conjugated by a W of condition 10:
    power bounded, but the Putnam-Fuglede property fails."""
    k = n // 2
    phases = np.exp(2j * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k)
    g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
    d = scipy.linalg.block_diag(np.diag(phases), g * (0.8 / np.abs(np.linalg.eigvals(g)).max()))
    w = haar_unitary(n, rng) @ np.diag(np.geomspace(1.0, 10.0, n)) @ haar_unitary(n, rng)
    return w @ d @ np.linalg.inv(w)


def test_pf_witness_is_the_most_stretched_eigenvector():
    # ker(A - I) = span(e1, e2) in the rotated basis; A* fixes e1 but maps
    # e2 to e2 + e3, so the witness is X = e2 e2*, whatever basis of the
    # eigenspace the SVD returns.
    q = haar_unitary(3, derive_rng(32))
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.5]], dtype=complex)
    v, x = pf_property_check(q @ a @ adjoint(q)).counterexample
    assert_allclose(v, np.eye(3), atol=1e-12)
    assert_allclose(x, np.outer(q[:, 1], q[:, 1].conj()), atol=1e-12)


def test_pf_witness_is_stable_under_rounding():
    # The witness x x* is fixed by the eigenspace, not by the basis an SVD
    # picks for it, so a 1e-15 change of A moves it only by rounding.
    for seed in range(1, 9):
        for n in (8, 16, 24):
            for rep in range(2):
                rng = np.random.default_rng((seed, n, rep))
                a = _coupled_power_bounded(n, rng)
                e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                x1 = pf_property_check(a).counterexample[1]
                x2 = pf_property_check(a + 1e-15 * e / operator_norm(e)).counterexample[1]
                assert np.linalg.norm(x1 - x2) <= 1e-12


def test_pf_requires_power_bounded():
    refusal = r"pf_property_check requires a power bounded matrix \({}, eigenvalue {}"
    with pytest.raises(AssumptionError, match=refusal.format("unimodular eigenvalue is not semisimple", 1)):
        pf_property_check(J2)
    with pytest.raises(AssumptionError, match=refusal.format("spectral radius exceeds 1", 2)):
        pf_property_check(np.diag([2.0, 0.5]))


def test_pf_structural_oracle_agrees_beyond_the_gate_sizes():
    # The pf-ascent gate runs n <= 5; here orthogonal sums (unitary (+)
    # contraction, rotated) and coupled inputs (non-unitary W) at n = 8..32.
    # The verdict, accepted on the split Schur form, must match the
    # per-phase eigenspace inclusion at every unimodular phase of A.
    for n in (8, 16, 24, 32):
        verdicts = []
        for rep in range(3):
            rng = np.random.default_rng((n, rep))
            k = n // 2 + rep
            g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
            d = scipy.linalg.block_diag(haar_unitary(k, rng), g * (0.8 / np.abs(np.linalg.eigvals(g)).max()))
            q = haar_unitary(n, rng)
            for a in (q @ d @ adjoint(q), _coupled_power_bounded(n, rng)):
                eigs = np.linalg.eigvals(a)
                unimodular = eigs[np.abs(np.abs(eigs) - 1.0) < 1e-8]
                oracle = all(ascent_bound_check(a, lam / abs(lam) * np.eye(n))[0][0] for lam in unimodular)
                verdict = pf_property_check(a).satisfies_pf
                assert oracle == verdict
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


def _pf_edge(diagonal, eps):
    """``Q D Q*`` for ``D = diagonal`` with ``D[1, 2] = eps`` and a fixed Haar Q."""
    q = haar_unitary(3, derive_rng(32))
    d = np.diag(diagonal).astype(complex)
    d[1, 2] = eps
    return q @ d @ adjoint(q)


def test_pf_split_accepts_the_band_below_its_threshold():
    # On Q [[1, 0, 0], [0, 1, eps], [0, 0, 0.5]] Q* the per-phase search
    # finds a witness from eps ~ 5.10e-9; the split accepts up to ~ 1.51e-8.
    a = _pf_edge([1.0, 1.0, 0.5], 1e-8)
    assert pf_property_check(a).satisfies_pf
    assert not ascent_bound_check(a, np.eye(3))[0][0]  # the search alone would witness a failure
    report = pf_property_check(_pf_edge([1.0, 1.0, 0.5], 3e-8))
    assert not report.satisfies_pf and report.counterexample is not None


def test_pf_split_rejection_is_refuted_only_by_a_witness():
    # On Q [[1, 0, 0], [0, -1, eps], [0, 0, 0]] Q* the split rejects from
    # eps ~ 1.42e-8, but no phase has a witness before eps ~ 2.01e-8.
    b = _pf_edge([1.0, -1.0, 0.0], 1.7e-8)
    assert pf_property_check(b).satisfies_pf
    assert all(ascent_bound_check(b, mu * np.eye(3))[0][0] for mu in (1.0, -1.0))
    b = _pf_edge([1.0, -1.0, 0.0], 3e-8)
    report = pf_property_check(b)
    assert not report.satisfies_pf
    v, x = report.counterexample
    assert_allclose(v, -np.eye(3), atol=1e-12)
    assert frobenius(b @ x @ adjoint(v) - x) <= 1e-8


def test_pf_accepts_a_unitary_on_its_certificate(monkeypatch):
    # One Schur form and no SVD (the certificate clusters by one Sylvester
    # solve); the per-phase search would take an SVD at each of the 64 phases.
    u = haar_unitary(64, derive_rng(0))
    schur = _count_calls(monkeypatch, scipy.linalg, "schur")
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    assert pf_property_check(u).satisfies_pf
    assert (len(schur), len(svd)) == (1, 0)


def test_only_the_certificate_takes_a_schur_form():
    callers = set()
    for path in Path(metric.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "scipy.linalg.schur":
                        callers.add(func.name)
    assert callers == {"certify_power_bounded"}


def test_only_the_split_reorders_a_schur_form():
    # One reorder on the report and one phase rule: every ztrsen call in the
    # package lies in PowerBoundReport.split, and metric._phases is gone (the
    # witness search probes one phase per cluster of the report).
    def ztrsen_calls(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func).endswith("ztrsen")]

    package = [ast.parse(path.read_text()) for path in Path(metric.__file__).parent.glob("*.py")]
    report = next(n for n in ast.walk(ast.parse(Path(metric.__file__).read_text()))
                  if isinstance(n, ast.ClassDef) and n.name == "PowerBoundReport")
    split = next(f for f in report.body if isinstance(f, ast.FunctionDef) and f.name == "split")
    assert sum(len(ztrsen_calls(tree)) for tree in package) == len(ztrsen_calls(split)) == 1
    assert not hasattr(metric, "_phases")


def test_split_puts_the_interior_first_and_each_cluster_contiguous(monkeypatch):
    # Interleaved clusters on the diagonal of an upper triangular T: one call
    # moves the interior to the front, one gathers cluster 0, cluster 1 then
    # stands in place.
    rng = derive_rng(43)
    diagonal = [1.0, 0.5, 1j, 1.0, 0.3, 1j, -1.0, 1.0]
    t = np.triu(rng.standard_normal((8, 8)), 1) + np.diag(diagonal)
    q = haar_unitary(8, rng)
    report = metric.PowerBoundReport(
        bounded=True, spectral_radius=1.0, unimodular_semisimple=True, schur=(t, q),
        clusters=((0, 3, 7), (2, 5), (6,)), horizon=64, decoupling=(np.eye(8), np.eye(8)),
    )
    calls = _count_calls(monkeypatch, scipy.linalg.lapack, "ztrsen")
    t2, q2, labels = report.split
    assert len(calls) == 2 and report.schur[0] is t
    assert labels.tolist() == [-1, -1, 0, 0, 0, 1, 1, 2]
    assert_allclose(np.diag(t2), [0.5, 0.3, 1.0, 1.0, 1.0, 1j, 1j, -1.0], atol=1e-12)
    assert np.array_equal(t2, np.triu(t2))
    assert_allclose(q2 @ t2 @ adjoint(q2), q @ t @ adjoint(q), atol=1e-12)
    assert report.split is report.split


def _two_close_phases(delta, coupled):
    """``Q D Q*`` for ``D = diag(1, exp(i delta), 0.5)`` with ``D[coupled, 2] = 1``, a fixed Haar Q."""
    d = np.diag([1.0, np.exp(1j * delta), 0.5]).astype(complex)
    d[coupled, 2] = 1.0
    q = haar_unitary(3, derive_rng(41))
    return q @ d @ adjoint(q)


@pytest.mark.parametrize("coupled", [0, 1])
@pytest.mark.parametrize("delta, distance_clusters", [(1e-9, 1), (1e-7, 1), (1e-4, 2)])
def test_close_unimodular_phases_match_the_kronecker_oracle(delta, distance_clusters, coupled):
    """Two unimodular eigenvalues delta apart, one coupled to the interior 0.5.

    Both are well conditioned (kappa below 3), so the certificate keeps
    them as two clusters at every delta here, and the witness search
    probes the phase of each cluster's mean.  A fixed
    clustering distance of ``1e-6 * max(1, ||A||_2)`` = 1.46e-6 would merge
    them, and probing one phase per cluster, the first on the Schur
    diagonal, disagrees with the oracle on this family when the coupled
    eigenvalue is the second, for delta from 2.92e-8 (where the null space
    of ``A - mu I`` at the first phase stops holding the coupled
    eigenvector) to 1.46e-6: there it accepts a matrix whose Kronecker
    inclusion fails.  delta = 1e-7 lies in that band, 1e-9 below it and
    1e-4 above it; ``distance_clusters`` counts the clusters of that fixed
    distance.  A V with both phases is probed where it made one; at 1e-4
    that probe is the test below.
    """
    a = _two_close_phases(delta, coupled)
    assert len(certify_power_bounded(a).clusters) == 2
    phases = [1.0, np.exp(1j * delta)]
    oracle = [kernel_included(suites._kronecker_maps(a, mu * np.eye(3))[0]) for mu in phases]
    report = pf_property_check(a)
    assert not report.satisfies_pf and not all(oracle)
    v, x = report.counterexample
    elementary = suites._kronecker_maps(a, v)[0]
    x_vec = x.reshape(-1, order="F")
    assert np.linalg.norm(elementary @ x_vec) <= 1e-8
    assert np.linalg.norm(adjoint(elementary) @ x_vec) > 1e-6
    mu = v[0, 0]
    assert_allclose(v, mu * np.eye(3), atol=0.0)
    assert min(abs(mu - p) for p in phases) <= 1e-12
    probes = [mu * np.eye(3) for mu in phases]
    if distance_clusters == 1:
        probes.append(np.diag([1.0, np.exp(1j * delta), -1.0]))
    for v in probes:
        assert ascent_bound_check(a, v) == suites._kronecker_reference(a, v)


def test_ascent_of_two_separate_close_phases_of_v_matches_the_kronecker_oracle():
    a = _two_close_phases(1e-4, 0)
    v = np.diag([1.0, np.exp(1e-4j), -1.0])
    assert ascent_bound_check(a, v) == suites._kronecker_reference(a, v) == ((False, 1), (False, 1))


def _close_phase_probes():
    """``(A, V)``: ``_two_close_phases(delta, coupled)`` at 33 delta log-spaced in [1e-10, 1e-2],
    both couplings, at ``V = I``, ``exp(i delta) I`` and ``diag(1, exp(i delta), -1)``."""
    for coupled in (0, 1):
        for delta in np.logspace(-10, -2, 33):
            a = _two_close_phases(delta, coupled)
            for v in (np.eye(3), np.exp(1j * delta) * np.eye(3), np.diag([1.0, np.exp(1j * delta), -1.0])):
                yield a, v


def test_ascent_of_close_phases_is_at_most_one_and_matches_the_kronecker_reference():
    # A has three distinct eigenvalues and V is normal, so every map here is
    # diagonalizable and its exact ascent is at most 1.  Ranks of powers read
    # at the first power's cutoff read 2 or 3 on 97 of these 198 probes, and
    # on 45 of them next to a kernel inclusion: a false counterexample to the
    # bound.  The staircase compresses past each kernel and forms no power.
    probes = list(_close_phase_probes())
    assert len(probes) == 198
    for a, v in probes:
        pairs = ascent_bound_check(a, v)
        assert pairs == suites._kronecker_reference(a, v)
        assert all(asc <= 1 for _, asc in pairs)


def test_ascent_of_a_rotated_jordan_structure_is_its_largest_block():
    # (A, V, elementary pair): rotated J_k(lam), k = 1..6, with V = lam I, then
    # rotated sums of blocks at 1 with V = I.
    cases = [(s, lam * np.eye(k), (k == 1, k)) for s, k, lam in _rotated_jordan_blocks(range(1, 7), range(3))]
    for blocks in ([1, 2], [1, 3], [2, 2], [1, 2, 3], [2, 3]):
        for b in range(3):
            cases.append((_rotated_jordan(blocks, 1.0, b), np.eye(sum(blocks)), (False, max(blocks))))
    assert len(cases) == 87
    for a, v, elementary in cases:
        pairs = ascent_bound_check(a, v)
        assert pairs[0] == elementary
        if np.array_equal(v, np.eye(len(v))):  # the derivation has the same blocks A - I
            assert pairs[1] == elementary
        assert pairs == suites._kronecker_reference(a, v)


def test_kronecker_ascent_is_an_int_on_every_map_of_the_sweep(monkeypatch):
    decided = []
    decide = minv.ascent
    monkeypatch.setattr(minv, "ascent", lambda rep: decided.append(decide(rep)) or decided[-1])
    for seed in range(4):
        assert suites.run_pf_ascent(seed=seed, count=50, dim_max=5).passed
    assert decided and all(type(asc) is int for asc in decided)
    assert set(decided) == {0, 1}


def test_ascent_bound_probes_a_phase_whose_modulus_is_outside_the_band():
    # V passes its isometry check (residual 6e-8 against 1e-10 + 8e-8) with
    # an eigenvalue of modulus 1 - 3e-8, outside the unimodular band 1e-8,
    # and its phase 1 is still probed: the Jordan block of A at 1 shows.
    rng = derive_rng(42)
    a = scipy.linalg.block_diag(gen_jordan(2, 1.0), 0.5 * np.eye(6))
    w = haar_unitary(8, rng)
    phases = np.exp(2j * np.pi * np.arange(1, 8) / 8)
    v = w @ np.diag([1.0 - 3e-8, *phases]) @ adjoint(w)
    assert abs(1.0 - np.abs(np.linalg.eigvals(v))).max() > DEFAULT_TOL.rel_tol
    exact = w @ np.diag([1.0, *phases]) @ adjoint(w)
    assert ascent_bound_check(a, v) == ascent_bound_check(a, exact) == ((False, 2), (False, 2))


def test_ascent_bound_unitary_pair():
    rng = derive_rng(18)
    a = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    for included, asc in ascent_bound_check(a, v):
        assert included
        assert asc <= 1


def test_ascent_bound_contractive():
    a = 0.5 * haar_unitary(3, derive_rng(19))
    v = haar_unitary(3, derive_rng(20))
    # Trivial kernels for both maps.
    assert ascent_bound_check(a, v) == ((True, 0), (True, 0))


def test_ascent_bound_zero_operator():
    a = np.zeros((2, 2), dtype=complex)
    assert ascent_bound_check(a, np.eye(2, dtype=complex)) == ((True, 0), (True, 0))


def _ascent_corpus():
    """Jordan blocks on the circle, and non-normal similar-to-unitary matrices at
    one of their phases and its conjugate, where the inclusion of each map fails."""
    for k in range(1, 5):
        yield gen_jordan(k, 1.0), np.eye(k, dtype=complex)
    for k in range(1, 4):
        for mu in (1.0, 1j, -1j):
            yield gen_jordan(k, 1j), mu * np.eye(k, dtype=complex)
    for seed in range(20):
        n = 2 + seed % 4
        s = gen_similar_isometry(n, seed=900 + seed)[0]
        lam = np.linalg.eigvals(s)[0]
        yield s, lam / abs(lam) * np.eye(n)
        yield s, np.conj(lam) / abs(lam) * np.eye(n)


def test_ascent_bound_matches_the_kronecker_reference():
    failed = [0, 0]
    for a, v in _ascent_corpus():
        pairs = ascent_bound_check(a, v)
        assert pairs == suites._kronecker_reference(a, v)
        for j, (included, _) in enumerate(pairs):
            failed[j] += not included
    # Inclusion fails for the elementary operator at the phase and for the
    # derivation at its conjugate.
    assert min(failed) > 0


def test_kernel_included_matches_its_two_operand_definition_from_one_svd(monkeypatch):
    # ker L within ker L* as first defined, L* mapping null_space(L) within zero_threshold(||L*||_2),
    # on the corpus maps and on every map the pf-ascent sweep decides at seeds 0-3.
    maps = [rep for a, v in _ascent_corpus() for rep in suites._kronecker_maps(a, v)]
    decide = minv.kernel_included
    monkeypatch.setattr(minv, "kernel_included", lambda rep: maps.append(rep) or decide(rep))
    for seed in range(4):
        assert suites.run_pf_ascent(seed=seed, count=50, dim_max=5).passed
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    verdicts = [decide(rep) for rep in maps]
    assert len(svd) == len(maps) and set(verdicts) == {True, False}
    for rep, included in zip(maps, verdicts):
        threshold = DEFAULT_TOL.zero_threshold(operator_norm(adjoint(rep)))
        assert included == np.all(np.linalg.norm(adjoint(rep) @ null_space(rep), axis=0) <= threshold)


@pytest.mark.parametrize("seed", range(1, 4))
def test_pf_ascent_agrees_with_the_kronecker_reference_beyond_the_gate_seed(seed):
    # The suite compares both pairs with the reference at every probe; the
    # acceptance gate runs seed 0.
    result = suites.run_pf_ascent(seed=seed, count=50, dim_max=5)
    assert result.passed, result.violations


def test_ascent_bound_of_a_jordan_block_is_its_size():
    for k in range(2, 5):
        elementary, derivation = ascent_bound_check(gen_jordan(k, 1.0), np.eye(k, dtype=complex))
        assert elementary == (False, k)
        assert derivation == (False, k)


def test_ascent_bound_builds_no_kronecker_map(monkeypatch):
    kron = _count_calls(monkeypatch, np, "kron")
    rows = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: rows.append(m.shape[-2]) or svd(m, *a, **k))
    a = gen_power_bounded(8, seed=5)
    ascent_bound_check(a, haar_unitary(8, derive_rng(6)))
    ascent_bound_check(a, np.eye(8, dtype=complex))
    assert kron == []
    assert max(rows) == 8


def test_ascent_bound_rejects_non_isometry():
    with pytest.raises(AssumptionError):
        ascent_bound_check(np.eye(2, dtype=complex), J2)


def test_similar_to_unitary_unitary_case():
    u = haar_unitary(3, derive_rng(22))
    u1, u2, p, residual = similar_to_unitary(similarity_certificate(u), adjoint(u))
    assert np.linalg.norm(u1 - p @ u2 @ np.linalg.inv(p)) < 1e-10
    assert residual < 1e-10
    assert np.linalg.norm(adjoint(u1) @ u1 - np.eye(3)) < 1e-10


def test_similar_to_unitary_generated_pair():
    s, t = gen_left_m_pair(4, seed=29)
    cert = similarity_certificate(s)
    u1, u2, p, residual = similar_to_unitary(cert, t)
    # T = S^-1, so S's P^-1 conjugates T* to S's own V: U2 is U1 and P is I.
    assert u1 is cert.v and u2 is cert.v
    assert np.array_equal(p, np.eye(4))
    # The returned residual is the model error of T* that was checked.
    gap = np.linalg.norm(cert.p_inv @ adjoint(t) @ cert.p - cert.v)
    assert residual == gap
    assert gap <= DEFAULT_TOL.zero_threshold(np.linalg.norm(cert.v))
    # U1 models S: same spectrum up to ordering.
    eig_s = np.sort_complex(np.linalg.eigvals(s))
    eig_u = np.sort_complex(np.linalg.eigvals(u1))
    assert np.linalg.norm(eig_s - eig_u) < 1e-7


def test_similarity_certificate_rejects_jordan():
    with pytest.raises(AssumptionError):
        similarity_certificate(J2)


def test_similar_to_unitary_rejects_jordan():
    # T = I + N with N^2 = 0 is a left 2-inverse of I, but not power bounded;
    # T S - I = N refuses it whatever its order, at ||N|| = 1 (J2) and 1e-3.
    cert = similarity_certificate(np.eye(2, dtype=complex))
    for t in (J2, np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)):
        assert is_left_m_inverse(np.eye(2), t, 2)[0]
        with pytest.raises(AssumptionError, match="power bounded T.*not S\\^-1.*T S - I"):
            similar_to_unitary(cert, t)


def test_similar_to_unitary_rejects_non_pair():
    u = haar_unitary(3, derive_rng(24))
    with pytest.raises(AssumptionError, match="not S\\^-1 within tolerance \\(\\|\\|T S - I"):
        similar_to_unitary(similarity_certificate(u), 2 * adjoint(u))


def test_similarity_roundtrip_builds_one_certificate_per_matrix(monkeypatch):
    # One invariant metric factor and its SVD per instance, for S; T* is
    # checked against S's certificate.
    calls = _count_calls(monkeypatch, metric, "_metric_factor")
    assert suites.run_similarity_roundtrip(count=5).passed
    assert len(calls) == 5


def test_similarity_chain_takes_one_eigendecomposition_and_one_lu_of_s(monkeypatch):
    s, t = gen_left_m_pair(5, seed=7)
    owners = {"schur": scipy.linalg, "svd": np.linalg, "eigh": np.linalg, "eigvalsh": np.linalg,
              "cholesky": np.linalg, "inv": np.linalg, "solve": np.linalg}
    calls = {name: _count_calls(monkeypatch, owner, name) for name, owner in owners.items()}
    cert = similarity_certificate(s)
    # The one SVD is the metric's factor's.
    expected = {"schur": 1, "svd": 1, "eigh": 0, "eigvalsh": 0, "cholesky": 1, "inv": 0, "solve": 0}
    assert {name: len(c) for name, c in calls.items()} == expected
    # The rest of the chain adds to S's one Schur form and one Cholesky only
    # the canonical inverse's one LU of S; nothing solves with P.
    t_canonical, _ = canonical_left_m_inverse(cert)
    similar_to_unitary(cert, t)
    assert {name: len(c) for name, c in calls.items()} == {**expected, "inv": 1}
    assert np.array_equal(t_canonical, np.linalg.inv(s))


def test_a_certified_canonical_inverse_is_never_refused_as_a_pair():
    # At cond(P0) = 2e3, the canonical inverse T = S^-1 passes its T S = I
    # check, so similar_to_unitary, which decides T by that same check and
    # then by S's certificate, accepts it.
    for s, _ in _conditioning_corpus(2e3, 200):
        cert = similarity_certificate(s)
        t, _ = canonical_left_m_inverse(cert)
        similar_to_unitary(cert, t)


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
    report = pf_property_check(a)
    assert (len(schur), len(eigvals)) == (1, 0)
    assert not report.satisfies_pf  # the coupling makes the splitting non-orthogonal


def test_similar_to_unitary_certifies_t_once(monkeypatch):
    s, t = gen_left_m_pair(4, seed=29)
    cert = similarity_certificate(s)
    calls = _count_calls(monkeypatch, metric, "certify_power_bounded")
    factors = _count_calls(monkeypatch, metric, "_metric_factor")
    similar_to_unitary(cert, t)
    assert (len(calls), len(factors)) == (0, 0)  # S's certificate decides T*


def test_verify_prop_isometric():
    # The per-instance check of the isometry-rigidity sweep.
    assert suites._isometry_rigidity_violations(haar_unitary(3, derive_rng(23))) == []
    assert suites._isometry_rigidity_violations(np.diag([0.5]).astype(complex)) == []
    for i in range(20):
        assert suites._isometry_rigidity_violations(gen_power_bounded(4, seed=3000 + i)) == []


def test_verify_prop_isometric_requires_power_bounded():
    # J2 is a strict 3-isometry; the sweep records it instead of raising.
    assert suites._isometry_rigidity_violations(J2) == ["not certified power bounded"]


def _rigidity_instance(seed, i, dim_max=8):
    """Instance i of ``suites.run_isometry_rigidity`` at ``seed``."""
    rng, n = suites._instance(seed, i, 2, dim_max)
    return gen_power_bounded(n, int(rng.integers(0, 2**63)))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="near-unitary n = 2 non-isometry with defects β1..β4 = 1.1e-2, 1.3e-4, 2.4e-7, 2.9e-9; "
    "β4 passes the absolute 1e-8 and DEFAULT_TOL until m-isometry is decided order-aware",
)
def test_isometry_rigidity_seed_15007_instance_117():
    assert suites._isometry_rigidity_violations(_rigidity_instance(15007, 117)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="near-unitary n = 2 non-isometry with defects β1..β4 = 1.1e-3, 5.5e-6, 2.6e-8, 1.3e-10; "
    "β4 passes the absolute 1e-8 and DEFAULT_TOL until m-isometry is decided order-aware",
)
def test_isometry_rigidity_seed_18007_instance_447():
    assert suites._isometry_rigidity_violations(_rigidity_instance(18007, 447)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: exactly power bounded and exactly not an isometry, yet read as 4-isometric "
    "at (200, 101) and as 3- and 4-isometric at the other two until m-isometry is decided order-aware",
)
@pytest.mark.parametrize("a, b", [(200, 101), (2000, 1001), (20000, 10001)])
def test_isometry_rigidity_of_a_pythagorean_pair(a, b):
    # [[l1, l2 - l1], [0, l2]] with the Pythagorean phases l1 = (3 + 4i)/5
    # and l2 = ((a^2 - b^2) + 2ab i)/(a^2 + b^2): distinct unimodular
    # eigenvalues and a nonzero coupling, so m-isometric for no m.
    l1 = (3 + 4j) / 5
    l2 = complex(a * a - b * b, 2 * a * b) / (a * a + b * b)
    s = np.array([[l1, l2 - l1], [0.0, l2]], dtype=complex)
    assert suites._isometry_rigidity_violations(s) == []


def test_identity_check_error_is_raised_only_by_certificates():
    # A certificate raises IdentityCheckError when its own returned residual
    # fails its check; no other library call re-decides a claim.
    raisers = set()
    for path in Path(metric.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Raise)
                        and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "IdentityCheckError"
                    ):
                        raisers.add(func.name)
    # invariant_metric checks its X; similarity_certificate checks the three
    # residuals of its certificate.
    # similar_to_unitary refutes its hypothesis on T with AssumptionError.
    certificates = {"invariant_metric", "similarity_certificate", "canonical_left_m_inverse"}
    assert raisers == certificates
