"""Acceptance gate: every criterion at its pinned tolerance.

Each test runs one seeded sweep and prints a single PASS/FAIL line (run
pytest with ``-s`` to see them).  Tolerances are fixed inside the suite
implementations; counts and dimension caps match the stated criteria.
"""

from opslab import suites

SEED = 0


def _gate(name, result):
    status = "PASS" if result.passed else "FAIL"
    stats = ", ".join(f"{k}={v:.3e}" for k, v in sorted(result.stats.items()))
    print(f"ACCEPTANCE {name}: {status} [{result.instances} instances] {stats}")
    assert result.passed, f"{name}: {result.violations[:5]}"


def test_defect_algebra_agreement():
    # 200 seeded pairs: exact-binomial defect vs iterated map application,
    # entrywise 1e-12 relative.
    _gate("defect-algebra", suites.run_defect_agreement(seed=SEED, count=200, dim_max=6))


def test_jordan_strictness():
    # Unimodular Jordan blocks k = 1..4: the first passing order of one
    # defect profile of (J, J*) up to order 2k is exactly 2k-1 at residual
    # threshold 1e-8; power boundedness fails for k >= 2.
    _gate("jordan-strictness", suites.run_jordan_strictness(k_max=4))


def test_similarity_roundtrip():
    # 200 generated similar-to-isometry instances: invariant metric,
    # isometry extraction, canonical inverse at 1e-8 x scale; conjugate
    # unitary models at 1e-7 x scale.
    _gate(
        "similarity-roundtrip",
        suites.run_similarity_roundtrip(seed=SEED, count=200, dim_max=8),
    )


def test_z_inverse_contract():
    # Z_n S^n = I at 1e-8 x scale for n = 1..6 on the generated corpus plus
    # the strict Jordan order-3 isometries; norm bound 2^m M1^2 + 1e-6 on
    # the power-bounded pairs.
    _gate(
        "z-inverse-contract",
        suites.run_z_inverse_contract(seed=SEED, count=200, dim_max=8),
    )


def test_douglas_factorization():
    # 200 seeded instances A = B C0 with rank-deficient B mixed in: factor
    # residual 1e-8, ‖C‖ <= ‖C0‖, mu2 = ‖C‖^2 within 1e-6 of the pencil
    # (A A*, B B*) on ran(B), ker C = ker A by ranks, C orthogonal to ker B.
    _gate("douglas", suites.run_douglas(seed=SEED, count=200, dim_max=8))


def test_isometry_rigidity_sweep():
    # 500 seeded power-bounded matrices, each certified power bounded, with
    # one defect residual per order m <= 4: none may be m-isometric at
    # residual 1e-8 while failing ‖S*S - I‖ <= 1e-6, a 4-isometry at the
    # default tolerance must be isometric there, and an isometry unitary.
    _gate(
        "isometry-rigidity",
        suites.run_isometry_rigidity(seed=SEED, count=500, dim_max=8),
    )


def test_c_isometry_rigidity_sweep():
    # 500 seeded (S, C) power-bounded pairs including the real-orthogonal
    # positives: no (m,C)-but-not-(1,C) instance; positives verify every
    # m <= 4; the hyperbolic family is (1,C)-isometric yet unbounded for
    # t in {0.5, 1, 2}.
    _gate(
        "c-isometry-rigidity",
        suites.run_c_isometry_rigidity(seed=SEED, count=500, dim_max=8),
    )


def test_pf_and_ascent():
    # 50 power-bounded instances (orthogonal unitary (+) contraction sums
    # and non-orthogonal couplings, n <= 5): the eigenspace verdict agrees
    # with the structural criterion (zero coupling and a unitary unimodular
    # block in LAPACK's sorted Schur form) and with kernel inclusion of the
    # vectorized maps at V = I, a Haar unitary and every mu I (mu a
    # unimodular eigenvalue phase); at each probe the n x n (inclusion,
    # ascent) pairs of the elementary operator and the derivation equal
    # those of the vectorized maps; each witness solves A X V* = X but not
    # A* X V = X; the vectorized maps' kernel inclusion forces ascent <= 1.
    _gate("pf-ascent", suites.run_pf_ascent(seed=SEED, count=50, dim_max=5))
