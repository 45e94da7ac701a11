"""Spectral kernels: decomposition, functional calculus, Loewner order,
matrix means, commuting pairs."""

import math

import numpy as np
import pytest

from hhverify import (
    AsymmetricInputError,
    CommutingPair,
    DomainViolationError,
    FunctionSpec,
    LoewnerOrdering,
    NotPositiveDefiniteError,
    RandomStream,
    SingularPowerError,
    SpectralDecomp,
    commuting_weighted_product,
    det_pd,
    eigh,
    loewner_compare,
    matrix_function,
    operator_norm_sym,
    pd_power,
    random_commuting_pair,
    random_spd,
    weighted_geometric_mean,
)
from hhverify.errors import (
    DimMismatchError,
    NonFiniteInputError,
    NotPositiveSemidefiniteError,
    NotSquareError,
)
from hhverify.linalg import (
    MAX_DIM,
    _power_stack,
    check_matrix,
    check_symmetric,
    check_symmetric_stack,
    power_from_decomp,
)


def _rand_sym(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) * scale
    return 0.5 * (g + g.T)


def test_eigh_2x2_fixture():
    d = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(d.eigenvalues, [1.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(d.reconstruct(), [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_eigh_against_2x2_closed_form():
    # closed-form eigenvalues of [[a, b], [b, c]]: (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b, c = rng.normal(size=3) * 3.0
        mean = 0.5 * (a + c)
        rad = math.hypot(0.5 * (a - c), b)
        d = eigh(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(
            d.eigenvalues, [mean - rad, mean + rad], atol=1e-12 * max(1.0, abs(mean) + rad)
        )


def test_eigh_reconstruction_residual():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8, 16):
        for _ in range(50):
            s = _rand_sym(rng, n, scale=4.0)
            d = eigh(s)
            scale = max(1.0, float(np.abs(s).max()))
            assert np.abs(d.reconstruct() - s).max() <= 1e-10 * scale
            np.testing.assert_allclose(d.q @ d.q.T, np.eye(n), atol=1e-12)
            assert (np.diff(d.eigenvalues) >= -1e-14).all()


def test_eigh_sign_convention_is_deterministic():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    d1, d2 = eigh(s), eigh(s.copy())
    np.testing.assert_array_equal(d1.q, d2.q)
    # largest-magnitude entry of each column is nonnegative
    anchor = np.argmax(np.abs(d1.q), axis=0)
    assert (d1.q[anchor, np.arange(2)] >= 0).all()


def test_eigh_rejects_asymmetric_and_nonsquare():
    with pytest.raises(AsymmetricInputError):
        eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSquareError):
        check_matrix(np.ones((2, 3)), square=True)
    with pytest.raises(DimMismatchError):
        check_matrix(np.ones((MAX_DIM + 1, MAX_DIM + 1)))


def test_check_symmetric_tolerates_roundoff():
    s = np.array([[1.0, 1e-14], [0.0, 1.0]])
    out = check_symmetric(s)
    np.testing.assert_array_equal(out, out.T)


def test_symmetric_stack_check_is_check_symmetric_on_each_matrix():
    rng = np.random.default_rng(3)
    stack = np.stack([_rand_sym(rng, 3) for _ in range(4)])
    stack[1, 0, 2] += 1e-14  # round-off: under every bound
    stack[2] *= 1e6
    stack[2, 2, 0] += 1e-8  # above SYMMETRY_TOL, under this matrix's bound
    want = np.stack([check_symmetric(m) for m in stack])
    np.testing.assert_array_equal(check_symmetric_stack(stack), want)
    bad = stack.copy()
    bad[3, 0, 1] += 1e-3
    with pytest.raises(AsymmetricInputError) as got:
        check_symmetric_stack(bad)
    with pytest.raises(AsymmetricInputError) as alone:
        check_symmetric(bad[3])
    assert str(got.value) == str(alone.value)
    bad[3, 0, 1] = np.nan
    with pytest.raises(NonFiniteInputError):
        check_symmetric_stack(bad)


def test_matrix_function_square_fixture():
    d = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    got = matrix_function(d, FunctionSpec.power(2.0))
    np.testing.assert_allclose(got, [[5.0, 4.0], [4.0, 5.0]], atol=1e-13)


def test_matrix_function_identity_and_exp():
    rng = np.random.default_rng(8)
    s = _rand_sym(rng, 4)
    d = eigh(s)
    np.testing.assert_allclose(matrix_function(d, FunctionSpec.identity()), s, atol=1e-12)
    e = matrix_function(d, FunctionSpec.exp(1.0))
    w = np.linalg.eigvalsh(e)
    np.testing.assert_allclose(np.sort(np.log(w)), d.eigenvalues, atol=1e-10)


def test_matrix_function_domain_error_names_eigenvalue():
    d = eigh(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainViolationError):
        matrix_function(d, FunctionSpec.inverse())


def test_det_pd_fixture_and_error():
    assert abs(det_pd(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) < 1e-13
    with pytest.raises(NotPositiveDefiniteError):
        det_pd(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_operator_norm_sym_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = _rand_sym(rng, 5)
        assert abs(operator_norm_sym(s) - np.linalg.norm(s, 2)) <= 1e-12


# -- Loewner order ---------------------------------------------------------


def test_loewner_basic_orderings():
    le = loewner_compare(np.diag([1.0, 1.0]), np.diag([2.0, 3.0]))
    assert le.ordering is LoewnerOrdering.LESS_EQUAL
    assert abs(le.min_gap - 1.0) < 1e-14

    ge = loewner_compare(np.diag([2.0, 3.0]), np.diag([1.0, 1.0]))
    assert ge.ordering is LoewnerOrdering.GREATER_EQUAL

    eq = loewner_compare(np.eye(3), np.eye(3))
    assert eq.ordering is LoewnerOrdering.EQUAL

    inc = loewner_compare(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    assert inc.ordering is LoewnerOrdering.INCOMPARABLE


def test_loewner_congruence_preserves_order():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = 4
        a = random_spd(RandomStream(int(rng.integers(1 << 32))), n)
        gap = _rand_sym(rng, n)
        gap = gap @ gap.T  # PSD
        b = a + gap
        x = rng.normal(size=(n, n))
        v = loewner_compare(x.T @ a @ x, x.T @ b @ x)
        assert v.ordering in (LoewnerOrdering.LESS_EQUAL, LoewnerOrdering.EQUAL)


# -- powers and means --------------------------------------------------------


def test_pd_power_exact_special_cases():
    a = random_spd(RandomStream(3), 4)
    assert pd_power(a, 1.0) is not a  # defensive copy either way
    np.testing.assert_array_equal(pd_power(a, 0.0), np.eye(4))
    np.testing.assert_allclose(pd_power(a, 1.0), a, atol=0)


def test_pd_power_multiplicativity():
    a = random_spd(RandomStream(9), 5)
    for s, t in [(0.5, 0.5), (0.3, 0.9), (2.0, 0.25), (-1.0, 0.5)]:
        lhs = pd_power(pd_power(a, s), t)
        rhs = pd_power(a, s * t)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_pd_power_inverse_and_singular():
    a = random_spd(RandomStream(10), 3)
    np.testing.assert_allclose(pd_power(a, -1.0) @ a, np.eye(3), atol=1e-10)
    sing = np.diag([1.0, 0.0, 2.0])
    np.testing.assert_allclose(pd_power(sing, 0.5), np.diag([1.0, 0.0, math.sqrt(2.0)]), atol=1e-14)
    with pytest.raises(SingularPowerError):
        pd_power(sing, -0.5)


def test_power_from_decomp_endpoint_exactness():
    a = random_spd(RandomStream(12), 4)
    d = eigh(a)
    np.testing.assert_array_equal(power_from_decomp(d, 0.0), np.eye(4))
    np.testing.assert_array_equal(power_from_decomp(d, 1.0, a), a)
    # the stacked kernel against the scalar path, bit for bit, on a stack of
    # positive definite matrices and on one holding a tiny negative eigenvalue
    # that is clamped to zero (no negative power of it exists)
    stream = RandomStream(13)
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    clamped = check_symmetric((q * [-1e-14, 1.0, 2.0, 3.0]) @ q.T)
    ts = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    for mats, exps in (
        ([random_spd(stream, 4) for _ in range(3)], ts),
        ([clamped, random_spd(stream, 4)], ts[1:]),
    ):
        mats = np.array([check_symmetric(m) for m in mats])
        lam, vecs = np.linalg.eigh(mats)
        for original in (mats, None):
            got = _power_stack(lam, vecs, exps, original)
            for k, m in enumerate(mats):
                dk = SpectralDecomp(q=vecs[k], eigenvalues=lam[k])
                o = None if original is None else m
                for j, t in enumerate(exps.tolist()):
                    np.testing.assert_array_equal(got[k, j], power_from_decomp(dk, t, o))
    assert lam[0, 0] < 0.0
    with pytest.raises(SingularPowerError):
        _power_stack(lam, vecs, ts, mats)
    # t = 0 and t = 1 never look at the spectrum, as in the scalar path
    indefinite = np.diag([-1.0, 2.0])[None]
    lam, vecs = np.linalg.eigh(indefinite)
    got = _power_stack(lam, vecs, np.array([1.0, 0.0]), indefinite)
    np.testing.assert_array_equal(got[0], [indefinite[0], np.eye(2)])
    with pytest.raises(NotPositiveSemidefiniteError):
        _power_stack(lam, vecs, np.array([0.0, 0.5]), indefinite)


def test_weighted_geometric_mean_fixtures():
    np.testing.assert_allclose(
        weighted_geometric_mean(np.eye(2), 9.0 * np.eye(2), 0.5), 3.0 * np.eye(2), atol=1e-12
    )
    # commuting reduction: A #_nu B = A^(1-nu) B^nu on a shared basis
    q, av, bv = random_commuting_pair(RandomStream(21), 4)
    pair = CommutingPair(q=q, a=av, b=bv)
    a, b = pair.matrix_a(), pair.matrix_b()
    for nu in (0.0, 0.3, 0.5, 1.0):
        want = pair.materialize(av ** (1.0 - nu) * bv**nu)
        got = weighted_geometric_mean(a, b, nu)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_weighted_geometric_mean_validation():
    with pytest.raises(DomainViolationError):
        weighted_geometric_mean(np.eye(2), np.eye(2), 1.5)
    with pytest.raises(NotPositiveDefiniteError):
        weighted_geometric_mean(np.diag([1.0, -1.0]), np.eye(2), 0.5)


def test_am_gm_loewner_over_many_pairs():
    # A #_nu B <= (1-nu) A + nu B in the Loewner order
    for seed in range(200):
        stream = RandomStream(seed)
        a = random_spd(stream, 3)
        b = random_spd(stream, 3)
        nu = 0.5 * (1 + math.sin(seed))  # deterministic weight in [0, 1]
        gm = weighted_geometric_mean(a, b, nu)
        am = (1.0 - nu) * a + nu * b
        v = loewner_compare(gm, am)
        assert v.min_gap >= -1e-9


# -- commuting pairs ---------------------------------------------------------


def test_commuting_pair_fixture():
    pair = CommutingPair(q=np.eye(2), a=np.array([1.0, 4.0]), b=np.array([4.0, 1.0]))
    got = commuting_weighted_product(pair, 0.5)
    np.testing.assert_allclose(got, 2.0 * np.eye(2), atol=1e-14)


def test_commuting_weighted_product_convention():
    # t weights the first spectrum: t=1 gives A, t=0 gives B
    q, av, bv = random_commuting_pair(RandomStream(33), 3)
    pair = CommutingPair(q=q, a=av, b=bv)
    np.testing.assert_allclose(commuting_weighted_product(pair, 1.0), pair.matrix_a(), atol=1e-12)
    np.testing.assert_allclose(commuting_weighted_product(pair, 0.0), pair.matrix_b(), atol=1e-12)


def test_commuting_pair_validation():
    with pytest.raises(DomainViolationError):
        CommutingPair(q=np.array([[1.0, 1.0], [0.0, 1.0]]), a=np.ones(2), b=np.ones(2))
    with pytest.raises(NotPositiveDefiniteError):
        CommutingPair(q=np.eye(2), a=np.array([1.0, 0.0]), b=np.ones(2))
    with pytest.raises(DimMismatchError):
        CommutingPair(q=np.eye(2), a=np.ones(3), b=np.ones(2))


def test_commuting_pair_matrices_commute():
    q, av, bv = random_commuting_pair(RandomStream(44), 5)
    pair = CommutingPair(q=q, a=av, b=bv)
    a, b = pair.matrix_a(), pair.matrix_b()
    assert np.abs(a @ b - b @ a).max() <= 1e-11 * np.abs(a @ b).max()


def test_spectral_decomp_apply():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    d = eigh(s)
    doubled = d.apply(2.0 * d.eigenvalues)
    np.testing.assert_allclose(doubled, 2.0 * s, atol=1e-13)
    assert isinstance(d, SpectralDecomp)
