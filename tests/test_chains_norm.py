"""Unitarily-invariant-norm chains of t -> |||A^t X B^(1-t)||| and the
log-convexity witnesses for the three norm curves."""

import math

import numpy as np
import pytest

from hhverify import (
    CommutingPair,
    ConfigError,
    DimMismatchError,
    DomainViolationError,
    FunctionSpec,
    NormSpec,
    PhiDiagonal,
    PhiOperator,
    PhiSandwich,
    UinVariant,
    ag_convexity_witness,
    kittaneh_check,
    uin_chain,
)
from hhverify.chains import _Pair, _side, _TwoSidedPowers
from hhverify.errors import DegenerateIntervalError
from hhverify.norms import norm, norms_of_stack, parse_norm
from hhverify.sampler import RandomStream, random_commuting_pair, random_spd

ALL_VARIANTS = (
    UinVariant.SYMMETRIC,
    UinVariant.END_LEFT,
    UinVariant.END_RIGHT,
    UinVariant.FULL,
    UinVariant.DIAGONAL,
)


def _triple(stream, n=3):
    a = random_spd(stream, n, 0.1, 10.0)
    b = random_spd(stream, n, 0.1, 10.0)
    x = np.asarray(stream.gaussian(n * n)).reshape(n, n)
    return a, b, x


# ---------------------------------------------------------------------------
# chain fixtures


def test_full_chain_scalar_multiples_collapse():
    # A = 4I, B = 9I: phi(t) = 4^t 9^(1-t) ||X|| has affine log, every term
    # equals phi(1/2) = 6 ||X||
    stream = RandomStream(11)
    x = np.asarray(stream.gaussian(9)).reshape(3, 3)
    spec = NormSpec.schatten(2.0)
    rep = uin_chain(UinVariant.FULL, 4.0 * np.eye(3), 9.0 * np.eye(3), x, spec)
    assert rep.theorem_id == "uin_full"
    assert rep.passed and rep.quad_reliable
    want = 6.0 * norm(x, spec)
    for v in rep.term_values:
        assert abs(v - want) < 1e-10 * want


def test_symmetric_chain_nu_reflection():
    # [nu, 1-nu] and [1-nu, nu] describe the same interval
    stream = RandomStream(22)
    a, b, x = _triple(stream)
    spec = NormSpec.opnorm()
    r1 = uin_chain(UinVariant.SYMMETRIC, a, b, x, spec, nu=0.3)
    r2 = uin_chain(UinVariant.SYMMETRIC, a, b, x, spec, nu=0.7)
    assert r1.passed and r2.passed
    for v1, v2 in zip(r1.term_values, r2.term_values):
        assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_full_chain_endpoint_equals_kittaneh_bound():
    # T5 = sqrt(||AX|| ||XB||) is exactly the nu = 1/2 product bound, and the
    # interior terms refine it from below
    stream = RandomStream(33)
    for spec in (NormSpec.schatten(2.0), NormSpec.opnorm(), NormSpec.schatten(1.0)):
        a, b, x = _triple(stream)
        rep = uin_chain(UinVariant.FULL, a, b, x, spec)
        kit = kittaneh_check(a, b, x, 0.5, spec)
        assert abs(rep.term_values[-1] - kit.rhs) < 1e-12 * max(1.0, kit.rhs)
        assert all(v <= rep.term_values[-1] + 1e-9 for v in rep.term_values)
        # the chain midpoint is the kittaneh left side at nu = 1/2
        assert abs(rep.term_values[0] - kit.lhs) < 1e-12 * max(1.0, kit.lhs)


def test_diagonal_chain_endpoints():
    # psi(0) = ||X||, psi(1) = ||AXB||: T5 is their geometric mean
    stream = RandomStream(44)
    a, b, x = _triple(stream)
    spec = NormSpec.schatten(2.0)
    rep = uin_chain(UinVariant.DIAGONAL, a, b, x, spec)
    assert rep.theorem_id == "uin_diagonal"
    assert rep.passed
    want = math.sqrt(norm(x, spec) * norm(a @ x @ b, spec))
    assert abs(rep.term_values[-1] - want) < 1e-12 * max(1.0, want)


def test_uin_chains_random_draws_hold():
    stream = RandomStream(55)
    specs = (NormSpec.schatten(1.0), NormSpec.schatten(2.0), NormSpec.opnorm(), NormSpec.kyfan(2))
    for _ in range(15):
        a, b, x = _triple(stream)
        for variant in ALL_VARIANTS:
            for spec in specs:
                rep = uin_chain(variant, a, b, x, spec, nu=0.3 if variant is not UinVariant.END_RIGHT else 0.7)
                assert rep.passed, (variant, spec.describe(), rep.margins)


def test_uin_rectangular_x():
    stream = RandomStream(66)
    a = random_spd(stream, 4, 0.1, 10.0)
    b = random_spd(stream, 2, 0.1, 10.0)
    x = np.asarray(stream.gaussian(8)).reshape(4, 2)
    rep = uin_chain(UinVariant.FULL, a, b, x, NormSpec.schatten(2.0))
    assert rep.passed
    with pytest.raises(DimMismatchError):
        uin_chain(UinVariant.FULL, a, b, x.T, NormSpec.schatten(2.0))


# ---------------------------------------------------------------------------
# the reduced two-sided curve


def _two_sided(stream, m, k, trials=3):
    a = np.stack([random_spd(stream, m, 0.1, 10.0) for _ in range(trials)])
    b = np.stack([random_spd(stream, k, 0.1, 10.0) for _ in range(trials)])
    x = np.asarray(stream.gaussian(trials * m * k)).reshape(trials, m, k)
    return _TwoSidedPowers.of_stacks(_Pair(_side(a), _side(b)), x)


def _materialized_norms(tp, ts, second, spec):
    """The norm of every diag(la^t) C diag(lb^second(t)) of tp, formed as a
    (T, P, m, k) stack and taken by norms_of_stack."""
    left = np.power(tp.pair.a.lam[:, None, :], ts[:, None])
    right = np.power(tp.pair.b.lam[:, None, :], second(ts)[:, None])
    prods = left[..., None] * tp.core[:, None] * right[..., None, :]
    m, k = tp.core.shape[1:]
    return norms_of_stack(prods.reshape(-1, m, k), spec).reshape(prods.shape[:2])


_SHAPES = [(d, d) for d in (1, 2, 3, 5, 8, 17)] + [(4, 2), (3, 7)]
# the endpoints, the midpoint, and the witness grid: at m k = 289 the grid
# is cut into blocks of points
_TS = np.concatenate(([0.0, 1.0, 0.5], np.arange(1090) / 1089.0))
_SECONDS = {"sandwich": lambda t: 1.0 - t, "diagonal": lambda t: t}


@pytest.mark.parametrize("m, k", _SHAPES)
@pytest.mark.parametrize("curve", sorted(_SECONDS))
def test_schatten2_curve_equals_the_norm_of_the_materialized_products(m, k, curve):
    tp = _two_sided(RandomStream(1000 * m + k), m, k)
    spec, second = NormSpec.schatten(2.0), _SECONDS[curve]
    got, want = tp.norms(_TS, second, spec), _materialized_norms(tp, _TS, second, spec)
    assert got.shape == want.shape == (3, _TS.size)
    assert np.all(np.abs(got - want) <= 1e-14 * want), np.max(np.abs(got / want - 1.0))
    # the trials of a stack have the bits they have alone
    for t in range(3):
        assert np.array_equal(tp.norms(_TS, second, spec, [t])[0], got[t])


@pytest.mark.parametrize("m, k", [(2, 2), (5, 5), (17, 17), (3, 7)])
@pytest.mark.parametrize("text", ["opnorm", "tracenorm", "kyfan:2", "schatten:3"])
def test_other_norms_keep_the_materialized_products(m, k, text):
    tp = _two_sided(RandomStream(7 * m + k), m, k)
    spec = parse_norm(text)
    for second in _SECONDS.values():
        assert np.array_equal(tp.norms(_TS, second, spec), _materialized_norms(tp, _TS, second, spec))


def test_uin_integral_matches_riemann_sum():
    stream = RandomStream(77)
    a, b, x = _triple(stream)
    spec = NormSpec.schatten(2.0)
    rep = uin_chain(UinVariant.FULL, a, b, x, spec)
    # independent reduction: raw numpy eigendecomposition, Frobenius via
    # np.linalg.norm on materialized products
    wa, qa = np.linalg.eigh(a)
    wb, qb = np.linalg.eigh(b)
    ts = (np.arange(100_000) + 0.5) / 100_000
    logs = np.empty(ts.size)
    for i in range(0, ts.size, 2000):
        sub = ts[i : i + 2000]
        left = np.power(wa[None, :], sub[:, None])
        right = np.power(wb[None, :], (1.0 - sub)[:, None])
        core = qa.T @ x @ qb
        stack = left[:, :, None] * core[None, :, :] * right[:, None, :]
        logs[i : i + 2000] = np.log(np.linalg.norm(stack, axis=(1, 2)))
    oracle = math.exp(float(np.mean(logs)))
    assert abs(rep.term_values[2] - oracle) < 1e-6 * oracle


def test_variant_interval_validation():
    a, b, x = np.eye(2), np.eye(2), np.eye(2)
    spec = NormSpec.opnorm()
    with pytest.raises(DegenerateIntervalError):
        uin_chain(UinVariant.SYMMETRIC, a, b, x, spec, nu=0.5)
    with pytest.raises(DomainViolationError):
        uin_chain(UinVariant.SYMMETRIC, a, b, x, spec, nu=0.0)
    with pytest.raises(DegenerateIntervalError):
        uin_chain(UinVariant.END_LEFT, a, b, x, spec, nu=0.0)
    with pytest.raises(DomainViolationError):
        uin_chain(UinVariant.END_LEFT, a, b, x, spec, nu=0.7)
    with pytest.raises(DegenerateIntervalError):
        uin_chain(UinVariant.END_RIGHT, a, b, x, spec, nu=1.0)
    with pytest.raises(DomainViolationError):
        uin_chain(UinVariant.END_RIGHT, a, b, x, spec, nu=0.3)
    with pytest.raises(DomainViolationError):
        uin_chain(UinVariant.SYMMETRIC, a, b, x, spec, nu=math.nan)


def test_zero_x_rejected():
    with pytest.raises(DomainViolationError):
        uin_chain(UinVariant.FULL, np.eye(2), np.eye(2), np.zeros((2, 2)), NormSpec.opnorm())


def test_indefinite_base_rejected():
    from hhverify.errors import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        uin_chain(UinVariant.FULL, np.diag([1.0, -1.0]), np.eye(2), np.eye(2), NormSpec.opnorm())
    # the witnesses check definiteness as the uin chains do; kittaneh does not
    for curve in (PhiSandwich, PhiDiagonal):
        singular = curve(np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            ag_convexity_witness(singular, NormSpec.opnorm())


# ---------------------------------------------------------------------------
# log-convexity witnesses


def test_sandwich_witness_holds_on_random_draws():
    stream = RandomStream(88)
    for _ in range(10):
        a, b, x = _triple(stream)
        for spec in (NormSpec.schatten(2.0), NormSpec.opnorm()):
            verdict = ag_convexity_witness(PhiSandwich(a, b, x), spec, grid_n=17)
            assert verdict.holds, (spec.describe(), verdict.worst_triple, verdict.slack)


def test_diagonal_witness_holds_on_random_draws():
    stream = RandomStream(99)
    for _ in range(10):
        a, b, x = _triple(stream)
        verdict = ag_convexity_witness(PhiDiagonal(a, b, x), NormSpec.schatten(2.0), grid_n=17)
        assert verdict.holds


def test_operator_curve_witness_with_gg_convex_function():
    stream = RandomStream(111)
    for _ in range(10):
        pair = CommutingPair(*random_commuting_pair(stream, 3, 0.1, 10.0))
        curve = PhiOperator(FunctionSpec.exp(0.7), pair)
        verdict = ag_convexity_witness(curve, NormSpec.opnorm(), grid_n=17)
        assert verdict.holds


def test_witness_rejects_unknown_curve_and_zero_x():
    with pytest.raises(ConfigError):
        ag_convexity_witness(object(), NormSpec.opnorm())
    with pytest.raises(DomainViolationError):
        ag_convexity_witness(
            PhiSandwich(np.eye(2), np.eye(2), np.zeros((2, 2))), NormSpec.opnorm()
        )


def test_operator_curve_domain_check():
    pair = CommutingPair(np.eye(2), np.array([0.5, 2.0]), np.array([1.0, 3.0]))
    f = FunctionSpec.poly([0.0, 1.0], domain=(1.0, math.inf))
    with pytest.raises(DomainViolationError):
        ag_convexity_witness(PhiOperator(f, pair), NormSpec.opnorm())
