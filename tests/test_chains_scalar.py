"""Scalar HH chains, the six-term operator chain, and the two-sided checks.

Fixture values are either closed-form (constant chains of multiplicative
functions, 1x1 operator pairs reduced by hand) or pinned against a dense
Riemann sum computed in the test itself.
"""

import math

import numpy as np
import pytest

from hhverify import (
    ConfigError,
    DimMismatchError,
    DomainViolationError,
    FunctionSpec,
    NormSpec,
    am_gm_loewner_check,
    det_ag_concavity_check,
    dragomir_operator_chain,
    kittaneh_check,
    norm_power_check,
    scalar_hh_chain,
    scalar_mean_chain_report,
)
from hhverify import chains, quadrature
from hhverify.chains import DRAGOMIR_TERM_NAMES, HH_NODES, HH_TERM_NAMES, _hh_stack
from hhverify.errors import (
    DegenerateIntervalError,
    NonFiniteInputError,
    NonPositiveInputError,
    NotPositiveDefiniteError,
)
from hhverify.linalg import weighted_geometric_mean
from hhverify.sampler import RandomStream, random_orthogonal, random_spd


# ---------------------------------------------------------------------------
# scalar AG / GG chains


def test_ag_chain_exp_collapses_to_e():
    # log(e^x) is affine, so every term of the AG chain on [0, 2] equals e
    rep = scalar_hh_chain("ag", FunctionSpec.exp(), 0.0, 2.0)
    assert rep.theorem_id == "scalar_ag"
    assert rep.term_names == HH_TERM_NAMES
    assert rep.passed and rep.quad_reliable and rep.hypothesis_ok
    for v in rep.term_values:
        assert abs(v - math.e) < 1e-10


def test_gg_chain_power_collapses_to_eight():
    # t^3 is multiplicative, so the GG chain on [1, 4] is constant at 2^3
    rep = scalar_hh_chain("gg", FunctionSpec.power(3.0), 1.0, 4.0)
    assert rep.theorem_id == "scalar_gg"
    assert rep.passed and rep.quad_reliable and rep.hypothesis_ok
    for v in rep.term_values:
        assert abs(v - 8.0) < 1e-10


def test_ag_chain_strict_on_genuinely_convex_function():
    # log(1/x) is strictly convex, so no inequality degenerates
    rep = scalar_hh_chain("ag", FunctionSpec.inverse(), 1.0, 3.0)
    assert rep.passed
    assert all(m > 1e-6 for m in rep.margins)


def test_ag_chain_random_draws_hold():
    stream = RandomStream(2024)
    for _ in range(200):
        u = stream.uniform(2)
        a = 0.1 + 3.0 * float(u[0])
        b = a + 0.1 + 2.0 * float(u[1])
        for f in (FunctionSpec.exp(1.3), FunctionSpec.inverse(), FunctionSpec.power(-0.7)):
            rep = scalar_hh_chain("ag", f, a, b)
            assert rep.passed and rep.hypothesis_ok, (f.describe(), a, b, rep.margins)


def test_gg_chain_random_draws_hold():
    stream = RandomStream(4048)
    for _ in range(200):
        u = stream.uniform(2)
        a = 0.2 + 2.0 * float(u[0])
        b = a * (1.1 + 3.0 * float(u[1]))
        for f in (
            FunctionSpec.exp(),
            FunctionSpec.power(2.0),
            FunctionSpec.poly([1.0, 0.5, 2.0]),
        ):
            rep = scalar_hh_chain("gg", f, a, b)
            assert rep.passed and rep.hypothesis_ok, (f.describe(), a, b, rep.margins)


def test_ag_integral_term_matches_riemann_sum():
    f = FunctionSpec.poly([1.0, 2.0, 1.0])
    a, b = 0.5, 2.5
    rep = scalar_hh_chain("ag", f, a, b)
    ts = a + (b - a) * (np.arange(100_000) + 0.5) / 100_000
    oracle = math.exp(float(np.mean(np.log(f.eval_array(ts)))))
    assert abs(rep.term_values[2] - oracle) < 1e-6 * oracle


def test_gg_integral_term_matches_riemann_sum():
    f = FunctionSpec.exp(0.9)
    a, b = 1.0, 3.0
    rep = scalar_hh_chain("gg", f, a, b)
    ts = a + (b - a) * (np.arange(100_000) + 0.5) / 100_000
    vals = np.log(f.eval_array(ts)) / ts
    oracle = math.exp(float(np.sum(vals)) * (b - a) / 100_000 / (math.log(b) - math.log(a)))
    assert abs(rep.term_values[2] - oracle) < 1e-6 * oracle


def test_ag_hypothesis_flag_for_log_concave_function():
    # x^2 has concave log, so the AG grid test must flag it
    rep = scalar_hh_chain("ag", FunctionSpec.power(2.0), 1.0, 2.0)
    assert not rep.hypothesis_ok
    silent = scalar_hh_chain("ag", FunctionSpec.power(2.0), 1.0, 2.0, check_hypothesis=False)
    assert silent.hypothesis_ok
    assert silent.term_values == rep.term_values


def test_scalar_chain_validation():
    f = FunctionSpec.exp()
    with pytest.raises(ConfigError):
        scalar_hh_chain("agg", f, 0.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        scalar_hh_chain("ag", f, 1.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        scalar_hh_chain("gg", f, 2.0, 1.0)
    with pytest.raises(NonPositiveInputError):
        scalar_hh_chain("gg", f, 0.0, 1.0)
    with pytest.raises(NonPositiveInputError):
        scalar_hh_chain("gg", f, -1.0, 1.0)
    with pytest.raises(DomainViolationError):
        scalar_hh_chain("ag", FunctionSpec.inverse(), -1.0, 1.0)
    with pytest.raises(DomainViolationError):
        scalar_hh_chain("ag", f, 0.0, math.inf)


def _hh_one(anchors, log_v, quad_n, cuts=None):
    """_hh_stack on one trial over [0, 1], log_v called on the nodes of each piece."""
    (terms,), (reliable,) = _hh_stack(
        [anchors], lambda rows, xs: np.stack([log_v(x) for x in xs]), np.zeros(1), np.ones(1),
        quad_n, 1, cuts=cuts,
    )
    return terms, reliable


def test_hh_stack_closed_form():
    # v(t) = exp(t^2) on [0, 1]: log v is a polynomial, so quadrature is exact
    anchors = tuple(math.exp(t * t) for t in HH_NODES)
    terms, reliable = _hh_one(anchors, lambda ts: ts * ts, 64)
    assert reliable
    want = [math.exp(e) for e in (1 / 4, 5 / 16, 1 / 3, 3 / 8, 1 / 2)]
    np.testing.assert_allclose(terms, want, rtol=1e-14)


def test_hh_stack_integrates_piecewise_across_a_kink(monkeypatch):
    # log v(t) = |t - 1/2|: smooth on either side of the kink, not across it
    anchors = tuple(math.exp(abs(t - 0.5)) for t in HH_NODES)

    def log_v(ts):
        return np.abs(ts - 0.5)

    terms, reliable = _hh_one(anchors, log_v, 64, cuts=np.array([[0.5]]))
    assert reliable
    assert terms[2] == pytest.approx(math.exp(0.25), rel=1e-14)
    # without the cut the one piece fails the Gauss-Kronrod check, and a
    # dyadic kink is a cut of the first bisection
    bisected, reliable = _hh_one(anchors, log_v, 64)
    assert reliable
    assert bisected[2] == pytest.approx(math.exp(0.25), rel=1e-14)
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    _, reliable = _hh_one(anchors, log_v, 64)
    assert not reliable


@pytest.mark.parametrize("quad_n", [chains.DEFAULT_QUAD_N, 64])
def test_hh_stack_bisects_down_to_a_non_dyadic_kink(quad_n, monkeypatch):
    # log v(t) = |t - 1/3|: no bisection point is the kink, so the piece that
    # holds it is halved until its Gauss and Kronrod values agree. The check
    # passes once they differ by under DOUBLING_TOL, and the Kronrod value
    # is then within a fraction of that of the exact mean 5/18
    anchors = tuple(math.exp(abs(t - 1.0 / 3.0)) for t in HH_NODES)

    def log_v(ts):
        return np.abs(ts - 1.0 / 3.0)

    terms, reliable = _hh_one(anchors, log_v, quad_n)
    assert reliable
    assert abs(math.log(terms[2]) - 5.0 / 18.0) <= quadrature.DOUBLING_TOL
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    _, reliable = _hh_one(anchors, log_v, quad_n)
    assert not reliable


def test_mean_chain_report():
    rep = scalar_mean_chain_report(1.0, math.e**2)
    assert rep.passed
    assert abs(rep.term_values[1] - math.e) < 1e-12  # geometric
    assert abs(rep.term_values[2] - (math.e**2 - 1.0) / 2.0) < 1e-12  # logarithmic
    assert abs(rep.term_values[3] - (1.0 + math.e**2) / 2.0) < 1e-12  # arithmetic


# ---------------------------------------------------------------------------
# six-term operator chain


def test_dragomir_square_1x1_fixture():
    # scalars a=0, b=1, f(x)=x^2: terms 1/4, 13/48, 5/16, 1/3, 3/8, 1/2
    rep = dragomir_operator_chain(
        FunctionSpec.power(2.0), np.array([[0.0]]), np.array([[1.0]])
    )
    assert rep.theorem_id == "dragomir"
    assert tuple(c.lhs_name for c in rep.comparisons) == DRAGOMIR_TERM_NAMES[:-1]
    assert rep.passed and rep.quad_reliable
    # reconstruct term values from the 1x1 gaps: t_{k+1} = t_k + gap_k
    vals = [0.25]
    for c in rep.comparisons:
        vals.append(vals[-1] + c.min_gap)
    expected = (0.25, 13.0 / 48.0, 0.3125, 1.0 / 3.0, 0.375, 0.5)
    for got, want in zip(vals, expected):
        assert abs(got - want) < 1e-12, (got, want)


def test_dragomir_inverse_1x1_fixture():
    # scalars a=1, b=2, f(x)=1/x: hand integrals of 1/(t+... ) below
    rep = dragomir_operator_chain(
        FunctionSpec.inverse(), np.array([[1.0]]), np.array([[2.0]])
    )
    assert rep.passed and rep.quad_reliable
    vals = [2.0 / 3.0]
    for c in rep.comparisons:
        vals.append(vals[-1] + c.min_gap)
    expected = (
        2.0 / 3.0,              # 1 / mean
        2.0 * math.log(1.4),    # 2 int_{1/4}^{3/4} dt/(2-t)
        24.0 / 35.0,            # (4/7 + 4/5) / 2
        math.log(2.0),          # int_0^1 dt/(2-t)
        17.0 / 24.0,            # (2/3)/2 + (1 + 1/2)/4
        0.75,
    )
    for got, want in zip(vals, expected):
        assert abs(got - want) < 1e-12, (got, want)


def test_dragomir_loewner_order_on_random_pairs():
    stream = RandomStream(77)
    for dim in (2, 3, 5):
        for _ in range(25):
            a = random_spd(stream, dim, 0.1, 10.0)
            b = random_spd(stream, dim, 0.1, 10.0)
            for f in (FunctionSpec.power(2.0), FunctionSpec.inverse()):
                rep = dragomir_operator_chain(f, a, b)
                assert rep.passed, (f.describe(), dim, rep.comparisons)


def test_dragomir_square_accepts_indefinite_pairs():
    # x^2 is operator convex on the whole line; no positivity needed
    a = np.array([[1.0, 2.0], [2.0, -3.0]])
    b = np.array([[-0.5, 0.3], [0.3, 1.0]])
    assert dragomir_operator_chain(FunctionSpec.power(2.0), a, b).passed


def test_dragomir_rejects_unsupported_function():
    eye = np.eye(2)
    with pytest.raises(ConfigError):
        dragomir_operator_chain(FunctionSpec.exp(), eye, 2.0 * eye)
    with pytest.raises(ConfigError):
        dragomir_operator_chain(FunctionSpec.power(3.0), eye, 2.0 * eye)
    # the segment integrals are exact: a node count is no longer an argument
    with pytest.raises(TypeError):
        dragomir_operator_chain(FunctionSpec.power(2.0), eye, 2.0 * eye, 64)


def test_dragomir_inverse_requires_positive_definite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError):
        dragomir_operator_chain(FunctionSpec.inverse(), a, np.eye(2))
    with pytest.raises(DimMismatchError):
        dragomir_operator_chain(FunctionSpec.inverse(), np.eye(2), np.eye(3))
    # positive definite, but 1 + x rounds to 0 on the segment's path
    with pytest.raises(DomainViolationError):
        dragomir_operator_chain(FunctionSpec.inverse(), np.diag([1e-17, 1.0]), np.eye(2))


def _max_entry_error(got, want):
    """Per matrix of a stack: max-entry error over the max entry of want."""
    return np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))


@pytest.mark.parametrize(
    "f", [FunctionSpec.power(2.0), FunctionSpec.inverse()], ids=FunctionSpec.describe
)
def test_dragomir_segments_at_a_equal_b_are_the_span_times_f(f):
    # A = B: the path is constant (x = 0 everywhere, where the inverse weight
    # is its series), so central_integral = 2 * (1/2) f(A) and full_integral
    # = f(A)
    for dim in (1, 2, 3, 5, 8):
        a = random_spd(RandomStream(np.arange(50, dtype=np.uint64) + 1), dim, 0.1, 10.0)
        terms = chains._dragomir_terms(f, chains._pair(a, a))
        fa = terms[5]  # (f(A) + f(B)) / 2
        assert _max_entry_error(terms[1], fa).max() <= 1e-15, dim
        assert _max_entry_error(terms[3], fa).max() <= 1e-15, dim
        assert dragomir_operator_chain(f, a[0], a[0]).passed


def test_dragomir_inverse_series_and_closed_branches_agree_at_the_cut(monkeypatch):
    # pairs with W^T (A - B) W = U diag(x) U^T, W^T B W = I, and every |x| a
    # hair below the series cut-off or a hair above it
    cut = chains.INVERSE_SERIES_CUT
    inverse = FunctionSpec.inverse()
    for dim in (1, 2, 3, 5, 8):
        stream = RandomStream(np.arange(40, dtype=np.uint64) + 9)
        b = random_spd(stream, dim, 0.1, 10.0)
        u = random_orthogonal(stream, dim)
        signs = np.where(stream.uniform(dim) < 0.5, -1.0, 1.0)
        lb, qb = np.linalg.eigh(b)
        root = qb * np.sqrt(lb)[:, None, :]  # root root^T = B
        for side, scale in (("below", 1.0 - 1e-3), ("above", 1.0 + 1e-3)):
            x = signs * cut * scale
            m = root @ u
            a = b + (m * x[:, None, :]) @ np.swapaxes(m, 1, 2)
            a = 0.5 * (a + np.swapaxes(a, 1, 2))
            branch = {}
            for name, moved in (("series", 10.0 * cut), ("closed", 0.1 * cut)):
                monkeypatch.setattr(chains, "INVERSE_SERIES_CUT", moved)
                branch[name] = chains._dragomir_terms(inverse, chains._pair(a, b))[[1, 3]]
            monkeypatch.setattr(chains, "INVERSE_SERIES_CUT", cut)
            got = chains._dragomir_terms(inverse, chains._pair(a, b))[[1, 3]]
            # the default cut takes the series below it and the closed form above
            np.testing.assert_array_equal(got, branch["series" if side == "below" else "closed"])
            assert _max_entry_error(branch["series"], branch["closed"]).max() <= 1e-13, (dim, side)


# ---------------------------------------------------------------------------
# determinant concavity, AM-GM order, norm powers, Kittaneh


def test_det_ag_diagonal_fixture():
    # A=diag(4,1), B=diag(1,4), alpha=1/2: det(mean)=25/4, rhs=det=4
    a, b = np.diag([4.0, 1.0]), np.diag([1.0, 4.0])
    rep = det_ag_concavity_check(a, b, 0.5)
    assert rep.passed
    assert abs(rep.lhs - 4.0) < 1e-12
    assert abs(rep.rhs - 6.25) < 1e-12
    assert abs(rep.margin - 2.25) < 1e-12


def test_det_ag_random_and_validation():
    stream = RandomStream(913)
    for _ in range(50):
        a = random_spd(stream, 4, 0.1, 10.0)
        b = random_spd(stream, 4, 0.1, 10.0)
        alpha = float(stream.uniform(1)[0])
        if not 0.0 < alpha < 1.0:
            continue
        assert det_ag_concavity_check(a, b, alpha).passed
    with pytest.raises(DomainViolationError):
        det_ag_concavity_check(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(DomainViolationError):
        det_ag_concavity_check(np.eye(2), np.eye(2), 1.5)
    with pytest.raises(NotPositiveDefiniteError):
        det_ag_concavity_check(np.diag([1.0, 0.0]), np.eye(2), 0.5)


def test_am_gm_fixture_and_random():
    # A=I, B=9I, nu=1/2: geometric mean 3I, arithmetic 5I, gap 2
    rep = am_gm_loewner_check(np.eye(2), 9.0 * np.eye(2), 0.5)
    assert rep.passed
    assert abs(rep.comparisons[0].min_gap - 2.0) < 1e-10
    stream = RandomStream(515)
    for _ in range(100):
        a = random_spd(stream, 3, 0.1, 10.0)
        b = random_spd(stream, 3, 0.1, 10.0)
        nu = float(stream.uniform(1)[0])
        rep = am_gm_loewner_check(a, b, nu)
        assert rep.passed, (nu, rep.comparisons)


def test_norm_power_equality_at_balanced_spectrum():
    # diag(2, 1/2): ||A^t|| = 2^t exactly, so the power curve is log-affine
    rep = norm_power_check(np.diag([2.0, 0.5]))
    assert rep.passed
    assert abs(rep.margin) < 1e-10


def test_norm_power_random_spd():
    stream = RandomStream(31337)
    for dim in (2, 3, 5):
        for _ in range(40):
            assert norm_power_check(random_spd(stream, dim, 0.1, 10.0)).passed


def test_norm_power_alpha_validation():
    with pytest.raises(DomainViolationError):
        norm_power_check(np.eye(2), alphas=np.array([0.5, 1.5]))


def test_norm_power_refuses_an_empty_exponent_grid():
    # an empty grid checks nothing: it used to pass with lhs = rhs = margin = 0
    for empty in ([], np.array([])):
        with pytest.raises(ConfigError, match="empty"):
            norm_power_check(np.eye(2) * 3.0, alphas=empty)


def test_kittaneh_equality_at_identity():
    rep = kittaneh_check(np.eye(3), np.eye(3), np.eye(3), 0.3, NormSpec.schatten(2.0))
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) < 1e-12


def test_kittaneh_random_across_norms():
    stream = RandomStream(2718)
    specs = (
        NormSpec.opnorm(),
        NormSpec.schatten(2.0),
        NormSpec.schatten(1.0),
        NormSpec.schatten(3.0),
        NormSpec.kyfan(2),
    )
    for _ in range(40):
        a = random_spd(stream, 3, 0.1, 10.0)
        b = random_spd(stream, 3, 0.1, 10.0)
        x = np.asarray(stream.gaussian(9)).reshape(3, 3)
        nu = float(stream.uniform(1)[0])
        for spec in specs:
            rep = kittaneh_check(a, b, x, nu, spec)
            assert rep.passed, (spec.describe(), nu, rep.margin)


def test_kittaneh_rectangular_bridge_and_mismatch():
    stream = RandomStream(99)
    a = random_spd(stream, 3, 0.5, 2.0)
    b = random_spd(stream, 2, 0.5, 2.0)
    x = np.asarray(stream.gaussian(6)).reshape(3, 2)
    assert kittaneh_check(a, b, x, 0.4, NormSpec.schatten(2.0)).passed
    with pytest.raises(DimMismatchError):
        kittaneh_check(a, b, x.T, 0.4, NormSpec.schatten(2.0))
    with pytest.raises(DomainViolationError):
        kittaneh_check(a, b, x, -0.1, NormSpec.schatten(2.0))


def test_semidefinite_and_singular_inputs_keep_their_outcomes():
    # the closed-form checks read one spectral view of A and B, which asks
    # for no definiteness: each check keeps its own domain
    x = np.array([[1.0, 2.0], [-0.5, 3.0]])
    singular = np.diag([1.0, 0.0])
    assert kittaneh_check(singular, np.eye(2), x, 0.3, NormSpec.opnorm()).passed
    assert norm_power_check(np.diag([2.0, 0.0])).passed
    with pytest.raises(NotPositiveDefiniteError, match="^left factor is not positive definite$"):
        am_gm_loewner_check(singular, np.eye(2), 0.3)
    with pytest.raises(NotPositiveDefiniteError, match="^right factor is not positive definite$"):
        am_gm_loewner_check(np.eye(2), singular, 0.3)


def test_am_gm_refuses_a_singular_b_as_weighted_geometric_mean_does():
    # B = G G^T of a 3x2 G is singular to rounding: eigh and eigvalsh round
    # its smallest eigenvalue to either sign, and not always to the same one
    def refused(check):
        try:
            with np.errstate(invalid="ignore"):
                check()
        except NotPositiveDefiniteError as e:
            return str(e) == "right factor is not positive definite"
        except NonFiniteInputError:  # past the check: B^0.3 is NaN
            pass
        return False

    for seed in range(20):
        g = RandomStream(seed).gaussian(6).reshape(3, 2)
        b = g @ g.T
        want = refused(lambda: weighted_geometric_mean(np.eye(3), b, 0.3))
        assert refused(lambda: am_gm_loewner_check(np.eye(3), b, 0.3)) == want, seed
