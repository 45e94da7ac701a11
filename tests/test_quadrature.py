"""Gauss-Legendre and Gauss-Kronrod rule correctness, the Gauss-Kronrod
reliability check, and the bisection of the pieces that fail it."""

import math
import re

import numpy as np
import pytest

from hhverify import (
    NodeCountError,
    NonFiniteSampleError,
    gl_rule,
    integrate_matrix,
    integrate_matrix_checked,
    integrate_scalar,
    integrate_scalar_checked,
)
from hhverify import quadrature
from hhverify.errors import DimMismatchError
from hhverify.functions import STACK_ENTRIES
from hhverify.norms import _frobenius_rows
from hhverify.quadrature import (
    BISECT_DEPTH,
    DOUBLING_TOL,
    MAX_NODES,
    _agrees,
    _contract,
    _mapped_nodes,
    integrate_stack_checked,
    integrate_trials_checked,
    kronrod_rule,
)


def test_one_node_rule_is_midpoint():
    rule = gl_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=0)
    np.testing.assert_allclose(rule.weights, [2.0], atol=0)


def test_two_node_rule():
    rule = gl_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_three_node_rule_integrates_quartic_exactly():
    # degree-5 rule: integral of x^4 over [-1, 1] is 2/5
    rule = gl_rule(3)
    val = float(rule.weights @ rule.nodes**4)
    assert abs(val - 0.4) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64, 128, 512])
def test_weights_sum_to_two_and_nodes_antisymmetric(n):
    rule = gl_rule(n)
    assert abs(float(rule.weights.sum()) - 2.0) <= 1e-13
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    assert rule.weights.min() > 0.0
    assert rule.nodes.min() > -1.0 and rule.nodes.max() < 1.0


@pytest.mark.parametrize("n", [2, 3, 7, 20, 50, 100, 256])
def test_rule_matches_numpy_leggauss(n):
    rule = gl_rule(n)
    x, w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(rule.nodes, x, atol=1e-13)
    np.testing.assert_allclose(rule.weights, w, atol=1e-13)


def test_rule_arrays_are_frozen():
    rule = gl_rule(10)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


@pytest.mark.parametrize("bad", [0, -3, MAX_NODES + 1, 2.5])
def test_node_count_validation(bad):
    with pytest.raises(NodeCountError):
        gl_rule(bad)


# QUADPACK's qk15 and qk21 (Piessens et al. 1983): the Kronrod nodes xgk and
# weights wgk of the 7- and 10-point Gauss rules, from x = 1 down to x = 0
_QUADPACK_GK = {
    7: (
        [
            0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245, 0.0,
        ],
        [
            0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
        ],
    ),
    10: (
        [
            0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
            0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
            0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
            0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
            0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
        ],
        [
            0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
            0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
            0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
            0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
            0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
            0.149445554002916905664936468389821,
        ],
    ),
}


def _kronrod_all(n):
    """The 2n + 1 nodes and weights of kronrod_rule(n), ascending."""
    gauss, extra = kronrod_rule(n)
    x, w = np.empty(2 * n + 1), np.empty(2 * n + 1)
    x[1::2], w[1::2], x[::2], w[::2] = gauss.nodes, gauss.weights, extra.nodes, extra.weights
    return x, w


@pytest.mark.parametrize("n", sorted(_QUADPACK_GK))
def test_kronrod_rule_matches_quadpack(n):
    xgk, wgk = _QUADPACK_GK[n]
    x, w = _kronrod_all(n)
    np.testing.assert_allclose(-x[: n + 1], xgk, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x[n:], xgk[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w[: n + 1], wgk, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w[n:], wgk[::-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [*range(1, 12), 17, 64, 256])
def test_kronrod_rule_is_exact_to_degree_3n_plus_1(n):
    x, w = _kronrod_all(n)
    for d in range(3 * n + 2):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(float(w @ x**d) - exact) <= 1e-14, (n, d)


@pytest.mark.parametrize("n", [*range(1, 12), 17, 64, 256])
def test_kronrod_rule_extends_the_gauss_rule(n):
    gauss, extra = kronrod_rule(n)
    assert (gauss.n, extra.n) == (n, n + 1)
    np.testing.assert_allclose(gauss.nodes, gl_rule(n).nodes, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(extra.nodes, -extra.nodes[::-1])
    assert gauss.weights.min() > 0.0 and extra.weights.min() > 0.0
    assert extra.nodes.min() > -1.0 and extra.nodes.max() < 1.0
    with pytest.raises(ValueError):
        extra.nodes[0] = 0.0


@pytest.mark.parametrize("bad", [0, -3, MAX_NODES // 2 + 1, 2.5])
def test_kronrod_node_count_validation(bad):
    with pytest.raises(NodeCountError):
        kronrod_rule(bad)


def test_scalar_integral_exponential():
    val = integrate_scalar(np.exp, 0.0, 2.0, 32)
    assert abs(val - (math.e**2 - 1.0)) <= 1e-12


def test_scalar_integral_polynomial_exact():
    # 64 nodes integrate degree <= 127 exactly (up to roundoff)
    val = integrate_scalar(lambda x: 7 * x**9 - x**3 + 2, -1.5, 2.0, 64)
    exact = 7 * (2.0**10 - 1.5**10) / 10 - (2.0**4 - 1.5**4) / 4 + 2 * 3.5
    assert abs(val - exact) <= 1e-10 * max(1.0, abs(exact))


def test_scalar_integral_reversed_interval_flips_sign():
    fwd = integrate_scalar(np.exp, 0.0, 1.0, 16)
    rev = integrate_scalar(np.exp, 1.0, 0.0, 16)
    assert abs(fwd + rev) <= 1e-14


def test_matrix_integral_entrywise():
    def g(ts):
        return np.stack([np.array([[t, t**2], [math.exp(t), 1.0]]) for t in ts])

    val = integrate_matrix(g, 0.0, 1.0, 24)
    want = np.array([[0.5, 1 / 3], [math.e - 1.0, 1.0]])
    np.testing.assert_allclose(val, want, atol=1e-12)


def test_checked_smooth_integrand_is_reliable():
    val, ok = integrate_scalar_checked(np.cos, 0.0, 1.0, 32)
    assert ok
    assert abs(val - math.sin(1.0)) <= 1e-13


def test_checked_kinked_integrand_is_flagged(monkeypatch):
    # |x| has a kink at 0: the Gauss and Kronrod values of the one piece
    # cannot agree to 1e-9, and the first bisection cuts at the kink
    val, ok = integrate_scalar_checked(np.abs, -1.0, 1.0, 32)
    assert ok and abs(val - 1.0) <= 1e-15
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    _, ok = integrate_scalar_checked(np.abs, -1.0, 1.0, 32)
    assert not ok


def test_kronrod_check_flags_a_kink_up_to_the_largest_rule(monkeypatch):
    # the kink at 1/3 defeats every Gauss-Kronrod pair up to n = 256, whose
    # Kronrod rule has 513 nodes, until bisection isolates it; n beyond
    # MAX_NODES // 2 is refused
    def g(t):
        return np.exp(np.abs(t - 1.0 / 3.0))

    exact = math.exp(1.0 / 3.0) + math.exp(2.0 / 3.0) - 2.0
    for n in (32, 64, 255, MAX_NODES // 2):
        val, ok = integrate_stack_checked(g, 0.0, 1.0, n)
        assert ok, n
        if n <= 64:  # at n = 256 the two values agree on a piece both miss by 1e-8
            assert abs(float(val) - exact) <= DOUBLING_TOL, n
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    for n in (64, 255, MAX_NODES // 2):
        assert not integrate_stack_checked(g, 0.0, 1.0, n)[1], n
    with pytest.raises(NodeCountError):
        integrate_stack_checked(g, 0.0, 1.0, MAX_NODES // 2 + 1)


def test_matrix_integral_adds_nodes_in_order_and_names_a_bad_node():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((40, 3, 3))
    xs, ws = _mapped_nodes(0.0, 1.0, gl_rule(40))
    want = np.zeros((3, 3))
    for w, sample in zip(ws, samples):
        want += w * sample
    np.testing.assert_array_equal(integrate_matrix(lambda ts: samples, 0.0, 1.0, 40), want)
    samples[7, 1, 2] = np.nan
    with pytest.raises(NonFiniteSampleError, match=re.escape(repr(xs[7]))):
        integrate_matrix(lambda ts: samples, 0.0, 1.0, 40)


def test_matrix_checked_flags_kink(monkeypatch):
    def g(ts):
        return np.stack([np.array([[abs(t - 0.3), 0.0], [0.0, 1.0]]) for t in ts])

    val, ok = integrate_matrix_checked(g, 0.0, 1.0, 32)
    assert ok
    np.testing.assert_allclose(val, [[0.29, 0.0], [0.0, 1.0]], rtol=0, atol=DOUBLING_TOL)
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    _, ok = integrate_matrix_checked(g, 0.0, 1.0, 32)
    assert not ok


def test_non_finite_sample_is_named():
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteSampleError):
        integrate_scalar(lambda x: 1.0 / x, -1.0, 1.0, 33)  # odd n puts a node at 0


def test_stack_integrator_shapes():
    # scalar stack -> shape (), vector stack -> (k,), matrix stack -> (m, m)
    v, ok = integrate_stack_checked(lambda ts: np.exp(ts), 0.0, 1.0, 32)
    assert v.shape == () and ok
    assert abs(float(v) - (math.e - 1.0)) <= 1e-13

    v, ok = integrate_stack_checked(lambda ts: np.stack([ts, ts**2], axis=1), 0.0, 1.0, 32)
    assert v.shape == (2,) and ok
    np.testing.assert_allclose(v, [0.5, 1 / 3], atol=1e-13)

    v, ok = integrate_stack_checked(
        lambda ts: ts[:, None, None] * np.eye(2)[None, :, :], 0.0, 1.0, 16
    )
    assert v.shape == (2, 2) and ok
    np.testing.assert_allclose(v, 0.5 * np.eye(2), atol=1e-14)


def test_stack_integrator_degenerate_interval():
    v, ok = integrate_stack_checked(lambda ts: np.stack([ts, ts], axis=1), 0.5, 0.5, 16)
    assert ok
    np.testing.assert_array_equal(v, np.zeros(2))


def test_stack_integrator_rejects_wrong_leading_axis():
    with pytest.raises(DimMismatchError):
        integrate_stack_checked(lambda ts: np.ones(3), 0.0, 1.0, 16)


# one integrand per trial: elementwise in the nodes, with a trial parameter c,
# so the stacked form and the trial's own form compute the same values
_TRIAL_INTEGRANDS = {
    "scalar": (lambda ts, c: np.exp(c * ts) * np.sin(3.0 * ts + c)),
    "vector": (lambda ts, c: np.cos(np.arange(1.0, 6.0) * ts[..., None] + c[..., None])),
    "matrix": (
        lambda ts, c: np.exp(-ts[..., None, None] * np.arange(1.0, 10.0).reshape(3, 3))
        * (c[..., None, None] + ts[..., None, None] ** 2)
    ),
}


# entries per node of each integrand's samples: what a caller passes as
# node_entries, so the vector and matrix kinds cut their rows in smaller blocks
_NODE_ENTRIES = {"scalar": 1, "vector": 5, "matrix": 9}


@pytest.mark.parametrize("kind", list(_TRIAL_INTEGRANDS))
@pytest.mark.parametrize("trials", [1, 2, 7, 33, 300])
@pytest.mark.parametrize("n", [8, 64])
def test_trial_integrator_matches_one_trial_at_a_time(kind, trials, n, monkeypatch):
    g, node_entries = _TRIAL_INTEGRANDS[kind], _NODE_ENTRIES[kind]
    rng = np.random.default_rng(trials * 1000 + n)
    a = rng.uniform(-2.0, 1.0, trials)
    b = a + rng.uniform(0.01, 3.0, trials)
    c = rng.uniform(-1.0, 1.0, trials)
    mid = 0.5 * (a + b)

    def kinked(ts, c, m, share=1.0):
        # a kink inside each interval fails the Gauss-Kronrod check; with
        # share < 1 only the rows of c < 2 share - 1 have one
        v, k = g(ts, c), np.abs(ts - m - 0.1 * c) * (c < 2.0 * share - 1.0)
        return v + k.reshape(k.shape + (1,) * (v.ndim - k.ndim))

    # the rows come in blocks of at most STACK_ENTRIES entries at n + 1 nodes;
    # the rows that fail the check are sampled again, after all of them
    per_block = STACK_ENTRIES // ((n + 1) * node_entries)
    blocks = [min(per_block, trials - k) for k in range(0, trials, per_block)]
    first = [r for r in blocks for _ in (n, n + 1)]
    rows = []
    real_samples = quadrature._samples

    def samples(g, a, b, rule):
        rows.append(a.shape[0])
        return real_samples(g, a, b, rule)

    monkeypatch.setattr(quadrature, "_samples", samples)
    for depth in (0, BISECT_DEPTH):
        monkeypatch.setattr(quadrature, "BISECT_DEPTH", depth)
        for integrand in (lambda ts, c, m: g(ts, c), lambda *x: kinked(*x, share=0.5), kinked):
            rows.clear()
            values, flags = integrate_trials_checked(
                lambda sl, ts: integrand(ts, c[sl, None], mid[sl, None]), a, b, n, node_entries
            )
            assert rows[: len(first)] == first and (depth or len(rows) == len(first))
            assert len(values) == len(flags) == trials
            for t in range(trials):
                want, ok = integrate_stack_checked(
                    lambda ts: integrand(ts, np.full(ts.shape, c[t]), np.full(ts.shape, mid[t])),
                    a[t], b[t], n,
                )
                assert values[t].shape == want.shape
                assert values[t].tobytes() == want.tobytes(), (kind, trials, n, depth, t)
                assert flags[t] == ok
        if not depth:
            assert not all(flags)


@pytest.mark.parametrize("n", [1, 8, 64, MAX_NODES // 2])
def test_trial_integrator_samples_n_gauss_then_n_plus_1_kronrod_nodes(n, monkeypatch):
    # the Gauss samples serve the Gauss value and the Kronrod value: 2n + 1
    # integrand nodes per row in all, not n + 2n (n = 1 fails the check on
    # exp, so the base rule is taken alone)
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    calls = []
    real_samples = quadrature._samples

    def samples(g, a, b, rule):
        def counted(xs):
            calls.append(xs.shape)
            return g(xs)

        return real_samples(counted, a, b, rule)

    monkeypatch.setattr(quadrature, "_samples", samples)
    a = np.linspace(0.0, 1.0, 5)
    integrate_trials_checked(lambda sl, ts: np.exp(ts), a, a + 1.0, n)
    assert calls == [(5, n), (5, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trial_integrator_reports_the_kronrod_sum(n, monkeypatch):
    # the (2n + 1)-node Kronrod sum, not the n-node Gauss value, whether the
    # check passes or not (exp on [0, 1] fails it for these n)
    monkeypatch.setattr(quadrature, "BISECT_DEPTH", 0)
    gauss, extra = kronrod_rule(n)
    x = np.concatenate((gauss.nodes, extra.nodes))
    w = np.concatenate((gauss.weights, extra.weights))
    want = 0.5 * float(w @ np.exp(0.5 + 0.5 * x))
    gauss_value = 0.5 * float(gl_rule(n).weights @ np.exp(0.5 + 0.5 * gl_rule(n).nodes))
    (value,), (ok,) = integrate_trials_checked(lambda sl, ts: np.exp(ts), np.zeros(1), np.ones(1), n)
    assert abs(value - want) <= 1e-15 and not ok
    assert abs(value - (math.e - 1.0)) < abs(gauss_value - (math.e - 1.0))


def test_trial_integrator_refuses_a_non_finite_sample_and_a_wrong_shape():
    a, b = np.zeros(3), np.ones(3)

    def one_bad_trial(sl, ts):
        out = np.exp(ts)
        out[1, 5] = np.inf
        return out

    with pytest.raises(NonFiniteSampleError, match="t="):
        integrate_trials_checked(one_bad_trial, a, b, 16)
    with pytest.raises(DimMismatchError):
        integrate_trials_checked(lambda sl, ts: np.ones(ts.shape[1]), a, b, 16)


def test_batched_contraction_is_tensordot_bit_for_bit():
    # every row of one batched contraction has the bits of its own tensordot
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((50, MAX_NODES, 8, 8))
    for n in range(1, MAX_NODES + 1):
        for shape in ((), (3,), (5, 5), (8, 8)):
            size = math.prod(shape)
            for trials in (1, 2, 7, 50):
                s = pool[:trials, :n].reshape(trials, n, -1)[:, :, :size].reshape(
                    (trials, n) + shape
                ) * rng.uniform(0.0, 1e3)
                a = rng.uniform(-2.0, 1.0, (trials, 1))
                b = a + rng.uniform(0.01, 3.0, (trials, 1))
                ws = _mapped_nodes(a, b, gl_rule(n))[1]
                got = _contract(ws, s)
                assert got.shape == (trials,) + shape
                for t in range(trials):
                    want = np.tensordot(ws[t], s[t], axes=(0, 0))
                    assert np.array_equal(got[t], want), (n, shape, trials, t)


def test_batched_doubling_norms_are_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(6)
    flags = set()
    for shape in ((), (1,), (3,), (5, 5), (8, 8), (40, 40)):
        for trials in (1, 2, 7, 50):
            for _ in range(20):
                v1 = rng.standard_normal((trials,) + shape) * rng.uniform(0.0, 1e3)
                scale = np.array([np.linalg.norm(np.ravel(v)) for v in v1])
                # differences around the doubling threshold, so both flags occur
                step = DOUBLING_TOL * (1.0 + scale) * rng.uniform(0.0, 2.0, trials)
                d = rng.standard_normal(v1.shape)
                d *= (step / np.array([np.linalg.norm(np.ravel(x)) for x in d])).reshape(
                    (trials,) + (1,) * len(shape)
                )
                v2 = v1 + d
                resid = [np.linalg.norm(np.ravel(x)) for x in v1 - v2]
                assert _frobenius_rows((v1 - v2).reshape(trials, -1)).tolist() == resid
                assert _frobenius_rows(v1.reshape(trials, -1)).tolist() == scale.tolist()
                want = [r <= DOUBLING_TOL * (1.0 + c) for r, c in zip(resid, scale)]
                assert _agrees(v1, v2).tolist() == want
                flags.update(want)
    assert flags == {True, False}
