"""Gauss-Legendre rule correctness and the doubling reliability check."""

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
from hhverify.quadrature import (
    MAX_NODES,
    _contract,
    _mapped_nodes,
    integrate_stack_checked,
    integrate_trials_checked,
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


def test_checked_kinked_integrand_is_flagged():
    # |x| has a kink at 0: GL doubling cannot settle below 1e-9
    _, ok = integrate_scalar_checked(np.abs, -1.0, 1.0, 32)
    assert not ok


def test_doubling_check_compares_n_with_exactly_2n_nodes():
    # the kink at 1/3 defeats every rule up to 256 nodes; a 2n capped at
    # MAX_NODES would compare the 512-node rule with itself and pass it
    def g(t):
        return np.exp(np.abs(t - 1.0 / 3.0))

    for n in (64, 255, MAX_NODES // 2):
        assert not integrate_stack_checked(g, 0.0, 1.0, n)[1], n
    with pytest.raises(NodeCountError):
        integrate_stack_checked(g, 0.0, 1.0, MAX_NODES // 2 + 1)


def test_matrix_integral_adds_nodes_in_order_and_names_a_bad_node():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((40, 3, 3))
    xs, ws = _mapped_nodes(0.0, 1.0, 40)
    want = np.zeros((3, 3))
    for w, sample in zip(ws, samples):
        want += w * sample
    np.testing.assert_array_equal(integrate_matrix(lambda ts: samples, 0.0, 1.0, 40), want)
    samples[7, 1, 2] = np.nan
    with pytest.raises(NonFiniteSampleError, match=re.escape(repr(xs[7]))):
        integrate_matrix(lambda ts: samples, 0.0, 1.0, 40)


def test_matrix_checked_flags_kink():
    def g(ts):
        return np.stack([np.array([[abs(t - 0.3), 0.0], [0.0, 1.0]]) for t in ts])

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

    def kinked(ts, c, m):  # a kink inside each interval fails the doubling check
        v, k = g(ts, c), np.abs(ts - m - 0.1 * c)
        return v + k.reshape(k.shape + (1,) * (v.ndim - k.ndim))

    # the rows come in blocks of at most STACK_ENTRIES entries at 2n nodes
    per_block = STACK_ENTRIES // (2 * n * node_entries)
    blocks = [min(per_block, trials - k) for k in range(0, trials, per_block)]
    rows = []
    real_samples = quadrature._samples

    def samples(g, a, b, n):
        rows.append(a.shape[0])
        return real_samples(g, a, b, n)

    monkeypatch.setattr(quadrature, "_samples", samples)
    for integrand in (lambda ts, c, m: g(ts, c), kinked):
        rows.clear()
        values, flags = integrate_trials_checked(
            lambda sl, ts: integrand(ts, c[sl, None], mid[sl, None]), a, b, n, node_entries
        )
        assert rows == [r for r in blocks for _ in (n, 2 * n)]
        assert len(values) == len(flags) == trials
        for t in range(trials):
            want, ok = integrate_stack_checked(
                lambda ts: integrand(ts, np.full(ts.shape, c[t]), np.full(ts.shape, mid[t])),
                a[t], b[t], n,
            )
            assert values[t].shape == want.shape
            assert values[t].tobytes() == want.tobytes(), (kind, trials, n, t)
            assert flags[t] == ok
    assert not all(flags)


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


def test_contraction_is_tensordot_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(1, MAX_NODES + 1):
        w = rng.standard_normal(n)
        for shape in ((), (3,), (5, 5), (8, 8)):
            s = rng.standard_normal((n,) + shape) * rng.uniform(0.0, 1e3)
            got, want = _contract(w, s), np.tensordot(w, s, axes=(0, 0))
            assert got.shape == want.shape == shape
            assert np.array_equal(got, want), (n, shape)
