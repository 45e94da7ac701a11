"""Bisection of the quadrature pieces that fail the Gauss-Kronrod check, in
the chains whose curves kink: a synthetic curve through _hh_stack, the
ablated op_norm_gg curve (norm_gg_general) and the uin_full sandwich curve
(_uin_stack) under the operator norm. The last two read the nodes of their
first row only, so every call of the integrator must hold rows of one
interval. A kink trial keeps the bits it has alone in any block, whatever
its other rows bisect, and its bisected integral agrees with the 256-node
rule."""

import math

import numpy as np
import pytest

from hhverify import quadrature
from hhverify.chains import (
    DEFAULT_QUAD_N,
    HH_NODES,
    UinVariant,
    _hh_stack,
    _pair,
    _TwoSidedPowers,
    _uin_stack,
    norm_gg_general,
)
from hhverify.functions import FunctionSpec
from hhverify.norms import parse_norm
from hhverify.sampler import RandomStream, random_spd

TRIALS = 40
OPNORM = parse_norm("opnorm")


def _spd_stack(stream, dim):
    return np.stack([random_spd(stream, dim, 0.1, 10.0) for _ in range(TRIALS)])


def _synthetic(dim):
    """log v(t) = s |t - c| + t^2 / 3 on [0, 1], a kink at a random c in half
    of the trials (s = 0 in the others). Its mean of log v is exact, so the
    runner carries it as a sixth value."""
    rng = np.random.default_rng(dim)
    c = rng.uniform(0.05, 0.95, TRIALS)
    s = rng.uniform(0.5, 2.0, TRIALS) * (np.arange(TRIALS) % 2)
    exact = s * (c * c + (1.0 - c) ** 2) / 2.0 + 1.0 / 9.0

    def log_v(rows, xs):
        return s[rows, None] * np.abs(xs - c[rows, None]) + xs * xs / 3.0

    def run(rows, n):
        t = np.array(HH_NODES)
        anchors = np.exp(s[rows, None] * np.abs(t - c[rows, None]) + t * t / 3.0).tolist()
        lo, hi = np.zeros(rows.size), np.ones(rows.size)
        terms, reliable = _hh_stack(anchors, lambda r, xs: log_v(rows[r], xs), lo, hi, n, 1)
        return [(np.array([*v, e]), ok) for v, e, ok in zip(terms, exact[rows], reliable)]

    return run


def _norm_gg_general(dim):
    stream = RandomStream(100 + dim)
    a, b = _spd_stack(stream, dim), _spd_stack(stream, dim)

    def run(rows, n):
        reports = norm_gg_general(
            "op_norm_gg", FunctionSpec.exp(), _pair(a[rows], b[rows]), OPNORM, n, 1e-8, 1e-12
        )
        return [(np.array(r.term_values), r.quad_reliable) for r in reports]

    return run


def _uin_full(dim):
    stream = RandomStream(200 + dim)
    a, b, x = (_spd_stack(stream, dim) for _ in range(3))

    def run(rows, n):
        tp = _TwoSidedPowers.of_stacks(_pair(a[rows], b[rows]), x[rows])
        reports = _uin_stack(UinVariant.FULL, tp, OPNORM, 0.3, n, 1e-8, 1e-12)
        return [(np.array(r.term_values), r.quad_reliable) for r in reports]

    return run


KERNELS = {"hh_stack": _synthetic, "norm_gg_general": _norm_gg_general, "uin_full": _uin_full}
EVERY = np.arange(TRIALS)


def _kinks(run, monkeypatch):
    """The trials whose one piece fails the check, and those whose passes."""
    with monkeypatch.context() as m:
        m.setattr(quadrature, "BISECT_DEPTH", 0)
        flags = [ok for _, ok in run(EVERY, DEFAULT_QUAD_N)]
    return [t for t in range(TRIALS) if not flags[t]], [t for t in range(TRIALS) if flags[t]]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_kink_trial_has_its_bits_alone_in_any_block(kernel, dim, monkeypatch):
    run = KERNELS[kernel](dim)
    kinks, smooth = _kinks(run, monkeypatch)
    assert kinks and smooth
    whole = run(EVERY, DEFAULT_QUAD_N)
    for t in kinks:
        others = [k for k in kinks if k != t][:3]
        for rows in ([t], [t, *smooth[:3]], [*smooth[:3], t], [*others, t, *smooth[-2:]]):
            values, ok = run(np.array(rows), DEFAULT_QUAD_N)[rows.index(t)]
            assert values.tobytes() == whole[t][0].tobytes(), (t, rows)
            assert ok == whole[t][1]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kernel", ["norm_gg_general", "uin_full"])
def test_bisected_kink_integrals_match_the_256_node_rule(kernel, dim, monkeypatch):
    run = KERNELS[kernel](dim)
    kinks, _ = _kinks(run, monkeypatch)
    rows = np.array(kinks)
    got, want = run(rows, DEFAULT_QUAD_N), run(rows, 256)
    for t, (values, ok), (ref, ref_ok) in zip(kinks, got, want):
        assert ok and ref_ok, t
        # the integral term: exp of the mean of log v
        assert math.isclose(values[2], ref[2], rel_tol=1e-10, abs_tol=0.0), t


@pytest.mark.parametrize("dim", [2, 3])
def test_bisected_synthetic_kinks_are_within_the_check_tolerance(dim, monkeypatch):
    # a kink of slope jump 1 to 4: the leaf that holds it is accepted once
    # its Gauss and Kronrod values agree within DOUBLING_TOL, but at a kink
    # the Kronrod value is not much better than the Gauss one, so the mean
    # can be off by more than that: by up to 1.8 DOUBLING_TOL in these trials
    run = _synthetic(dim)
    kinks, _ = _kinks(run, monkeypatch)
    errors = []
    for t, (values, ok) in zip(kinks, run(np.array(kinks), DEFAULT_QUAD_N)):
        assert ok, t
        errors.append(abs(math.log(values[2]) - values[5]))
    assert max(errors) <= 2.0 * quadrature.DOUBLING_TOL
