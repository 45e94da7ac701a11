"""Commuting-pair operator chains: GG-HH order chain, AG midpoint chain,
norm chains of phi(u) = ||f(A^u B^(1-u))||, and the trace chains."""

import math

import numpy as np
import pytest

from hhverify import (
    CommutingPair,
    FunctionSpec,
    LoewnerOrdering,
    NormSpec,
    TraceVariant,
    operator_ag_midpoint_order_chain,
    operator_gg_hh_order_chain,
    operator_norm_gg_chain,
    trace_chain,
)
from hhverify import chains
from hhverify.chains import (
    AG_MIDPOINT_TERM_NAMES,
    GG_HH_TERM_NAMES,
    HH_TERM_NAMES,
    TRACE_SQRT_TERM_NAMES,
    TRACE_SQUARED_TERM_NAMES,
    Comparison,
    _norm_kinks,
)
from hhverify.functions import parse_function
from hhverify.linalg import loewner_compare
from hhverify.norms import parse_norm
from hhverify.sampler import RandomStream, random_commuting_pair, random_orthogonal


def _diag_pair(a, b) -> CommutingPair:
    a = np.asarray(a, dtype=float)
    return CommutingPair(np.eye(a.size), a, np.asarray(b, dtype=float))


CROSSED = _diag_pair([1.0, 2.0], [2.0, 1.0])  # eigencurves cross at u = 1/2


def _random_pairs(seed, dims=(2, 3, 5), count=20):
    stream = RandomStream(seed)
    for dim in dims:
        for _ in range(count):
            yield CommutingPair(*random_commuting_pair(stream, dim, 0.1, 10.0))


# ---------------------------------------------------------------------------
# GG-HH order chain


def test_gg_hh_exp_fixture():
    # spectra (1,2) and (2,1): sqrt(AB) = sqrt(2) I and both integrals are
    # int 2^s ds = 1/log 2, so the two gaps are closed form
    rep = operator_gg_hh_order_chain(FunctionSpec.exp(), CROSSED)
    assert rep.theorem_id == "op_gg_hh"
    assert tuple(c.lhs_name for c in rep.comparisons) == GG_HH_TERM_NAMES[:-1]
    assert rep.passed and rep.quad_reliable and rep.hypothesis_ok
    assert abs(rep.comparisons[0].min_gap - (1.0 / math.log(2.0) - math.sqrt(2.0))) < 1e-10
    assert abs(rep.comparisons[1].min_gap - (1.5 - 1.0 / math.log(2.0))) < 1e-10


def test_gg_hh_random_pairs_hold():
    for pair in _random_pairs(1001):
        for f in (FunctionSpec.exp(0.8), FunctionSpec.poly([1.0, 1.0, 3.0])):
            rep = operator_gg_hh_order_chain(f, pair)
            assert rep.passed and rep.hypothesis_ok, (f.describe(), rep.comparisons)


def test_gg_hh_power_function_is_exact():
    # t^r is multiplicative, so all three terms coincide entrywise
    rep = operator_gg_hh_order_chain(FunctionSpec.power(1.7), CROSSED)
    assert rep.passed
    for c in rep.comparisons:
        assert abs(c.min_gap) < 1e-10


# ---------------------------------------------------------------------------
# AG midpoint order chain


def test_ag_midpoint_exp_collapses():
    # for f = exp the geometric mean of the two segment values is constant
    rep = operator_ag_midpoint_order_chain(FunctionSpec.exp(), CROSSED)
    assert rep.theorem_id == "op_ag_midpoint"
    assert tuple(c.lhs_name for c in rep.comparisons) == AG_MIDPOINT_TERM_NAMES[:-1]
    assert rep.passed
    for c in rep.comparisons:
        assert abs(c.min_gap) < 1e-10


def test_ag_midpoint_inverse_strict():
    pair = _diag_pair([1.0, 4.0], [2.0, 0.5])
    rep = operator_ag_midpoint_order_chain(FunctionSpec.inverse(), pair)
    assert rep.passed and rep.hypothesis_ok
    assert all(c.min_gap > 1e-4 for c in rep.comparisons)


def test_ag_midpoint_random_pairs_hold():
    for pair in _random_pairs(2002):
        rep = operator_ag_midpoint_order_chain(FunctionSpec.inverse(), pair)
        assert rep.passed and rep.hypothesis_ok, rep.comparisons


def test_ag_midpoint_flags_non_ag_convex_function():
    # x^2 is log-concave, so the hypothesis fails and the order reverses
    pair = _diag_pair([1.0], [2.0])
    rep = operator_ag_midpoint_order_chain(FunctionSpec.power(2.0), pair)
    assert not rep.hypothesis_ok
    assert not rep.passed
    silent = operator_ag_midpoint_order_chain(
        FunctionSpec.power(2.0), pair, check_hypothesis=False
    )
    assert silent.hypothesis_ok and not silent.passed


# ---------------------------------------------------------------------------
# norm chain of phi(u) = ||f(A^u B^(1-u))||


def test_norm_gg_exp_opnorm_fixture():
    # log phi(u) = max(2^(1-u), 2^u); all five log-terms are closed form
    rep = operator_norm_gg_chain(FunctionSpec.exp(), CROSSED, NormSpec.opnorm())
    assert rep.theorem_id == "op_norm_gg"
    assert rep.term_names == HH_TERM_NAMES
    assert rep.passed and rep.quad_reliable and rep.hypothesis_ok
    expected_logs = (
        math.sqrt(2.0),
        2.0 ** 0.75,
        2.0 * (2.0 - math.sqrt(2.0)) / math.log(2.0),
        math.sqrt(2.0) / 2.0 + 1.0,
        2.0,
    )
    for got, want in zip(rep.term_values, expected_logs):
        assert abs(math.log(got) - want) < 1e-10, (math.log(got), want)


def _kinks(f, spec, av, bv):
    """_norm_kinks of one pair of spectra, without its NaN padding."""
    row = _norm_kinks(f, spec, np.asarray(av, float)[None], np.asarray(bv, float)[None])[0]
    return row[~np.isnan(row)]


def test_norm_gg_crossing_detection():
    cuts = _kinks(FunctionSpec.exp(), NormSpec.opnorm(), [1.0, 2.0], [2.0, 1.0])
    np.testing.assert_allclose(cuts, [0.5], atol=1e-15)
    # parallel log-curves never cross
    assert _kinks(FunctionSpec.exp(), NormSpec.opnorm(), [1.0, 2.0], [2.0, 4.0]).size == 0


def _loop_crossings(av, bv):
    """Every interior crossing of two eigenvalue curves, once: the pairwise
    loop the candidates of _norm_kinks must match bit for bit."""
    la, lb = np.log(av), np.log(bv)
    slopes = la - lb
    cuts = []
    for i in range(la.size):
        for j in range(i + 1, la.size):
            ds = slopes[i] - slopes[j]
            if ds == 0.0:
                continue
            u = (lb[j] - lb[i]) / ds
            if 1e-12 < u < 1.0 - 1e-12:
                cuts.append(u)
    return np.unique(np.asarray(cuts, dtype=float))


def _active(f, spec, av, bv, us):
    """The sorted indices of the branches spec reads from f(a^u b^(1-u)) at
    each point of us: the largest |f| (the operator norm), or the top k
    (Ky Fan k), ties to the lower index."""
    vals = np.abs(f.eval_array(np.power(av, us[:, None]) * np.power(bv, 1.0 - us[:, None])))
    return np.sort(np.argsort(-vals, axis=1, kind="stable")[:, : spec.top_k], axis=1)


# three log-affine branches (logs base 2 of a^u b^(1-u)): 3u, 3 - 3u and
# 3u - 1. The first two cross at u = 1/2 on top; the last two cross at
# u = 2/3 below the top, on the lower envelope; the first and last are
# parallel and never cross
THREE = ([8.0, 1.0, 4.0], [1.0, 8.0, 0.5])


@pytest.mark.parametrize(
    "fn, norm, want",
    [
        ("exp:1", "opnorm", [0.5]),  # the crossing below the top is dropped
        ("inverse", "opnorm", [2.0 / 3.0]),  # 1/x reads the lower envelope
        ("exp:1", "kyfan:2", [2.0 / 3.0]),  # only ranks 2 and 3 swap there
        ("inverse", "kyfan:2", [0.5]),
        ("power:0", "opnorm", []),  # a constant f never kinks
        ("power:0", "kyfan:2", []),
        ("exp:1", "kyfan:3", []),  # every branch, always
    ],
)
def test_norm_kinks_keep_only_the_crossings_where_the_read_branches_change(fn, norm, want):
    f, spec = parse_function(fn), parse_norm(norm)
    got = _kinks(f, spec, *THREE)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert np.isin(got, _loop_crossings(*map(np.array, THREE))).all()
    assert _loop_crossings(*map(np.array, THREE)).size == 2


def test_norm_kinks_of_one_branch_and_of_parallel_branches_are_empty():
    for fn in (FunctionSpec.exp(), FunctionSpec.inverse()):
        for spec in (NormSpec.opnorm(), NormSpec.kyfan(1), NormSpec.kyfan(2)):
            assert _kinks(fn, spec, [3.0], [0.2]).size == 0
            assert _kinks(fn, spec, [1.0, 2.0, 4.0], [2.0, 4.0, 8.0]).size == 0
            assert _norm_kinks(fn, spec, np.full((4, 1), 2.0), np.ones((4, 1))).shape == (4, 0)


def test_crossings_match_the_pairwise_loop_bit_for_bit():
    stream = RandomStream(41)
    cases = [stream.uniform(2 * n).reshape(2, n) * 10.0 for n in range(1, 18) for _ in range(5)]
    # equal slopes (identical curves) with one crossing repeated four times
    cases.append(np.array([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]]))
    cases.append(np.array([[1.0, 2.0], [2.0, 4.0]]))  # parallel
    for av, bv in cases:
        loop = _loop_crossings(av, bv)
        for spec in (NormSpec.opnorm(), NormSpec.kyfan(2)):
            got = _kinks(FunctionSpec.identity(), spec, av, bv)
            assert got.dtype == loop.dtype and (np.diff(got) > 0.0).all()
            assert np.isin(got, loop).all()
    repeated = _kinks(FunctionSpec.identity(), NormSpec.opnorm(), *cases[-2])
    np.testing.assert_array_equal(repeated, [0.5])


def test_kept_cuts_leave_one_active_set_per_piece():
    """Random spectra at dims 1-13, as one block per dim: every kept cut is
    a crossing of the pairwise loop, bit for bit, the branches read change
    across it, and they are the same at 64 points inside each piece between
    kept cuts."""
    stream = RandomStream(26)
    fns = [FunctionSpec.exp(), FunctionSpec.inverse(), FunctionSpec.power(-2.0),
           FunctionSpec.power(0.0), FunctionSpec.poly([1.0, 2.0, 0.5])]
    specs = [NormSpec.opnorm(), NormSpec.kyfan(2), NormSpec.kyfan(3)]
    inner = (np.arange(64) + 0.5) / 64
    for dim in range(1, 14):
        a = np.exp(stream.uniform(8 * dim).reshape(8, dim) * 4.6 - 2.3)
        b = np.exp(stream.uniform(8 * dim).reshape(8, dim) * 4.6 - 2.3)
        for f in fns:
            for spec in specs:
                kinks = _norm_kinks(f, spec, a, b)
                for av, bv, row in zip(a, b, kinks):
                    cuts = row[~np.isnan(row)]
                    assert np.isin(cuts, _loop_crossings(av, bv)).all()
                    edges = np.concatenate(([0.0], cuts, [1.0]))
                    sets = [
                        _active(f, spec, av, bv, x + (y - x) * inner)
                        for x, y in zip(edges[:-1], edges[1:])
                    ]
                    for piece in sets:
                        assert (piece == piece[0]).all(), (dim, f.describe(), spec.describe())
                    for left, right in zip(sets[:-1], sets[1:]):
                        assert (left[-1] != right[0]).any()


def test_norm_gg_kinked_curve_stays_reliable():
    # the max-norm curve has a kink at the crossing; segmented quadrature
    # must still satisfy its own Gauss-Kronrod check
    for spec in (NormSpec.opnorm(), NormSpec.kyfan(1)):
        rep = operator_norm_gg_chain(FunctionSpec.exp(), CROSSED, spec)
        assert rep.quad_reliable and rep.passed


def test_norm_gg_across_norm_family():
    specs = (
        NormSpec.schatten(1.0),
        NormSpec.schatten(2.0),
        NormSpec.schatten(3.0),
        NormSpec.opnorm(),
        NormSpec.kyfan(1),
        NormSpec.kyfan(2),
    )
    for pair in _random_pairs(3003, dims=(2, 3, 5), count=10):
        for spec in specs:
            rep = operator_norm_gg_chain(FunctionSpec.exp(0.5), pair, spec)
            assert rep.passed and rep.quad_reliable, (spec.describe(), rep.margins)


def test_norm_gg_integral_matches_riemann_sum():
    pair = _diag_pair([1.0, 3.0, 0.4], [2.0, 0.7, 5.0])
    f = FunctionSpec.exp(0.6)
    spec = NormSpec.schatten(2.0)
    rep = operator_norm_gg_chain(f, pair, spec)
    us = (np.arange(100_000) + 0.5) / 100_000
    grid = np.power(pair.a[None, :], us[:, None]) * np.power(pair.b[None, :], (1.0 - us)[:, None])
    phis = np.sqrt(np.sum(f.eval_array(grid) ** 2, axis=1))
    oracle = math.exp(float(np.mean(np.log(phis))))
    assert abs(rep.term_values[2] - oracle) < 1e-6 * oracle


# ---------------------------------------------------------------------------
# trace chains


def test_trace_sqrt_identity_fixture():
    # A = B = I_2: tau is constant 2, only the first term drops to sqrt(2)
    rep = trace_chain(TraceVariant.SQRT, _diag_pair([1.0, 1.0], [1.0, 1.0]))
    assert rep.theorem_id == "trace_sqrt"
    assert rep.term_names == TRACE_SQRT_TERM_NAMES
    assert rep.passed
    expected = (math.sqrt(2.0), 2.0, 2.0, 2.0, 2.0, 2.0)
    for got, want in zip(rep.term_values, expected):
        assert abs(got - want) < 1e-12


def test_trace_squared_term_names_and_endpoints():
    pair = _diag_pair([1.0, 2.0], [3.0, 0.5])
    rep = trace_chain(TraceVariant.SQUARED, pair)
    assert rep.theorem_id == "trace_squared"
    assert rep.term_names == TRACE_SQUARED_TERM_NAMES
    assert rep.passed
    assert abs(rep.term_values[0] - float(np.sum(pair.a * pair.b))) < 1e-12
    assert abs(rep.term_values[-1] - float(np.sum(pair.a) * np.sum(pair.b))) < 1e-12


def test_trace_chains_random_pairs_hold():
    for pair in _random_pairs(4004):
        for variant in (TraceVariant.SQRT, TraceVariant.SQUARED):
            rep = trace_chain(variant, pair)
            assert rep.passed and rep.quad_reliable, (variant, rep.margins)


def test_trace_integral_matches_riemann_sum():
    pair = _diag_pair([1.0, 4.0, 0.3], [2.0, 0.6, 3.0])
    rep = trace_chain(TraceVariant.SQRT, pair)
    us = (np.arange(100_000) + 0.5) / 100_000
    taus = np.sum(
        np.power(pair.a[None, :], us[:, None]) * np.power(pair.b[None, :], (1.0 - us)[:, None]),
        axis=1,
    )
    oracle = math.exp(float(np.mean(np.log(taus))))
    assert abs(rep.term_values[3] - oracle) < 1e-6 * oracle


def test_trace_sqrt_first_term_uses_product_trace():
    pair = _diag_pair([2.0, 5.0], [0.7, 1.1])
    rep = trace_chain(TraceVariant.SQRT, pair)
    assert abs(rep.term_values[0] - math.sqrt(2.0 * 0.7 + 5.0 * 1.1)) < 1e-12
    assert abs(rep.term_values[1] - (math.sqrt(1.4) + math.sqrt(5.5))) < 1e-12


# ---------------------------------------------------------------------------
# hypothesis and domain handling shared by the commuting chains


def test_domain_violation_outside_function_domain():
    pair = _diag_pair([0.5, 2.0], [1.0, 3.0])
    f = FunctionSpec.poly([0.0, 1.0], domain=(1.0, math.inf))
    from hhverify import DomainViolationError

    with pytest.raises(DomainViolationError):
        operator_gg_hh_order_chain(f, pair)
    with pytest.raises(DomainViolationError):
        operator_ag_midpoint_order_chain(f, pair)
    with pytest.raises(DomainViolationError):
        operator_norm_gg_chain(f, pair, NormSpec.opnorm())


def _per_trial_order_report(names, rows, rtol):
    """The report the per-trial commuting chains built from their rows."""
    comps, passed = [], True
    for k in range(len(rows) - 1):
        lo_row, hi_row = np.asarray(rows[k]), np.asarray(rows[k + 1])
        gap = float(np.min(hi_row - lo_row))
        scale = max(1.0, float(np.max(np.abs(lo_row))), float(np.max(np.abs(hi_row))))
        comps.append(Comparison(names[k], names[k + 1], gap))
        passed = passed and gap >= -rtol * scale
    return comps, passed


def test_stacked_order_reports_match_the_per_trial_rule():
    rng = np.random.default_rng(7)
    names = ("t1", "t2", "t3")
    rows = [rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-3, 4, size=(40, 1)) for _ in range(3)]
    rows[1] = rows[0] + np.abs(rows[1]) * 1e-9  # some gaps near the tolerance
    # the scale of the first comparison comes from |lo| = 1000 > |hi| = 999:
    # a gap of -9.995e-6 passes at 1e-8 * 1000 and fails at 1e-8 * 999
    rows[0][0], rows[1][0] = [-1000.0, 0, 0, 0, 0], [-999.0, -9.995e-6, 0, 0, 0]
    rows[2][0] = rows[1][0] + 1.0
    # and in trial 1 from |hi| = 1000 > |lo| = 0
    rows[0][1], rows[1][1] = [0.0] * 5, [1000.0, -9.995e-6, 0, 0, 0]
    rows[2][1] = rows[1][1] + 1.0
    flags = [bool(t % 2) for t in range(40)]
    got = chains._order_reports("op_gg_hh", names, rows, 1e-8, flags, flags[::-1])
    for t, report in enumerate(got):
        comps, passed = _per_trial_order_report(names, [r[t] for r in rows], 1e-8)
        assert report.comparisons == tuple(comps) and report.passed == passed, t
        assert (report.quad_reliable, report.hypothesis_ok) == (flags[t], flags[::-1][t])
        one = chains._order_report_from_rows("op_gg_hh", names, [r[t] for r in rows], 1e-8)
        assert one.comparisons == report.comparisons and one.passed == report.passed
    assert got[0].passed and got[1].passed and not all(r.passed for r in got)

    # the matrix chains: the rows as spectra, turned by a random basis after
    # the first two trials, against loewner_compare on each link
    stream = RandomStream(11)
    bases = [np.eye(5)] * 2 + [random_orthogonal(stream, 5) for _ in range(38)]
    mats = np.array([[(q * r[t]) @ q.T for t, q in enumerate(bases)] for r in rows])
    got = chains._matrix_order_reports("dragomir", names, mats, 1e-8, flags, flags[::-1])
    for t, report in enumerate(got):
        verdicts = [loewner_compare(mats[k, t], mats[k + 1, t], tol=1e-8) for k in range(2)]
        assert [c.min_gap for c in report.comparisons] == [v.min_gap for v in verdicts], t
        le = (LoewnerOrdering.LESS_EQUAL, LoewnerOrdering.EQUAL)
        assert report.passed == all(v.ordering in le for v in verdicts), t
        assert (report.quad_reliable, report.hypothesis_ok) == (flags[t], flags[::-1][t])
        one = chains._order_report_from_matrices("dragomir", names, list(mats[:, t]), 1e-8)
        assert one.comparisons == report.comparisons and one.passed == report.passed
    assert got[0].passed and got[1].passed and not all(r.passed for r in got)
