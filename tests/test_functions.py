"""Function library: evaluation, parsing, and the convexity grid scans."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhverify import (
    ConfigError,
    DomainViolationError,
    FunctionSpec,
    ag_gg_transport_check,
    is_ag_convex,
    is_gg_convex,
    parse_function,
    scalar_mean_chain,
)
from hhverify import campaign, chains, functions
from hhverify.campaign import DROP_COMMUTATIVITY, CampaignConfig, resolve_params
from hhverify.errors import DegenerateIntervalError, NonPositiveInputError
from hhverify.norms import parse_norm
from hhverify.sampler import derive_trial_seed
from hhverify.functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    MEAN_CHAIN_NAMES,
    STACK_ENTRIES,
    ConvexityVerdict,
    _certified,
    _fine_grids,
    _scan_fine_grid,
    _scan_midpoint_only,
    convexity_holds,
    convexity_verdicts,
    scan_block,
)


def test_eval_fixtures():
    assert FunctionSpec.exp(1.0)(0.0) == 1.0
    assert abs(FunctionSpec.exp(2.0)(1.0) - math.e**2) < 1e-14
    assert FunctionSpec.power(2.0)(3.0) == 9.0
    assert FunctionSpec.power(0.5)(4.0) == 2.0
    assert FunctionSpec.power(2.0)(-2.0) == 4.0  # integer exponent extends to negatives
    assert FunctionSpec.poly([1.0, 0.0, 1.0])(2.0) == 5.0
    assert FunctionSpec.inverse()(4.0) == 0.25
    assert FunctionSpec.identity()(1.5) == 1.5


def test_eval_array_matches_scalar_eval():
    xs = np.linspace(0.2, 5.0, 17)
    for f in (
        FunctionSpec.exp(0.7),
        FunctionSpec.power(1.3),
        FunctionSpec.poly([2.0, 1.0, 0.5]),
        FunctionSpec.inverse(),
    ):
        np.testing.assert_allclose(f.eval_array(xs), [f(float(x)) for x in xs], rtol=1e-15)


def test_definedness_masks():
    assert not FunctionSpec.power(0.5).defined_at(np.array([-1.0]))[0]
    assert not FunctionSpec.inverse().defined_at(np.array([0.0]))[0]
    assert FunctionSpec.exp().defined_at(np.array([-100.0]))[0]
    with pytest.raises(DomainViolationError):
        FunctionSpec.inverse().eval_array(np.array([1.0, 0.0]))


def test_domain_containment():
    f = FunctionSpec.poly([1.0, 1.0])  # constant term > 0: domain closed at 0
    assert f.contains_interval(0.0, 5.0)
    assert not FunctionSpec.power(2.0).contains_interval(0.0, 5.0)
    assert FunctionSpec.power(2.0).contains_interval(0.5, 5.0)


def test_constructor_validation():
    with pytest.raises(DomainViolationError):
        FunctionSpec.exp(0.0)
    with pytest.raises(DomainViolationError):
        FunctionSpec.poly([1.0, -2.0])
    with pytest.raises(DomainViolationError):
        FunctionSpec.poly([0.0, 0.0])


def test_parse_function_round_trip():
    texts = ("exp:1", "exp:2.5", "power:2", "power:-1.5", "poly:1,0,3", "inverse", "identity")
    # a parameter that 6 significant digits cannot hold is described in 17
    for text in texts + ("power:1.23456789", "poly:0.1234567891,2"):
        f = parse_function(text)
        assert parse_function(f.describe()).params == f.params
    assert parse_function("exp").params == (1.0,)


# one strategy per constructor of the grammar; the guard below fails for a
# constructor that has none
_KIND_SPECS = {
    "exp": st.floats(1e-3, 1e3).map(FunctionSpec.exp),
    "power": st.floats(-8.0, 8.0).map(FunctionSpec.power),
    "poly": st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6)
    .filter(any)
    .map(FunctionSpec.poly),
    "inverse": st.just(FunctionSpec.inverse()),
    "identity": st.just(FunctionSpec.identity()),
}


def test_every_kind_of_the_grammar_has_a_monotonicity_guard():
    constructors = {k for k, v in vars(FunctionSpec).items() if isinstance(v, classmethod)}
    assert constructors == set(_KIND_SPECS)


@given(st.one_of(*_KIND_SPECS.values()))
def test_every_kind_is_monotone_on_the_positive_axis(f):
    """chains._norm_kinks cuts a norm curve only where the branches the norm
    reads change, which holds when f keeps or reverses the order of the
    positive eigenvalues: every f must be monotone on (0, inf)."""
    xs = np.logspace(-12.0, 12.0, 4001)
    with np.errstate(over="ignore"):
        vals = f.eval_array(xs)
    left, right = vals[:-1], vals[1:]
    assert (left <= right).all() or (left >= right).all(), f.describe()


@pytest.mark.parametrize("bad", ["", "exp:x", "power:", "poly:", "poly:1,-1", "banana", "inverse:2"])
def test_parse_function_rejects(bad):
    with pytest.raises(ConfigError):
        parse_function(bad)


# -- convexity scans ------------------------------------------------------


def _naive_ag_scan(f, a, b, n=21):
    """Dense double loop oracle: check f(l x + (1-l) y) <= f(x)^l f(y)^(1-l)."""
    xs = np.linspace(a, b, n)
    worst = math.inf
    for x in xs:
        for y in xs:
            for lam in (0.25, 0.5, 0.75):
                lhs = math.log(f(lam * x + (1 - lam) * y))
                rhs = lam * math.log(f(float(x))) + (1 - lam) * math.log(f(float(y)))
                worst = min(worst, rhs - lhs)
    return worst >= -1e-10


def test_exp_is_ag_convex_with_zero_slack():
    v = is_ag_convex(FunctionSpec.exp(1.0), -1.0, 3.0)
    assert v.holds
    assert abs(v.slack) < 1e-12  # log f is affine: every triple is tight


def test_power_is_not_ag_convex():
    v = is_ag_convex(FunctionSpec.power(2.0), 1.0, 2.0)
    assert not v.holds
    x, y, lam = v.worst_triple
    # the returned witness must actually violate log-convexity
    f = FunctionSpec.power(2.0)
    lhs = math.log(f(lam * x + (1 - lam) * y))
    rhs = lam * math.log(f(x)) + (1 - lam) * math.log(f(y))
    assert lhs > rhs + 1e-12


def test_affine_poly_fails_ag_near_zero():
    # 1 + x at 0: f(0) = 1 > sqrt(f(-1/2) f(1/2)) = sqrt(3)/2
    f = FunctionSpec.poly([1.0, 1.0], domain=(-0.9, 10.0))
    v = is_ag_convex(f, -0.5, 0.5)
    assert not v.holds
    assert v.slack < -0.1


def test_inverse_is_ag_convex():
    assert is_ag_convex(FunctionSpec.inverse(), 0.5, 4.0).holds


@pytest.mark.parametrize(
    "f,a,b",
    [
        (FunctionSpec.exp(1.0), 0.1, 2.0),
        (FunctionSpec.exp(0.3), 0.5, 8.0),
        (FunctionSpec.inverse(), 0.2, 5.0),
        (FunctionSpec.power(2.0), 0.5, 3.0),
        (FunctionSpec.poly([1.0, 2.0, 1.0]), 0.1, 4.0),
    ],
)
def test_ag_scan_agrees_with_naive_oracle(f, a, b):
    assert is_ag_convex(f, a, b).holds == _naive_ag_scan(f, a, b)


def test_power_is_gg_convex_exactly():
    # powers are multiplicative: the GG inequality is an identity
    for r in (-1.5, 0.5, 2.0, 3.0):
        v = is_gg_convex(FunctionSpec.power(r), 1.0, 4.0)
        assert v.holds
        assert abs(v.slack) < 1e-11


def test_poly_and_exp_are_gg_convex():
    assert is_gg_convex(FunctionSpec.poly([0.1, 0.0, 5.0]), 0.1, 5.0).holds
    assert is_gg_convex(FunctionSpec.exp(1.0), 0.5, 2.0).holds


def test_gg_rejects_nonpositive_interval():
    with pytest.raises(NonPositiveInputError):
        is_gg_convex(FunctionSpec.exp(1.0), -1.0, 2.0)


def test_degenerate_interval_rejected():
    with pytest.raises(DegenerateIntervalError):
        is_ag_convex(FunctionSpec.exp(1.0), 1.0, 1.0)


def test_grid_n_validation():
    with pytest.raises(DomainViolationError):
        is_ag_convex(FunctionSpec.exp(1.0), 0.0, 1.0, grid_n=2)


def test_grid_n_accepts_any_integral_type():
    f = FunctionSpec.exp(1.0)
    want = is_ag_convex(f, 0.0, 1.0, grid_n=33)
    for g in (np.int64(33), np.int32(33), np.uint16(33)):
        got = is_ag_convex(f, 0.0, 1.0, grid_n=g)
        assert got == want
        assert all(type(v) is float for v in got.worst_triple)
    assert is_gg_convex(f, 1.0, 2.0, grid_n=np.int64(5)) == is_gg_convex(f, 1.0, 2.0, grid_n=5)
    for bad in (True, np.True_, 33.0, np.float64(33.0), "33", None, np.int64(2), np.int64(513)):
        with pytest.raises(DomainViolationError):
            is_ag_convex(f, 0.0, 1.0, grid_n=bad)


def _loop_scan(fine_logs, witness_points, g, tol):
    """The scan as one pass per lambda = k/g over all (i, j): the reference
    the blocked kernel must match bit for bit."""
    coarse = fine_logs[::g]
    idx = np.arange(g + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    best = math.inf
    best_ijk = (0, 0, 0)
    for k in range(g + 1):
        comb = fine_logs[k * ii + (g - k) * jj]
        bound = (k * coarse[ii] + (g - k) * coarse[jj]) / g
        slack = bound - comb
        pos = int(np.argmin(slack))
        if slack.flat[pos] < best:
            best = float(slack.flat[pos])
            best_ijk = (pos // (g + 1), pos % (g + 1), k)
    i, j, k = best_ijk
    worst = (float(witness_points[i * g]), float(witness_points[j * g]), k / g)
    return ConvexityVerdict(holds=best >= -tol, worst_triple=worst, slack=best)


@pytest.mark.parametrize("g", [3, 4, 5, 17, 33, 34, 100])
def test_scan_kernel_matches_per_lambda_loop(g):
    # g = 100 spans several blocks; linear and rounded logs tie often, zeros
    # tie everywhere, so the first-minimum rule is exercised as well
    m = g * g
    x = 0.5 + 2.5 * np.arange(m + 1) / m
    rng = np.random.default_rng(g)
    cases = {
        "linear": 0.7 * x - 0.2,
        "zeros": np.zeros(m + 1),
        "random": rng.standard_normal(m + 1),
        "rounded": np.round(rng.standard_normal(m + 1), 1),
        "log_power": np.log(x**2.5),
        "log_power_neg": np.log(x**-1.5),
        "exp": np.exp(x),
    }
    for name, logs in cases.items():
        want = _loop_scan(logs, x, g, 1e-10)
        got = _scan_fine_grid(logs, x, g, 1e-10)
        assert got.worst_triple == want.worst_triple, name
        assert got.holds == want.holds, name
        # same bits, sign of zero included
        assert np.float64(got.slack).tobytes() == np.float64(want.slack).tobytes(), name


def test_midpoint_only_matches_full_scan_on_smooth_cases():
    for f, a, b in [
        (FunctionSpec.exp(1.0), 0.0, 2.0),
        (FunctionSpec.power(2.0), 1.0, 2.0),
        (FunctionSpec.inverse(), 0.5, 4.0),
    ]:
        full = is_ag_convex(f, a, b)
        xs = a + (b - a) * np.arange(DEFAULT_GRID_N + 1) / DEFAULT_GRID_N
        mids = 0.5 * (xs[:, None] + xs[None, :])
        mid = _scan_midpoint_only(np.log(f.eval_array(xs)), np.log(f.eval_array(mids)), xs, 1e-10)
        assert full.holds == mid.holds


def test_transport_on_random_subintervals():
    rng = np.random.default_rng(6)
    funcs = [
        FunctionSpec.exp(1.0),
        FunctionSpec.inverse(),
        FunctionSpec.power(2.0),
        FunctionSpec.poly([1.0, 1.0, 1.0]),
    ]
    for _ in range(50):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
        f = funcs[int(rng.integers(len(funcs)))]
        if not f.contains_interval(lo, hi):
            continue
        assert ag_gg_transport_check(f, lo, hi)


# -- scalar means ----------------------------------------------------------


def test_mean_chain_names():
    assert MEAN_CHAIN_NAMES == ("min", "geometric", "logarithmic", "arithmetic", "max")


def test_mean_chain_fixture():
    # (1, e^2): G = e, L = (e^2 - 1)/2, A = (1 + e^2)/2
    m = scalar_mean_chain(1.0, math.e**2)
    assert m[0] == 1.0
    assert abs(m[1] - math.e) < 1e-14
    assert abs(m[2] - (math.e**2 - 1.0) / 2.0) < 1e-13
    assert abs(m[3] - (1.0 + math.e**2) / 2.0) < 1e-14
    assert m[4] == math.e**2


def test_mean_chain_is_sorted_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = np.exp(rng.uniform(-3, 3, 2))
        m = scalar_mean_chain(float(a), float(b))
        assert all(m[i] <= m[i + 1] + 1e-12 * m[i + 1] for i in range(4))
        assert scalar_mean_chain(float(b), float(a)) == m


def test_mean_chain_degenerate_and_invalid():
    assert scalar_mean_chain(2.0, 2.0) == (2.0,) * 5
    with pytest.raises(NonPositiveInputError):
        scalar_mean_chain(-1.0, 2.0)


def _one_interval_verdict(f, a, b, gg, g):
    """The fine grid and scan of one interval, as is_ag_convex and
    is_gg_convex built them one interval at a time."""
    m = g * g
    if gg:
        la, lb = math.log(a), math.log(b)
        fine = np.exp(la + (lb - la) * np.arange(m + 1) / m)
    else:
        fine = a + (b - a) * np.arange(m + 1) / m
    return _scan_fine_grid(np.log(f.eval_array(fine)), fine, g, DEFAULT_CONVEXITY_TOL)


def _verdict_bits(v):
    return (v.holds, np.float64(v.slack).tobytes(), tuple(np.float64(x).tobytes() for x in v.worst_triple))


@pytest.mark.parametrize("gg", [False, True])
@pytest.mark.parametrize("g", [3, 17, 33, 64])
def test_stacked_grids_match_one_interval_at_a_time(gg, g):
    rng = np.random.default_rng(g + 100 * gg)
    # enough intervals for several blocks of STACK_ENTRIES entries
    count = 3 * STACK_ENTRIES // (g * g + 1) + 2
    lo = np.exp(rng.uniform(-3.0, 2.0, count))
    hi = lo * np.exp(rng.uniform(1e-6, 3.0, count))
    for f in (FunctionSpec.power(-1.5), FunctionSpec.power(2.5), FunctionSpec.exp(0.7),
              FunctionSpec.poly([0.5, 0.0, 2.0])):
        got = convexity_verdicts(f, lo, hi, gg, g, DEFAULT_CONVEXITY_TOL)
        assert len(got) == count
        for t in range(count):
            want = _one_interval_verdict(f, float(lo[t]), float(hi[t]), gg, g)
            assert _verdict_bits(got[t]) == _verdict_bits(want), (f, t)
        one = (is_gg_convex if gg else is_ag_convex)(f, float(lo[5]), float(hi[5]), g)
        assert _verdict_bits(one) == _verdict_bits(got[5])


def _outcome(call):
    """call()'s value, or the type and text of what it raised."""
    try:
        with np.errstate(over="ignore"):
            return call()
    except DomainViolationError as e:
        return type(e), str(e)


_FUNCTIONS = st.one_of(
    st.floats(0.01, 100.0).map(FunctionSpec.exp),
    st.floats(-3.0, 3.0).map(FunctionSpec.power),
    st.just(FunctionSpec.inverse()),
    st.just(FunctionSpec.identity()),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4)
    .filter(any)
    .map(FunctionSpec.poly),
)
# (lo, relative width (hi - lo) / lo)
_INTERVALS = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-9, 1e3)), min_size=1, max_size=7
)


@given(_FUNCTIONS, st.booleans(), _INTERVALS, st.sampled_from([3, 4, 5, 33, 64]))
def test_certified_holds_match_the_scan(f, gg, intervals, g):
    lo = np.array([x for x, _ in intervals])
    hi = np.array([x + x * w for x, w in intervals])
    got = _outcome(lambda: convexity_holds(f, lo, hi, gg, g, DEFAULT_CONVEXITY_TOL))
    verdicts = _outcome(lambda: convexity_verdicts(f, lo, hi, gg, g, DEFAULT_CONVEXITY_TOL))
    assert got == (verdicts if isinstance(verdicts, tuple) else [v.holds for v in verdicts])


def _planted(row, g, tol):
    """(certified, scan verdict) of one planted row of log-values."""
    row = np.asarray(row, dtype=float)
    fine = np.linspace(1.0, 2.0, row.shape[0])
    return bool(_certified(row[None], g, tol)[0]), _scan_fine_grid(row, fine, g, tol)


def test_certificate_refuses_a_concave_bump():
    g = DEFAULT_GRID_N
    m = np.arange(g * g + 1, dtype=float)
    affine = 0.3 - 2.5 * m / m[-1]
    tent = np.maximum(0.0, 1.0 - np.abs(m - 500.0) / 40.0)  # concave on its support
    for depth in (0.6, 1.5):
        bump = depth * DEFAULT_CONVEXITY_TOL
        certified, verdict = _planted(affine + bump * tent, g, DEFAULT_CONVEXITY_TOL)
        assert not certified, depth
        assert verdict.slack == pytest.approx(-bump, rel=1e-3)
        assert verdict.holds == (depth < 1.0)


def _rounding_row(g):
    """A row near 1e7 on the float line of its own endpoint slope."""
    steps = np.arange(g * g + 1, dtype=float)
    row = 1e7 + 0.1 * steps
    slope = (row[-1] - row[0]) / steps[-1]
    return 1e7 + slope * steps


def test_certificate_refuses_an_affine_row_that_fails_on_rounding():
    # a row near 1e7 on the float line of its own endpoint slope: every
    # computed deviation from that line is 0, so only the rounding terms of
    # the bound keep it out, while the scan's rounding (ulp(1e7) > tol)
    # rejects it
    g = DEFAULT_GRID_N
    steps = np.arange(g * g + 1, dtype=float)
    row = _rounding_row(g)
    assert (row - (row[0] + ((row[-1] - row[0]) / steps[-1]) * steps) == 0.0).all()
    certified, verdict = _planted(row, g, DEFAULT_CONVEXITY_TOL)
    assert not verdict.holds
    assert not certified


@pytest.mark.parametrize("gg", [False, True])
@pytest.mark.parametrize("f", [FunctionSpec.exp(1.0), FunctionSpec.inverse()])
def test_certificate_settles_exp_and_inverse(f, gg):
    lo, hi = np.array([0.1, 0.5, 3.0]), np.array([0.2, 2.0, 30.0])
    (logs, _), = _fine_grids(f, lo, hi, gg, DEFAULT_GRID_N)
    assert _certified(logs, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL).all()


# -- the block kernel: rows settled from their trivial triples ---------------


def assert_block_is_the_scan(logs, points, g, tol=DEFAULT_CONVEXITY_TOL):
    """scan_block's verdict of each row of logs is _scan_fine_grid's: the same
    holds, the same worst triple and the same slack bits (sign of zero
    included). Returns the rows scan_block handed to the full scan."""
    scanned = []

    def counted(row, *args):
        scanned.append(row.copy())
        return _scan_fine_grid(row, *args)

    mp = pytest.MonkeyPatch()
    mp.setattr(functions, "_scan_fine_grid", counted)
    try:
        got = scan_block(logs, points, g, tol)
    finally:
        mp.undo()
    rows = np.broadcast_to(points, logs.shape)
    assert len(got) == logs.shape[0]
    for t, v in enumerate(got):
        want = _scan_fine_grid(logs[t], rows[t], g, tol)
        assert v.holds == want.holds, t
        assert v.worst_triple == want.worst_triple, t
        assert np.signbit(v.slack) == np.signbit(want.slack), t
        assert np.float64(v.slack).tobytes() == np.float64(want.slack).tobytes(), t
    return scanned


# (offset, slope, log10 |c|, rate, sign of c) of a + b x + c exp(r x): convex
# for c > 0, concave for c < 0, and near affine, down to rounding, for small |c|
_SHAPES = st.lists(
    st.tuples(
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-18.0, 2.0),
        st.floats(-3.0, 3.0), st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@given(st.sampled_from([3, 4, 5, 33, 64]), _SHAPES)
def test_scan_block_matches_the_scan_on_drawn_rows(g, shapes):
    m = g * g
    x = 0.5 + 2.5 * np.arange(m + 1) / m
    logs = np.array([a + b * x + (1.0 if up else -1.0) * 10.0**e * np.exp(r * x)
                     for a, b, e, r, up in shapes])
    # a grid of points for each row, as convexity_verdicts passes them
    points = x * np.arange(1.0, len(shapes) + 1.0)[:, None]
    assert_block_is_the_scan(logs, points, g)


def test_scan_block_on_planted_rows():
    g = DEFAULT_GRID_N
    m = np.arange(g * g + 1, dtype=float)
    # integers below 2**50, so every second difference is exactly 2; at
    # max|F| = 2**49 that is 32u max|F|, one more and it is just below
    at = 2.0**49 - m[-1] ** 2 + m**2
    affine = 0.3 - 2.5 * m / m[-1]
    tent = np.maximum(0.0, 1.0 - np.abs(m - 500.0) / 40.0)
    rows = {
        "at the threshold": (at, False),
        "just below": (at + 1.0, True),
        "affine": (affine, True),
        "rounding": (_rounding_row(g), True),
        "bump 0.6 tol": (affine + 0.6 * DEFAULT_CONVEXITY_TOL * tent, True),
        "bump 1.5 tol": (affine + 1.5 * DEFAULT_CONVEXITY_TOL * tent, True),
        "zeros": (np.zeros_like(m), True),
    }
    points = np.linspace(1.0, 2.0, m.shape[0])
    for name, (row, scans) in rows.items():
        scanned = assert_block_is_the_scan(row[None], points, g)
        assert len(scanned) == scans, name
    logs = np.array([row for row, _ in rows.values()])
    scanned = assert_block_is_the_scan(logs, points, g)
    want = [row for row, scans in rows.values() if scans]
    assert len(scanned) == len(want)
    assert all((a == b).all() for a, b in zip(scanned, want))


@pytest.mark.parametrize("norm", ["opnorm", "tracenorm", "kyfan:2", "schatten:3"])
def test_scan_block_matches_the_scan_on_witness_rows(norm, monkeypatch):
    blocks = []
    real_block = chains.scan_block

    def recorded(logs, points, g, tol):
        blocks.append((logs.copy(), points, g, tol))
        return real_block(logs, points, g, tol)

    monkeypatch.setattr(chains, "scan_block", recorded)
    runs = [(tid, fn, frozenset()) for fn in ("exp:1", "power:2", "inverse", "poly:1,2,0.5")
            for tid in ("phi_operator", "phi_sandwich", "phi_diagonal")]
    runs.append(("phi_operator", "exp:1", frozenset({DROP_COMMUTATIVITY})))
    for tid, fn, ablation in runs:
        cfg = CampaignConfig(norm=parse_norm(norm), function=parse_function(fn), ablation=ablation)
        params = resolve_params(tid, cfg)
        for dim in (1, 2, 3, 5, 8):
            seeds = [derive_trial_seed(22, dim, t) for t in range(6)]
            for block in campaign._blocks(seeds, dim):
                campaign._block_outcomes(tid, block, params)
    monkeypatch.undo()
    rows = sum(logs.shape[0] for logs, *_ in blocks)
    assert rows == len(runs) * 5 * 6
    scanned = sum(len(assert_block_is_the_scan(*block)) for block in blocks)
    # the log-affine dim-1 rows go through the full scan, most others do not
    assert 0 < scanned < rows / 2
