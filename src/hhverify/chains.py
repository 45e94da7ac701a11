"""Chain verifiers: one callable per inequality chain.

Real-valued chains produce a ChainReport (ordered term values plus pairwise
margins); operator-valued chains produce an OrderChainReport (pairwise Loewner
comparisons). Hypothesis grid tests are advisory: when one fails the chain is
still evaluated and the report carries hypothesis_ok=False, so deliberate
ablation runs remain expressible. Failed Gauss-Kronrod checks of the
quadrature likewise mark the report unreliable instead of failing it.

One rule decides each kind of verdict, for a block of trials at once:
_order_verdicts every Loewner link, from the smallest eigenvalue of the
difference and the spectral radii of the two terms, _chain_reports every
real chain, and _inequality_reports every two-sided inequality. One cutter
(_curve_stack) splits curve points under functions.STACK_ENTRIES, and
quadrature.integrate_trials_checked alone cuts stacks of integrand rows.

No chain takes a norm itself: norms.norms_of_stack and norms_from_eig_rows
do, and a chain asks a NormSpec only is_frobenius, is_max_type and top_k. Each
curve ||f(A^t B^(1-t))|| has one evaluator: _commuting_norms for a commuting
pair, _product_norms for one that need not commute. |||A^s X B^t||| has
_TwoSidedPowers.norms for its integrand and witness, and
_TwoSidedPowers.direct for its materialized points (the uin_* anchors,
kittaneh). Every chain on a drawn pair A, B reads one checked spectral view
of it (_Pair).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    DimMismatchError,
    DomainViolationError,
    NonFiniteInputError,
    NonPositiveInputError,
    NotPositiveDefiniteError,
)
from .functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    MEAN_CHAIN_NAMES,
    STACK_ENTRIES,
    ConvexityVerdict,
    FunctionSpec,
    _blocks,
    _check_grid_n,
    _positive_logs,
    convexity_holds,
    scan_block,
)
from .linalg import (
    CommutingPair,
    _apply_stack,
    _eigh,
    _f_of_spectrum,
    _power_stack,
    _signed_columns,
    _spectrum_powers,
    _stacked,
    _sym,
    check_matrix,
    check_symmetric_stack,
)
from .norms import NormSpec, norms_from_eig_rows, norms_of_stack
from .quadrature import integrate_trials_checked

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-12
DEFAULT_QUAD_N = 32

# term names shared by every five-term Hermite-Hadamard style chain
HH_TERM_NAMES = (
    "midpoint",
    "quarter_pair_geomean",
    "integral_geomean",
    "midpoint_endpoint_mix",
    "endpoint_geomean",
)
# where the unit interval's curves are anchored: lo, q1, mid, q2, hi
HH_NODES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ChainReport:
    """Ordered real terms of one chain instance.

    margins[i] = term_values[i+1] - term_values[i]; the chain passes when
    every margin is >= -(rtol * max(1, max|T|) + atol).
    """

    theorem_id: str
    term_names: tuple[str, ...]
    term_values: tuple[float, ...]
    margins: tuple[float, ...]
    passed: bool
    quad_reliable: bool = True
    hypothesis_ok: bool = True

    @property
    def min_margin(self) -> float:
        return min(self.margins)


@dataclass(frozen=True)
class Comparison:
    lhs_name: str
    rhs_name: str
    min_gap: float


@dataclass(frozen=True)
class OrderChainReport:
    """Pairwise Loewner comparisons of one operator chain instance."""

    theorem_id: str
    comparisons: tuple[Comparison, ...]
    passed: bool
    quad_reliable: bool = True
    hypothesis_ok: bool = True

    @property
    def min_margin(self) -> float:
        return min(c.min_gap for c in self.comparisons)


@dataclass(frozen=True)
class InequalityReport:
    """A single two-sided inequality lhs <= rhs with margin = rhs - lhs."""

    theorem_id: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    quad_reliable: bool = True
    hypothesis_ok: bool = True

    @property
    def min_margin(self) -> float:
        return self.margin


def _chain_reports(
    theorem_id: str, names: tuple[str, ...], rows, rtol: float, atol: float, quad_reliable=None,
    hypothesis_ok=None,
) -> list[ChainReport]:
    """The ChainReport of each of T trials from its row of the (T, len(names))
    term values rows, with the T flags of quad_reliable and hypothesis_ok
    (None: all True). A trial passes when every margin is at least
    -(rtol * max(1, max|T|) + atol). Each step is the IEEE operation a trial
    alone takes, so a trial's report does not depend on its block; a
    non-finite term in any trial raises."""
    terms = np.array(rows, dtype=float)
    finite = np.isfinite(terms).all(axis=1)
    if not finite.all():
        bad = tuple(terms[np.argmin(finite)].tolist())
        raise DomainViolationError(f"{theorem_id}: non-finite chain term in {bad}")
    with np.errstate(all="ignore"):  # Python floats overflow without a warning
        margins = terms[:, 1:] - terms[:, :-1]
        tol = rtol * np.maximum(1.0, np.abs(terms).max(axis=1)) + atol
        passed = (margins >= -tol[:, None]).all(axis=1)
    every = [True] * len(terms)
    return [
        ChainReport(theorem_id, names, tuple(v), tuple(m), p, r, h)
        for v, m, p, r, h in zip(
            terms.tolist(), margins.tolist(), passed.tolist(),
            every if quad_reliable is None else quad_reliable,
            every if hypothesis_ok is None else hypothesis_ok,
        )
    ]


_chain_report = _chain_reports  # the name perfbench/tracer.py traces it under


def _inequality_reports(
    theorem_id: str, lhs, rhs, rtol: float, atol: float, hypothesis_ok: bool = True
) -> list[InequalityReport]:
    """The InequalityReport lhs[t] <= rhs[t] of each of T trials: it passes
    when rhs - lhs >= -(rtol * max(1, |lhs|, |rhs|) + atol), taken as a trial
    alone takes it. A NaN side fails, whatever the scale."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python, without a warning
        margin = rhs - lhs
        tol = rtol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))) + atol
        passed = margin >= -tol
    return [
        InequalityReport(theorem_id, x, y, m, p, hypothesis_ok=hypothesis_ok)
        for x, y, m, p in zip(lhs.tolist(), rhs.tolist(), margin.tolist(), passed.tolist())
    ]


def _hh_stack(anchors, log_curve, lo, hi, quad_n: int, node_entries: int, cuts=None, spans=None):
    """The five Hermite-Hadamard terms of the log-convex curve v of each of T
    trials on [lo[t], hi[t]], and whether its integral passed the
    Gauss-Kronrod check.

    ``anchors[t]`` are trial t's v at lo, q1, mid, q2 and hi (q1, q2 the
    quarter points). Its interval is cut at the interior points of row t of
    cuts, a (T, P) array ascending in each row with NaN for no cut, if
    given, and every piece is one row of integrate_trials_checked:
    ``log_curve(rows, xs)`` maps the (R, N) nodes xs of R pieces, of the
    trials rows, to their samples of log v, node_entries entries per node.
    A trial's pieces are summed left to right and the sum divided by
    spans[t] (default hi[t] - lo[t]). Returns, in HH_TERM_NAMES order,

        v(mid) <= sqrt(v(q1) v(q2)) <= exp(mean of log v)
               <= sqrt(v(mid)) v(lo)^(1/4) v(hi)^(1/4) <= sqrt(v(lo) v(hi)).
    """
    trials = lo.shape[0]
    if cuts is None:
        rows, starts, ends = np.arange(trials), lo, hi
    else:
        # row-major order: a trial's pieces start at lo and its cuts, and
        # end at its cuts and hi, left to right
        cut, one = ~np.isnan(cuts), np.ones((trials, 1), dtype=bool)
        rows = np.nonzero(np.concatenate((cut, one), axis=1))[0]
        starts = np.concatenate((lo[:, None], cuts), axis=1)[np.concatenate((one, cut), axis=1)]
        ends = np.concatenate((cuts, hi[:, None]), axis=1)[np.concatenate((cut, one), axis=1)]
    pieces, flags = integrate_trials_checked(
        lambda sl, xs: log_curve(rows[sl], xs), starts, ends, quad_n, node_entries
    )
    integrals, reliable = [0.0] * trials, [True] * trials
    for t, piece, ok in zip(rows.tolist(), pieces.tolist(), flags):
        integrals[t] += piece
        reliable[t] = reliable[t] and ok
    terms = []
    for (v_lo, v_q1, v_mid, v_q2, v_hi), integral, span in zip(
        anchors, integrals, (hi - lo).tolist() if spans is None else spans
    ):
        if span == 0.0:
            # log b - log a of the gg chain rounds to 0 on an interval one ulp wide
            raise DomainViolationError("the interval's span rounds to zero")
        terms.append((
            v_mid,
            math.sqrt(v_q1 * v_q2),
            math.exp(integral / span),
            math.sqrt(v_mid) * v_lo**0.25 * v_hi**0.25,
            math.sqrt(v_lo * v_hi),
        ))
    return terms, reliable


def _order_report_from_rows(
    theorem_id: str,
    names: tuple[str, ...],
    rows,
    rtol: float,
    quad_reliable: bool = True,
    hypothesis_ok: bool = True,
) -> OrderChainReport:
    """Loewner chain for terms sharing one eigenbasis: the eigenvalues of each
    difference are exactly the entrywise differences of the rows."""
    stacks = [np.asarray(r, dtype=float)[None] for r in rows]
    return _order_reports(theorem_id, names, stacks, rtol, [quad_reliable], [hypothesis_ok])[0]


def _order_reports(
    theorem_id: str, names: tuple[str, ...], rows, rtol: float, quad_reliable, hypothesis_ok
) -> list[OrderChainReport]:
    """_order_report_from_rows of each trial of the (T, n) stacks in rows,
    with the T flags of quad_reliable and hypothesis_ok. Minima, maxima and
    absolute values are exact, so taking them along rows leaves the bits."""
    terms = np.array(rows)  # (terms, T, n)
    return _order_verdicts(
        theorem_id, names, (terms[1:] - terms[:-1]).min(axis=2), np.abs(terms).max(axis=2),
        rtol, quad_reliable, hypothesis_ok,
    )


def _order_report_from_matrices(
    theorem_id: str,
    names: tuple[str, ...],
    mats,
    rtol: float,
    quad_reliable: bool = True,
    hypothesis_ok: bool = True,
) -> OrderChainReport:
    """Loewner chain of a sequence of symmetric matrices, each link decided
    as loewner_compare decides it."""
    stack = np.array(mats)[:, None]  # (terms, 1, n, n)
    return _matrix_order_reports(
        theorem_id, names, stack, rtol, [quad_reliable], [hypothesis_ok]
    )[0]


def _matrix_order_reports(
    theorem_id: str, names: tuple[str, ...], mats, rtol: float, quad_reliable, hypothesis_ok
) -> list[OrderChainReport]:
    """_order_report_from_matrices of each trial of a (terms, T, n, n) stack:
    the terms checked and symmetrized by one check_symmetric_stack, and the
    spectra of every difference and every term from one stacked eigvalsh."""
    k = mats.shape[0]
    terms = check_symmetric_stack(mats.reshape((-1,) + mats.shape[2:])).reshape(mats.shape)
    eig = _stacked(np.linalg.eigvalsh, np.concatenate((terms[1:] - terms[:-1], terms)))
    return _order_verdicts(
        theorem_id, names, eig[: k - 1, :, 0], np.abs(eig[k - 1 :]).max(axis=2),
        rtol, quad_reliable, hypothesis_ok,
    )


def _order_verdicts(
    theorem_id: str, names: tuple[str, ...], gaps, radii, rtol: float, quad_reliable,
    hypothesis_ok,
) -> list[OrderChainReport]:
    """The Loewner chain reports of T trials from the (links, T) smallest
    eigenvalue of each difference of consecutive terms and the (terms, T)
    spectral radius of each term. A link holds when its gap is at least
    -rtol * max(1, the radii of its two terms), as in loewner_compare."""
    passed = gaps >= -rtol * np.maximum(1.0, np.maximum(radii[:-1], radii[1:]))
    links = tuple(zip(names[:-1], names[1:]))
    return [
        OrderChainReport(
            theorem_id=theorem_id,
            comparisons=tuple(Comparison(lo, hi, gap) for (lo, hi), gap in zip(links, trial_gaps)),
            passed=all(trial_passed),
            quad_reliable=r,
            hypothesis_ok=h,
        )
        for trial_gaps, trial_passed, r, h in zip(
            gaps.T.tolist(), passed.T.tolist(), quad_reliable, hypothesis_ok
        )
    ]


# ---------------------------------------------------------------------------
# scalar chains


def scalar_hh_chain(
    kind: str,
    f: FunctionSpec,
    a: float,
    b: float,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    check_hypothesis: bool = True,
) -> ChainReport:
    """Five-term Hermite-Hadamard chain for an AG- or GG-convex function.

    kind="ag" works on the arithmetic grid of [a, b]:
        f(mid) <= sqrt(f(q1) f(q2)) <= exp(mean of log f)
               <= sqrt(f(mid)) f(a)^(1/4) f(b)^(1/4) <= sqrt(f(a) f(b))
    kind="gg" is the same structure on the geometric grid (quarter points
    a^(3/4)b^(1/4), a^(1/4)b^(3/4); integral of log f(t)/t normalized by
    log b - log a). The convexity grid test is advisory; its failure flags
    the report instead of aborting.
    """
    return _scalar_hh_stack(
        kind, f, np.array([a], dtype=float), np.array([b], dtype=float), quad_n, rtol, atol,
        check_hypothesis,
    )[0]


def _scalar_hh_stack(
    kind: str, f: FunctionSpec, a: np.ndarray, b: np.ndarray, quad_n: int, rtol: float,
    atol: float, check_hypothesis: bool,
) -> list[ChainReport]:
    """scalar_hh_chain on each interval [a[t], b[t]] of two (T,) arrays."""
    mode = kind.lower()
    if mode not in ("ag", "gg"):
        raise ConfigError(f"chain kind must be 'ag' or 'gg', got {kind!r}")
    for lo, hi in zip(a.tolist(), b.tolist()):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainViolationError(f"endpoints must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise DegenerateIntervalError(f"need a < b, got [{lo}, {hi}]")
        if mode == "gg" and lo <= 0.0:
            raise NonPositiveInputError(f"GG chain needs a > 0, got a={lo}")
        if not f.contains_interval(lo, hi):
            raise DomainViolationError(f"[{lo}, {hi}] outside the domain of {f.describe()}")
    gg = mode == "gg"
    holds = _advisory_convexity(f, a, b, gg, check_hypothesis)
    if gg:
        # math.log and math.exp, as np.log and np.exp can differ in the last bit
        la = [math.log(x) for x in a.tolist()]
        lb = [math.log(x) for x in b.tolist()]
        inner = np.array([
            (math.exp(0.25 * (3 * x + y)), math.exp(0.5 * (x + y)), math.exp(0.25 * (x + 3 * y)))
            for x, y in zip(la, lb)
        ]).reshape(-1, 3)
        q1, mid, q2 = inner.T
        spans = [y - x for x, y in zip(la, lb)]

        def log_f(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
            return _positive_logs(f, ts) / ts

    else:
        q1, mid, q2 = 0.25 * (3 * a + b), 0.5 * (a + b), 0.25 * (a + 3 * b)
        spans = None

        def log_f(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
            return _positive_logs(f, ts)

    anchors = f.eval_array(np.array((a, q1, mid, q2, b))).T.tolist()
    terms, reliable = _hh_stack(anchors, log_f, a, b, quad_n, 1, spans=spans)
    return _chain_reports(
        "scalar_gg" if gg else "scalar_ag", HH_TERM_NAMES, terms, rtol, atol, reliable, holds
    )


def scalar_mean_chain_report(
    a: float, b: float, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
) -> ChainReport:
    """min <= geometric <= logarithmic <= arithmetic <= max as a ChainReport."""
    return _means_stack(np.array([a], dtype=float), np.array([b], dtype=float), rtol, atol)[0]


# ---------------------------------------------------------------------------
# operator chains (non-commuting allowed)

DRAGOMIR_TERM_NAMES = (
    "f_midpoint",
    "central_integral",
    "quarter_average",
    "full_integral",
    "midpoint_endpoint_average",
    "endpoint_average",
)


def _operator_convex(f: FunctionSpec) -> bool:
    """Whether f is one whose operator convexity is certified here."""
    return (f.kind == "power" and f.params == (2.0,)) or f.kind == "inverse"


def dragomir_operator_chain(
    f: FunctionSpec, a, b, *, rtol: float = DEFAULT_RTOL
) -> OrderChainReport:
    """Six-term operator chain for an operator convex f on a symmetric pair.

    f((A+B)/2)  <=  2 int_{1/4}^{3/4} f(tA+(1-t)B) dt
                <=  [f((3A+B)/4) + f((A+3B)/4)] / 2
                <=  int_0^1 f((1-t)A+tB) dt
                <=  [f((A+B)/2) + (f(A)+f(B))/2] / 2
                <=  (f(A)+f(B))/2

    Supported f: power:2 on any symmetric pair, inverse on a positive
    definite pair. The pair need not commute. Both segment integrals are
    exact (no quadrature), so the report is always quad_reliable; rtol is
    keyword-only, so a quad_n passed where it used to go is an error. It is
    _dragomir_stack on the _Pair of a stack of one.
    """
    if not _operator_convex(f):
        raise ConfigError(
            f"operator convexity is certified here only for power:2 and inverse, got {f.describe()}"
        )
    a, b = (np.asarray(m, dtype=float)[None] for m in (a, b))
    return _dragomir_stack(f, _pair(a, b), rtol)[0]


def _dragomir_stack(f: FunctionSpec, pair: _Pair, rtol: float) -> list[OrderChainReport]:
    """dragomir_operator_chain of each trial of a _Pair."""
    terms = _dragomir_terms(f, pair)
    trials = terms.shape[1]
    return _matrix_order_reports(
        "dragomir", DRAGOMIR_TERM_NAMES, terms, rtol, [True] * trials, [True] * trials
    )


def _dragomir_terms(f: FunctionSpec, pair: _Pair) -> np.ndarray:
    """The (6, T, n, n) stack of the DRAGOMIR_TERM_NAMES terms of each trial.

    f of A and B comes from the view's spectra, and f of the three mixes of
    every trial from one eigh. The segment integrals int_lo^hi f(tA +
    (1-t)B) dt over [1/4, 3/4] and [0, 1] are exact: (hi - lo) f(B) plus the
    excess of the path over f(B), which is 0 at A = B (_square_excess for
    power:2; _inverse_excess, from B's spectrum and one more eigh, for
    inverse).
    """
    ma, mb = pair.a.sym, pair.b.sym
    # (A+B)/2, (3A+B)/4, (A+3B)/4 of every trial
    mixes = np.stack((0.5 * (ma + mb), 0.25 * (3.0 * ma + mb), 0.25 * (ma + 3.0 * mb)))
    lm, qm = _eigh(mixes.reshape((-1,) + ma.shape[1:]))
    if f.kind == "inverse":
        for name, side in zip("ab", pair):
            if (side.lam[:, 0] <= 0.0).any():
                raise NotPositiveDefiniteError(f"inverse needs positive definite {name}")
        excess = _inverse_excess(ma, mb, pair.b.lam, _signed_columns(pair.b.q))
    else:
        excess = _square_excess(ma, mb)
    lam, q = (np.concatenate(x) for x in ((pair.a.lam, pair.b.lam, lm), (pair.a.q, pair.b.q, qm)))
    fa, fb, f_mid, f_q1, f_q2 = _apply_stack(q, _f_of_spectrum(f, lam)).reshape(5, *ma.shape)
    central, full = ((hi - lo) * fb + e for (lo, hi), e in zip(DRAGOMIR_SEGMENTS, excess))
    return np.stack((
        f_mid, 2.0 * central, 0.5 * (f_q1 + f_q2), full, 0.5 * f_mid + 0.25 * (fa + fb),
        0.5 * (fa + fb),
    ))


# dragomir's two segments [lo, hi] of the path t -> tA + (1-t)B
DRAGOMIR_SEGMENTS = ((0.25, 0.75), (0.0, 1.0))
# below this |x| the inverse segment weight takes its Taylor series, whose
# first omitted term is then below 1e-18 relative
INVERSE_SERIES_CUT = 1e-3
_INVERSE_SERIES_TERMS = 6


def _square_excess(ma: np.ndarray, mb: np.ndarray) -> list[np.ndarray]:
    """int_lo^hi (tA + (1-t)B)^2 dt - (hi - lo) B^2 of each pair of two
    (T, n, n) stacks, per dragomir segment. With D = A - B the path is
    B + tD, so this is m1 (BD + DB) + m2 D^2, m1 and m2 the integrals of t
    and t^2. Any symmetric pair will do."""
    d = ma - mb
    bd, dd = mb @ d, d @ d
    cross = bd + np.swapaxes(bd, 1, 2)  # DB = (BD)^T for symmetric B, D
    return [
        0.5 * (hi**2 - lo**2) * cross + (hi**3 - lo**3) / 3.0 * dd for lo, hi in DRAGOMIR_SEGMENTS
    ]


def _inverse_excess(
    ma: np.ndarray, mb: np.ndarray, lb: np.ndarray, qb: np.ndarray
) -> list[np.ndarray]:
    """int_lo^hi (tA + (1-t)B)^(-1) dt - (hi - lo) B^(-1) of each positive
    definite pair of two (T, n, n) stacks, per dragomir segment, from the
    spectra lb, qb of the B stack.

    With W = qb diag(lb^(-1/2)), so that W^T B W = I and W W^T = B^(-1),
    and W^T (A - B) W = Q diag(x) Q^T, the path is W^(-T) (I + tX) W^(-1),
    and its inverse integrates to (W Q) diag(g(x)) (W Q)^T, g the segment
    weight. Taking X from A - B keeps it exactly 0 at A = B.
    """
    w = qb * (1.0 / np.sqrt(lb))[:, None, :]
    x, qx = _eigh(_sym(np.swapaxes(w, 1, 2) @ (ma - mb) @ w))
    if not (x > -1.0).all():
        raise DomainViolationError(f"inverse undefined on the segment: 1 + x = {1.0 + x.min()!r}")
    v = w @ qx
    return [
        _apply_stack(v, _inverse_segment_weight(x, lo, hi) - (hi - lo))
        for lo, hi in DRAGOMIR_SEGMENTS
    ]


def _inverse_segment_weight(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """g(x) = int_lo^hi dt / (1 + tx) at each x > -1, for 0 <= lo < hi <= 1:
    log((1 + hi x) / (1 + lo x)) / x, taken as log1p((hi - lo) x / (1 + lo x))
    / x, and for |x| < INVERSE_SERIES_CUT as the series
    sum_k (-x)^k (hi^(k+1) - lo^(k+1)) / (k + 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = np.log1p((hi - lo) * x / (1.0 + lo * x)) / x
    k = np.arange(_INVERSE_SERIES_TERMS, 0, -1)  # highest power first, for polyval
    coef = (-1.0) ** (k - 1) * (hi**k - lo**k) / k
    return np.where(np.abs(x) < INVERSE_SERIES_CUT, np.polyval(coef, x), closed)


def det_ag_concavity_check(
    a,
    b,
    alpha: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> InequalityReport:
    """det(alpha A + (1-alpha) B) >= det(A)^alpha det(B)^(1-alpha) for PD A, B."""
    if not 0.0 < alpha < 1.0:
        raise DomainViolationError(f"weight must lie strictly inside (0, 1), got {alpha}")
    return _det_ag_stack(_pair(a, b, _one), alpha, rtol, atol)[0]


def am_gm_loewner_check(
    a, b, nu: float, rtol: float = DEFAULT_RTOL
) -> OrderChainReport:
    """A #_nu B <= (1-nu) A + nu B in the Loewner order for PD A, B."""
    if not (0.0 <= nu <= 1.0):
        raise DomainViolationError(f"weight must lie in [0, 1], got {nu}")
    return _am_gm_stack(_pair(a, b, _one), nu, rtol)[0]


# the exponent grid of norm_power_check: 11 evenly spaced values in [0, 1]
NORM_POWER_ALPHAS = np.linspace(0.0, 1.0, 11)


def norm_power_check(
    t,
    alphas=None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> InequalityReport:
    """||T^alpha|| <= ||T||^alpha in the operator norm for PSD T, alpha in [0, 1].

    The left side is evaluated on the materialized power, the right on the
    original matrix, so the two routes stay independent. Reports the worst
    alpha on the sampled grid (default: NORM_POWER_ALPHAS).

    For PSD T both sides are lambda_max^alpha, so the check is a sanity
    identity: its margin is rounding only.
    """
    side = _one(t)
    alphas = NORM_POWER_ALPHAS if alphas is None else np.asarray(alphas, dtype=float)
    if alphas.size == 0:  # an empty grid would check nothing and pass
        raise ConfigError("exponent grid must not be empty")
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise DomainViolationError(f"exponent grid must lie in [0, 1], got {alpha}")
    return _norm_power_stack(side, alphas, rtol, atol)[0]


def kittaneh_check(
    a,
    b,
    x,
    nu: float,
    norm_spec: NormSpec,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> InequalityReport:
    """|||A^nu X B^(1-nu)||| <= |||AX|||^nu |||XB|||^(1-nu) for PSD A, B.

    The right side is evaluated from the plain products AX and XB so that
    nu = 1/2 reproduces exactly the endpoint bound the full-interval chain
    refines.
    """
    if not 0.0 <= nu <= 1.0:
        raise DomainViolationError(f"weight must lie in [0, 1], got {nu}")
    return _kittaneh_stack(_TwoSidedPowers.of_one(a, b, x), nu, norm_spec, rtol, atol)[0]


# ---------------------------------------------------------------------------
# stacked kernels of the closed-form checks
#
# Each kernel takes the inputs of T trials (a _Pair; norm_power one _Side,
# kittaneh a _TwoSidedPowers) and returns their T reports in order; the public
# check above is the kernel on a stack of one. Every report is equal bit for
# bit to the one the trial's own per-matrix evaluation gives: LAPACK and BLAS
# see each matrix of a stacked eigh, eigvalsh, svd or matmul alone,
# elementwise steps do not depend on the shape (the report rules
# _chain_reports and _inequality_reports are elementwise), and a step whose
# stacked form could round differently (math.log, math.exp, the ** of Python
# floats) runs once per trial on the (T,) results. A kernel raises
# whenever one of its trials alone would; the campaign then re-runs the
# block one trial at a time.
#
# The kernels of the scalar and commuting chains and of the witness curves
# (_scalar_hh_stack, _commuting_order_stack, _phi_operator_verdicts,
# _two_sided_verdicts) follow the same rules, and keep two more steps per
# trial: the full convexity scan of each row that scan_block cannot settle,
# and the contraction of each trial's quadrature samples
# (integrate_trials_checked).


class _Side(NamedTuple):
    """One side of a _Pair: a (T, n, n) stack as given, its check_symmetric_stack
    part, and that part's spectra and bases from _eigh. Their column signs
    cancel in every product but C = Qa' X Qb and dragomir's inverse excess,
    which take _signed_columns of them."""

    m: np.ndarray
    sym: np.ndarray
    lam: np.ndarray
    q: np.ndarray


def _side(m: np.ndarray) -> _Side:
    sym = check_symmetric_stack(m)
    return _Side(m, sym, *_eigh(sym))


def _one(m) -> _Side:
    """The _Side of one matrix, raising what check_symmetric raises on it."""
    return _side(check_matrix(m, square=True)[None])


class _Pair(NamedTuple):
    """The checked spectral view of T pairs A, B: the _Side of each. It
    demands no definiteness; each chain checks what it needs of the spectra."""

    a: _Side
    b: _Side


def _pair(a, b, side=_side) -> _Pair:
    """The _Pair of stacks of A and B of one shape (with side=_one, of one A
    and one B), A checked first."""
    pair = _Pair(side(a), side(b))
    if pair.a.sym.shape != pair.b.sym.shape:
        raise DimMismatchError(f"shape mismatch {pair.a.sym.shape[1:]} vs {pair.b.sym.shape[1:]}")
    return pair


def _check_bridge(x_shape, a_shape, b_shape) -> None:
    if x_shape != (a_shape[0], b_shape[0]):
        raise DimMismatchError(f"X of shape {x_shape} does not bridge {a_shape} and {b_shape}")


def _require_finite(*stacks: np.ndarray) -> None:
    """What check_matrix raises on the intermediates it would have been given."""
    if not all(np.isfinite(m).all() for m in stacks):
        raise NonFiniteInputError("matrix contains non-finite entries")


def _means_stack(a: np.ndarray, b: np.ndarray, rtol: float, atol: float) -> list[ChainReport]:
    """scalar_mean_chain_report on each pair (a[t], b[t])."""
    ok = (a > 0.0) & (b > 0.0) & np.isfinite(a) & np.isfinite(b)
    if not ok.all():
        k = int(np.argmin(ok))
        raise NonPositiveInputError(f"means need positive finite inputs, got ({a[k]}, {b[k]})")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # math.log, not np.log: the two can differ in the last bit
    log_span = np.array([math.log(h) - math.log(l) for l, h in zip(lo.tolist(), hi.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mean = (hi - lo) / log_span
    rows = np.stack((lo, np.sqrt(a * b), log_mean, 0.5 * (a + b), hi), axis=1)
    tie = a == b  # L(a, a) = a by continuity, and so are the other four
    rows[tie] = a[tie, None]
    return _chain_reports("scalar_means", MEAN_CHAIN_NAMES, rows, rtol, atol)


def _det_ag_stack(pair: _Pair, alpha: float, rtol: float, atol: float) -> list[InequalityReport]:
    """det_ag_concavity_check on each trial of a _Pair: one eigh, of the mix."""
    mix = alpha * pair.a.sym + (1.0 - alpha) * pair.b.sym
    _require_finite(mix)
    # the determinant is the product of eigh's eigenvalues, as det_pd takes it
    lam = np.stack((pair.a.lam, pair.b.lam, _stacked(np.linalg.eigh, mix)[0]), axis=1)
    if (lam[..., 0] <= 0.0).any():
        raise NotPositiveDefiniteError(f"matrix has eigenvalue {float(lam[..., 0].min())!r} <= 0")
    da, db, dm = np.prod(lam, axis=-1).T.tolist()
    lhs = [x**alpha * y ** (1.0 - alpha) for x, y in zip(da, db)]
    return _inequality_reports("det_ag", lhs, dm, rtol, atol)


def _am_gm_stack(pair: _Pair, nu: float, rtol: float) -> list[OrderChainReport]:
    """am_gm_loewner_check on each trial of a _Pair: the weighted geometric
    mean A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2), from A's spectrum and one
    eigh of the inner mix, then the Loewner comparison with (1-nu) A + nu B.
    B's definiteness is read from eigvalsh, as weighted_geometric_mean reads
    it: on a B singular to rounding, eigh's smallest eigenvalue can differ."""
    ma, mb, lam, q = pair.a.sym, pair.b.sym, pair.a.lam, pair.a.q
    if (lam[:, 0] <= 0.0).any():
        raise NotPositiveDefiniteError("left factor is not positive definite")
    if (_stacked(np.linalg.eigvalsh, mb)[:, 0] <= 0.0).any():
        raise NotPositiveDefiniteError("right factor is not positive definite")
    root = np.sqrt(lam)
    inv_root = _apply_stack(q, 1.0 / root)
    inner = _sym(inv_root @ mb @ inv_root)
    _require_finite(inner)
    li, qi = _stacked(np.linalg.eigh, inner)
    root = _apply_stack(q, root)
    gm = _sym(root @ _apply_stack(qi, np.power(li, nu)) @ root)
    am = (1.0 - nu) * ma + nu * mb
    names = ("weighted_geometric_mean", "weighted_arithmetic_mean")
    flags = [True] * ma.shape[0]
    return _matrix_order_reports("am_gm_loewner", names, np.stack((gm, am)), rtol, flags, flags)


def _norm_power_stack(side, alphas: np.ndarray, rtol: float, atol: float) -> list[InequalityReport]:
    """norm_power_check on the T of each trial of a _Side, all exponents at
    once: the powers of every exponent from T's spectrum as one (T, m, n, n)
    stack, and one eigvalsh over T and its powers."""
    mt = side.sym
    powers = _power_stack(side.lam, side.q, alphas, mt)
    _require_finite(powers)
    eig = _stacked(np.linalg.eigvalsh, np.concatenate((mt[:, None], powers), axis=1))
    worst = []
    for base, *powered in np.max(np.abs(eig), axis=-1).tolist():
        trial = (math.inf, 0.0, 0.0)
        for alpha, lhs in zip(alphas.tolist(), powered):
            rhs = base**alpha
            if rhs - lhs < trial[0]:
                trial = (rhs - lhs, lhs, rhs)
        worst.append(trial)
    _, lhs, rhs = zip(*worst)
    return _inequality_reports("norm_power", lhs, rhs, rtol, atol)


def _kittaneh_stack(
    tp: _TwoSidedPowers, nu: float, norm_spec: NormSpec, rtol: float, atol: float
) -> list[InequalityReport]:
    """kittaneh_check on each trial of a _TwoSidedPowers: A^nu X B^(1-nu), AX
    and XB from one direct, and their norms from one stacked call."""
    trio = tp.direct([(nu, 1.0 - nu), (1.0, 0.0), (0.0, 1.0)])
    _require_finite(trio)
    lhs, ax, xb = norms_of_stack(trio, norm_spec).T.tolist()
    rhs = [u**nu * v ** (1.0 - nu) for u, v in zip(ax, xb)]
    return _inequality_reports("kittaneh", lhs, rhs, rtol, atol)


# ---------------------------------------------------------------------------
# commuting-pair chains (entrywise in the shared eigenbasis)

GG_HH_TERM_NAMES = ("log_f_of_geomean", "integral_of_log_f", "log_endpoint_geomean")
AG_MIDPOINT_TERM_NAMES = ("f_of_midpoint", "integral_of_geomean", "endpoint_geomean")


def _joint_ranges(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and largest eigenvalue of each pair of spectra of two
    (T, n) stacks."""
    both = np.concatenate((a, b), axis=1)
    return both.min(axis=1), both.max(axis=1)


def _require_in_domain(f: FunctionSpec, lo: np.ndarray, hi: np.ndarray) -> None:
    for x, y in zip(lo.tolist(), hi.tolist()):
        if not f.contains_interval(x, y):
            raise DomainViolationError(
                f"joint spectrum [{x}, {y}] outside the domain of {f.describe()}"
            )


def _advisory_convexity(
    f: FunctionSpec, lo: np.ndarray, hi: np.ndarray, gg: bool, check_hypothesis: bool
) -> list[bool]:
    """Whether f passes is_gg_convex (gg) or is_ag_convex on each interval
    [lo[t], hi[t]] of two (T,) arrays, inside the domain of f and positive
    for gg; a single point gives nothing to test and passes."""
    holds = np.ones(lo.shape[0], dtype=bool)
    if check_hypothesis:
        test = lo < hi
        grid = DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL
        holds[test] = convexity_holds(f, lo[test], hi[test], gg, *grid)
    return holds.tolist()


def _commuting_prelude(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, gg: bool, check_hypothesis: bool
) -> list[bool]:
    """Refuse a joint spectrum outside the domain of f, then return the
    advisory convexity verdict of f on it, for each pair of spectra of two
    (T, n) stacks."""
    lo, hi = _joint_ranges(a, b)
    _require_in_domain(f, lo, hi)
    return _advisory_convexity(f, lo, hi, gg, check_hypothesis)


def _spectra(pair: CommutingPair) -> tuple[np.ndarray, np.ndarray]:
    """The pair's spectra as a stack of one."""
    return np.asarray(pair.a, dtype=float)[None], np.asarray(pair.b, dtype=float)[None]


def operator_gg_hh_order_chain(
    f: FunctionSpec,
    pair: CommutingPair,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    check_hypothesis: bool = True,
) -> OrderChainReport:
    """log f(sqrt(AB)) <= int_0^1 log f(A^t B^(1-t)) dt <= log sqrt(f(A) f(B))
    for a GG-convex f on a commuting positive pair, entrywise in the shared
    eigenbasis."""
    return _commuting_order_stack(
        "op_gg_hh", f, *_spectra(pair), quad_n, rtol, check_hypothesis
    )[0]


def operator_ag_midpoint_order_chain(
    f: FunctionSpec,
    pair: CommutingPair,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    check_hypothesis: bool = True,
) -> OrderChainReport:
    """f((A+B)/2) <= int_0^1 sqrt(f(aA+(1-a)B) f((1-a)A+aB)) da <= sqrt(f(A)f(B))
    for an AG-convex f on a commuting positive pair; the square-rooted product
    is the entrywise geometric mean in the shared eigenbasis."""
    return _commuting_order_stack(
        "op_ag_midpoint", f, *_spectra(pair), quad_n, rtol, check_hypothesis
    )[0]


def _commuting_order_stack(
    theorem_id: str, f: FunctionSpec, a: np.ndarray, b: np.ndarray, quad_n: int, rtol: float,
    check_hypothesis: bool,
) -> list[OrderChainReport]:
    """The op_gg_hh or op_ag_midpoint chain of each commuting pair, given by
    its spectra a[t], b[t] of two (T, n) stacks."""
    gg = theorem_id == "op_gg_hh"
    holds = _commuting_prelude(f, a, b, gg, check_hypothesis)
    # nodes ts of shape (R, N) against spectra of shape (R, n): (R, N, n)
    if gg:
        v1 = _positive_logs(f, np.sqrt(a * b))

        def rows(sl: slice, ts: np.ndarray) -> np.ndarray:
            t = ts[:, :, None]
            return _positive_logs(f, np.power(a[sl, None], t) * np.power(b[sl, None], 1.0 - t))

    else:
        v1 = f.eval_array(0.5 * (a + b))

        def rows(sl: slice, ts: np.ndarray) -> np.ndarray:
            t, a3, b3 = ts[:, :, None], a[sl, None], b[sl, None]
            fwd = f.eval_array(t * a3 + (1.0 - t) * b3)
            rev = f.eval_array((1.0 - t) * a3 + t * b3)
            return np.sqrt(fwd * rev)

    v2, reliable = integrate_trials_checked(
        rows, np.zeros(len(a)), np.ones(len(a)), quad_n, a.shape[1]
    )
    if gg:
        v3 = 0.5 * (_positive_logs(f, a) + _positive_logs(f, b))
    else:
        v3 = np.sqrt(f.eval_array(a) * f.eval_array(b))
    names = GG_HH_TERM_NAMES if gg else AG_MIDPOINT_TERM_NAMES
    return _order_reports(theorem_id, names, (v1, v2, v3), rtol, reliable, holds)


def _norm_kinks(f: FunctionSpec, spec: NormSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where ||f(A^u B^(1-u))|| under the max-type norm spec can kink, for
    each commuting pair given by the spectra a[t], b[t] of two (T, n)
    stacks: a (T, P) array, ascending in each row, NaN for no cut.

    The eigenvalue curves a_i^u b_i^(1-u) are log-affine in u, so two cross
    at most once, at an exact u; the interior crossings of a trial, each
    once, are its candidates. Every f of the grammar is monotone on
    (0, inf), so between two candidates the order of the |f| of the curves
    is fixed, and with it the branches spec reads (the largest spec.top_k).
    A candidate is kept where those differ between the midpoints of the
    pieces on its two sides: between kept cuts the norm is one smooth sum
    of branches, and Gauss nodes that never straddle a kink keep the
    Gauss-Kronrod check meaningful.
    """
    la, lb = np.log(a), np.log(b)
    slopes = la - lb
    i, j = np.triu_indices(a.shape[1], 1)  # every pair i < j
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel curves never cross
        u = (lb[:, j] - lb[:, i]) / (slopes[:, i] - slopes[:, j])
    u = np.sort(np.where((1e-12 < u) & (u < 1.0 - 1e-12), u, np.nan), axis=1)
    u[:, 1:][u[:, 1:] == u[:, :-1]] = np.nan  # a crossing of several pairs
    u = np.sort(u, axis=1)
    lo, hi = np.zeros((len(u), 1)), np.ones((len(u), 1))
    edges = np.concatenate((lo, np.where(np.isnan(u), 1.0, u), hi), axis=1)
    t = (0.5 * (edges[:, :-1] + edges[:, 1:]))[..., None]
    vals = np.abs(f.eval_array(np.power(a[:, None], t) * np.power(b[:, None], 1.0 - t)))
    top = np.sort(np.argsort(-vals, axis=2, kind="stable")[..., : spec.top_k], axis=2)
    return np.where((top[:, 1:] != top[:, :-1]).any(axis=2), u, np.nan)


def operator_norm_gg_chain(
    f: FunctionSpec,
    pair: CommutingPair,
    norm_spec: NormSpec,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    check_hypothesis: bool = True,
    theorem_id: str = "op_norm_gg",
) -> ChainReport:
    """Five-term norm chain of phi(u) = ||f(A^u B^(1-u))|| on [0, 1].

    ||f(sqrt(AB))|| <= sqrt(phi(1/4) phi(3/4)) <= exp(int log phi)
                    <= sqrt(phi(1/2)) phi(0)^(1/4) phi(1)^(1/4)
                    <= sqrt(||f(A)|| ||f(B)||)

    On the commuting pair f(sqrt(AB)) = f(A^(1/2)B^(1/2)), so the first term
    is phi(1/2) itself.
    """
    return _norm_gg_stack(
        theorem_id, f, *_spectra(pair), norm_spec, quad_n, rtol, atol, check_hypothesis
    )[0]


def _norm_gg_stack(
    theorem_id: str, f: FunctionSpec, a: np.ndarray, b: np.ndarray, norm_spec: NormSpec,
    quad_n: int, rtol: float, atol: float, check_hypothesis: bool,
) -> list[ChainReport]:
    """operator_norm_gg_chain of each commuting pair, given by its spectra
    a[t], b[t] of two (T, n) stacks: the anchors of every trial from one
    _commuting_norms, and the chain of every trial from one _hh_stack, which
    cuts the interval of each trial at the _norm_kinks of its curve."""
    holds = _commuting_prelude(f, a, b, True, check_hypothesis)
    # one point at a time: a power by one shared exponent takes numpy's fast
    # paths (0.5 is a square root), which a row of exponents does not
    points = [np.array([u]) for u in HH_NODES]
    anchors = np.concatenate([_commuting_norms(f, a, b, norm_spec, u) for u in points], axis=1)
    cuts = _norm_kinks(f, norm_spec, a, b) if norm_spec.is_max_type else None

    def log_phi(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        vals = _commuting_norms(f, a[rows], b[rows], norm_spec, xs)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
        return np.log(vals)

    return _curve_reports(
        theorem_id, anchors, log_phi, 0.0, 1.0, quad_n, a.shape[1], rtol, atol, holds, cuts
    )


def _commuting_norms(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, spec: NormSpec, ts: np.ndarray
) -> np.ndarray:
    """||f(A^t B^(1-t))|| of the commuting pairs given by the spectra a[r],
    b[r] of two (R, n) stacks, at the points ts: a (P,) array shared by every
    pair, or an (R, P) array of each pair's own. Shape (R, P); each value has
    the bits it has alone."""
    t = ts[..., None]
    grid = np.power(a[:, None, :], t) * np.power(b[:, None, :], 1.0 - t)
    rows = f.eval_array(grid).reshape(-1, a.shape[1])
    return norms_from_eig_rows(rows, spec).reshape(grid.shape[:2])


def _curve_reports(
    theorem_id: str, anchors, log_curve, lo: float, hi: float, quad_n: int, node_entries: int,
    rtol: float, atol: float, holds, cuts=None,
) -> list[ChainReport]:
    """The five-term chain of the norm curve of each trial on [lo, hi]: its
    anchors checked positive, then the _hh_stack terms as a ChainReport, with
    the hypothesis verdicts holds."""
    if (np.asarray(anchors) <= 0.0).any():
        raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
    trials = len(holds)
    terms, reliable = _hh_stack(
        anchors, log_curve, np.full(trials, lo), np.full(trials, hi), quad_n, node_entries, cuts
    )
    return _chain_reports(theorem_id, HH_TERM_NAMES, terms, rtol, atol, reliable, holds)


class TraceVariant(enum.Enum):
    SQRT = "sqrt"
    SQUARED = "squared"


TRACE_SQRT_TERM_NAMES = (
    "sqrt_trace_of_product",
    "trace_of_geomean",
    "quarter_pair_geomean",
    "integral_geomean",
    "midpoint_endpoint_mix",
    "endpoint_geomean",
)
TRACE_SQUARED_TERM_NAMES = (
    "trace_of_product",
    "quarter_pair_geomean",
    "integral_geomean",
    "midpoint_endpoint_mix",
    "product_of_traces",
)


def trace_chain(
    variant: TraceVariant,
    pair: CommutingPair,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ChainReport:
    """Trace chains of a commuting positive pair.

    SQRT:    sqrt(tr(AB)) <= tr(sqrt(AB)) <= sqrt(tau(1/4) tau(3/4))
             <= exp(int log tau) <= sqrt(tau(1/2)) tr(B)^(1/4) tr(A)^(1/4)
             <= sqrt(tr(A) tr(B)),   with tau(u) = tr(A^u B^(1-u)).
    SQUARED: tr(AB) <= sqrt(tau2(1/4) tau2(3/4)) <= exp(int log tau2)
             <= sqrt(tr(AB)) tr(B^2)^(1/4) tr(A^2)^(1/4) <= tr(A) tr(B),
             with tau2(u) = tr(A^(2u) B^(2-2u)). The final bound follows from
             tr(A^2) <= (tr A)^2, which is checked separately as a property.
    """
    return _trace_stack(variant, *_spectra(pair), quad_n, rtol, atol)[0]


def _trace_stack(
    variant: TraceVariant, a: np.ndarray, b: np.ndarray, quad_n: int, rtol: float, atol: float
) -> list[ChainReport]:
    """trace_chain of each commuting pair, given by its spectra a[t], b[t] of
    two (T, n) stacks: tau one point at a time over the stack, and the chain
    of every trial from one _hh_stack."""
    pw = 2.0 if variant is TraceVariant.SQUARED else 1.0

    def tau(u: float) -> list[float]:
        return (np.power(a, pw * u) * np.power(b, pw * (1.0 - u))).sum(axis=1).tolist()

    def log_tau(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        t = xs[:, :, None]
        grid = np.power(a[rows, None, :], pw * t) * np.power(b[rows, None, :], pw * (1.0 - t))
        return np.log(grid.sum(axis=2))

    if variant is TraceVariant.SQRT:
        # tr sqrt(AB) is tau(1/2)
        ends = [(math.sqrt(ab), mid) for ab, mid in zip((a * b).sum(axis=1).tolist(), tau(0.5))]
    else:
        ends = [x * y for x, y in zip(a.sum(axis=1).tolist(), b.sum(axis=1).tolist())]
    return _trace_reports(variant, tau, log_tau, ends, quad_n, a.shape[1], rtol, atol, True)


def _trace_reports(
    variant: TraceVariant, tau, log_tau, ends, quad_n: int, node_entries: int, rtol: float,
    atol: float, hypothesis_ok: bool,
) -> list[ChainReport]:
    """The trace chain of each trial from the five _hh_stack terms of its
    curve on [0, 1] (tau(u) the values of the trials at u, log_tau as
    _hh_stack takes it), with ends[t] in place of the midpoint term (SQRT: the
    pair sqrt tr AB, tr sqrt AB) or of the endpoint term (SQUARED: tr A tr B)."""
    trials, sqrt = len(ends), variant is TraceVariant.SQRT
    terms, reliable = _hh_stack(
        list(zip(*(tau(u) for u in HH_NODES))), log_tau, np.zeros(trials), np.ones(trials),
        quad_n, node_entries,
    )
    return _chain_reports(
        "trace_sqrt" if sqrt else "trace_squared",
        TRACE_SQRT_TERM_NAMES if sqrt else TRACE_SQUARED_TERM_NAMES,
        [end + v[1:] if sqrt else v[:4] + (end,) for v, end in zip(terms, ends)],
        rtol, atol, reliable, [hypothesis_ok] * trials,
    )


# ---------------------------------------------------------------------------
# the ablations: the chains above on positive pairs that need not commute, and
# on matrices that need not be positive. f of a product XY of two positives
# goes through eigh of a symmetric matrix similar to it: in A's eigenbasis
# for the powers A^s B^r (_f_of_power_product), in the standard basis for
# op_ag_midpoint's f(P) f(Q) (_f_of_product). Only the general matrices of
# the ablated kittaneh go through eig. Like the kernels above, each takes
# (T, n, n) stacks and returns T reports.


def _eig_function(m: np.ndarray, fn) -> np.ndarray:
    """v diag(fn(w)) v^-1 from np.linalg.eig of m, one matrix or a (..., n, n)
    stack, each matrix as if alone: eig makes a whole stack complex for one
    complex spectrum, so the matrices with real spectra are taken again."""
    w, v = np.linalg.eig(m)
    out = (v * fn(w)[..., None, :]) @ np.linalg.inv(v)
    real = (w.imag == 0.0).all(axis=-1) if w.ndim > 1 and np.iscomplexobj(w) else False
    if np.any(real):
        out[real] = _eig_function(m[real], fn)
    return out


def _f_of_product(xl: np.ndarray, xq: np.ndarray, y: np.ndarray, fn) -> np.ndarray:
    """fn(XY) for X = xq diag(xl) xq^T with xl > 0 and a symmetric positive Y,
    for one pair or for each pair of (..., n) spectra and (..., n, n) stacks,
    each as if alone. XY is similar to S = X^(1/2) Y X^(1/2), so fn(XY) is
    X^(1/2) V diag(fn(mu)) V^T X^(-1/2), with (mu, V) from one stacked eigh
    of sym(S)."""
    root = np.sqrt(xl)[..., None, :]
    xt = np.swapaxes(xq, -1, -2)
    half = (xq * root) @ xt
    mu, v = _stacked(np.linalg.eigh, _sym(half @ y @ half))
    # a NaN in mu, which eigh returns for a matrix that is not finite, fails too
    if not ((xl > 0.0).all() and (mu > 0.0).all()):
        raise DomainViolationError("X, or the spectrum of XY, is not positive")
    left = half @ v
    left *= fn(mu)[..., None, :]
    return left @ (np.swapaxes(v, -1, -2) @ ((xq / root) @ xt))


def _basis_overlap(pair: _Pair, rows=slice(None)) -> np.ndarray:
    """C = Qa' Qb of the trials rows (a slice or an index array) of a _Pair:
    B's eigenbasis in A's, (trials, n, n)."""
    return np.swapaxes(pair.a.q[rows], 1, 2) @ pair.b.q[rows]


def _f_of_power_product(pair: _Pair, rows, ss: np.ndarray, rs: np.ndarray, fn) -> np.ndarray:
    """Qa' fn(A^s B^r) Qa, fn of A^s B^r in the eigenbasis Qa of A, of the
    trials rows (a slice or an index array) of a _Pair of positive A, B at
    the exponent pairs (s, r) of the 1-d arrays ss and rs: (trials, len(ss),
    n, n). XY = A^s B^r is similar to X^(1/2) Y X^(1/2), which is Qa G G' Qa'
    with G = diag(la^(s/2)) C diag(lb^(r/2)) and C = Qa' Qb; so with (mu, W)
    from one stacked eigh of G G', the result is
    diag(la^(s/2)) W diag(fn(mu)) W' diag(la^(-s/2))."""
    half = _spectrum_powers(pair.a.lam[rows], 0.5 * ss)[..., :, None]
    g = _basis_overlap(pair, rows)[:, None] * half
    g *= _spectrum_powers(pair.b.lam[rows], 0.5 * rs)[..., None, :]
    mu, w = _stacked(np.linalg.eigh, g @ np.swapaxes(g, -1, -2))
    # a NaN in mu, which eigh returns for a matrix that is not finite, fails too
    if not ((half > 0.0).all() and (mu > 0.0).all()):
        raise DomainViolationError("X, or the spectrum of XY, is not positive")
    # G's buffer takes the left factor, and W' the right one in place
    left = np.multiply(w, half, out=g)
    left *= fn(mu)[..., None, :]
    right = np.swapaxes(w, -1, -2)
    right /= np.swapaxes(half, -1, -2)
    return left @ right


def _product_norms(
    pair: _Pair, f: FunctionSpec, spec: NormSpec, ts: np.ndarray, rows=None
) -> np.ndarray:
    """||f(A^t B^(1-t))|| of the trials rows (an index array, default every
    trial) of a _Pair at the points ts, (len(rows), len(ts)), in blocks of
    _curve_stack. Every norm is unitarily invariant, so the products are
    normed in A's eigenbasis."""
    rows = np.arange(pair.a.m.shape[0]) if rows is None else rows

    def block(sl, t: np.ndarray) -> np.ndarray:
        return norms_of_stack(_f_of_power_product(pair, rows[sl], t, 1.0 - t, f.eval_array), spec)

    return _curve_stack(block, rows.size, ts, pair.a.m[0].size)


def op_gg_hh_general(f: FunctionSpec, pair, quad_n: int, rtol: float) -> list[OrderChainReport]:
    """The op_gg_hh chain on positive pairs that need not commute:
    log f(sqrt(AB)) <= int_0^1 log f(A^t B^(1-t)) dt <= (log f(A) + log f(B))/2,
    each term in the eigenbasis Qa of A (t -> Qa' t Qa), which leaves every
    Loewner verdict as it is."""

    def log_f(w: np.ndarray) -> np.ndarray:
        return np.log(f.eval_array(w))

    one = np.ones(1)
    t1 = _sym(_f_of_power_product(pair, slice(None), one, one, lambda w: log_f(np.sqrt(w)))[:, 0])

    def nodes(trials: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return _sym(_f_of_power_product(pair, trials, ts, 1.0 - ts, log_f))

    diag = np.eye(pair.a.lam.shape[1]) * log_f(pair.a.lam)[:, None, :]
    t3 = 0.5 * (diag + _apply_stack(_basis_overlap(pair), log_f(pair.b.lam)))
    return _general_order_chain("op_gg_hh", GG_HH_TERM_NAMES, t1, nodes, t3, quad_n, rtol)


def op_ag_midpoint_general(
    f: FunctionSpec, pair: _Pair, quad_n: int, rtol: float
) -> list[OrderChainReport]:
    """The op_ag_midpoint chain on positive pairs that need not commute, the
    geometric mean of f(P) and f(Q) taken as sqrt(f(P) f(Q))."""
    a, b, qa, qb = pair.a.m, pair.b.m, pair.a.q, pair.b.q
    lm, qm = _eigh(check_symmetric_stack(0.5 * (a + b)))
    fla, flb, flm = (_f_of_spectrum(f, lam) for lam in (pair.a.lam, pair.b.lam, lm))

    def nodes(trials: np.ndarray, als: np.ndarray) -> np.ndarray:
        # P = al A + (1 - al) B and Q = al B + (1 - al) A, symmetrized as eigh
        # symmetrizes them: the sampled A and B are not exactly symmetric
        t, x, y = als[:, None, None], a[trials, None], b[trials, None]
        mixes = np.stack((t * x + (1.0 - t) * y, t * y + (1.0 - t) * x))
        lam, q = _stacked(np.linalg.eigh, _sym(mixes))
        fl = _f_of_spectrum(f, lam)
        return _sym(_f_of_product(fl[0], q[0], _apply_stack(q[1], fl[1]), np.sqrt))

    t3 = _sym(_f_of_product(fla, qa, _apply_stack(qb, flb), np.sqrt))
    return _general_order_chain(
        "op_ag_midpoint", AG_MIDPOINT_TERM_NAMES, _apply_stack(qm, flm), nodes, t3, quad_n, rtol
    )


def _general_order_chain(theorem_id: str, names, t1, nodes, t3, quad_n: int, rtol: float):
    """The Loewner chain t1 <= int_0^1 nodes(trials, t) dt <= t3 of each trial,
    nodes(trials, t) the (len(trials), len(t), n, n) values of the trials of
    an index array. Every trial's integral is one row of
    integrate_trials_checked, and the rows share the interval, as do the
    bisected halves of one call, so the nodes of the first row are every
    row's."""
    trials, n = t1.shape[:2]

    def samples(sl: slice, xs: np.ndarray) -> np.ndarray:
        rows = np.arange(trials)[sl]
        return _curve_stack(lambda s, t: nodes(rows[s], t), rows.size, xs[0], n * n)

    t2, ok = integrate_trials_checked(samples, np.zeros(trials), np.ones(trials), quad_n, n * n)
    mats = np.stack((t1, t2, t3))
    return _matrix_order_reports(theorem_id, names, mats, rtol, ok, [False] * trials)


def norm_gg_general(
    theorem_id: str, f: FunctionSpec, pair: _Pair, norm_spec: NormSpec, quad_n: int,
    rtol: float, atol: float,
) -> list[ChainReport]:
    """The op_norm_gg chain of phi(u) = ||f(A^u B^(1-u))|| on positive pairs
    that need not commute, integrated over [0, 1] without cuts: the
    quadrature bisects the pieces that hold a kink, and the rows of each of
    its calls share one interval, so the curve is taken at the nodes of the
    first."""
    trials, n = pair.a.m.shape[:2]

    def log_phi(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        vals = _product_norms(pair, f, norm_spec, xs[0], rows)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
        # math.log, not np.log: the two can differ in the last bit
        return np.array(list(map(math.log, vals.ravel().tolist()))).reshape(vals.shape)

    anchors = _product_norms(pair, f, norm_spec, np.array(HH_NODES)).tolist()
    return _curve_reports(
        theorem_id, anchors, log_phi, 0.0, 1.0, quad_n, n * n, rtol, atol, [False] * trials
    )


def trace_chain_general(
    variant: TraceVariant, pair: _Pair, quad_n: int, rtol: float, atol: float
) -> list[ChainReport]:
    """The trace chains on positive pairs that need not commute, with
    tau(u) = tr(A^u B^(1-u)) = sum_ij la_i^u (qa_i . qb_j)^2 lb_j^(1-u)."""
    a, b = pair.a.m, pair.b.m
    la, qa, lb = pair.a.lam, pair.a.q, pair.b.lam
    overlap = _basis_overlap(pair) ** 2
    pw = 2.0 if variant is TraceVariant.SQUARED else 1.0

    def tau(u: float) -> list[float]:
        left = np.power(la, pw * u)[:, None, :] @ overlap
        return (left @ np.power(lb, pw * (1.0 - u))[:, :, None])[:, 0, 0].tolist()

    def log_tau(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        t = xs[:, :, None]
        pa = np.power(la[rows, None, :], pw * t)
        pb = np.power(lb[rows, None, :], pw * (1.0 - t))
        return np.log(np.einsum("rti,rij,rtj->rt", pa, overlap[rows], pb))

    if variant is TraceVariant.SQUARED:
        ends = (la.sum(axis=1) * lb.sum(axis=1)).tolist()
    else:
        # tr sqrt(AB) as the sum of the roots of the spectrum of A^(1/2) B
        # A^(1/2), which is similar to AB
        half = (qa * np.sqrt(la)[:, None, :]) @ np.swapaxes(qa, 1, 2)
        w = _stacked(np.linalg.eigvalsh, _sym(half @ b @ half))
        if not (w > 0.0).all():
            raise DomainViolationError("trace_sqrt: the spectrum of AB is not positive")
        traces = np.trace(a @ b, axis1=1, axis2=2).tolist()
        ends = [(math.sqrt(x), y) for x, y in zip(traces, np.sqrt(w).sum(axis=1).tolist())]
    return _trace_reports(variant, tau, log_tau, ends, quad_n, a[0].size, rtol, atol, False)


def det_ag_indefinite(a, b, nu: float, rtol: float, atol: float) -> list[InequalityReport]:
    """det_ag on the symmetric parts of A, B, which need not be positive, with
    |det| on the left: |det A|^nu |det B|^(1-nu) <= det(nu A + (1-nu) B)."""
    a, b = _sym(a), _sym(b)
    lam = _stacked(np.linalg.eigvalsh, np.stack((a, b, nu * a + (1.0 - nu) * b)))
    da, db, dm = (np.prod(m, axis=1).tolist() for m in (np.abs(lam[0]), np.abs(lam[1]), lam[2]))
    lhs = [x**nu * y ** (1.0 - nu) for x, y in zip(da, db)]
    return _inequality_reports("det_ag", lhs, dm, rtol, atol, hypothesis_ok=False)


def kittaneh_general(
    a, b, x, nu: float, norm_spec: NormSpec, rtol: float, atol: float
) -> list[InequalityReport]:
    """kittaneh on general A, B, with the principal powers A^nu, B^(1-nu)
    (complex matrices)."""
    left = _eig_function(a, lambda w: np.power(w.astype(np.complex128), nu))
    right = _eig_function(b, lambda w: np.power(w.astype(np.complex128), 1.0 - nu))
    lhs = norms_of_stack(left @ x @ right, norm_spec)
    if not np.isfinite(lhs).all():
        raise DomainViolationError("kittaneh: the left side is not finite")
    ax, xb = (norms_of_stack(m, norm_spec).tolist() for m in (a @ x, x @ b))
    rhs = [u**nu * v ** (1.0 - nu) for u, v in zip(ax, xb)]
    return _inequality_reports("kittaneh", lhs, rhs, rtol, atol, hypothesis_ok=False)


# ---------------------------------------------------------------------------
# norm curves and unitarily-invariant-norm chains


@dataclass(frozen=True)
class PhiOperator:
    """t -> ||f(A^t B^(1-t))|| on a commuting positive pair."""

    f: FunctionSpec
    pair: CommutingPair


@dataclass(frozen=True)
class PhiSandwich:
    """t -> |||A^t X B^(1-t)||| for positive definite A, B (need not commute)."""

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class PhiDiagonal:
    """s -> |||A^s X B^s||| for positive definite A, B."""

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray


class _TwoSidedPowers:
    """Evaluates |||A^s X B^t||| for exponent arrays through the orthogonal
    reduction A^s X B^t = Qa (diag(la^s) C diag(lb^t)) Qb' with C = Qa' X Qb,
    which the norm family cannot see, for each trial of a _Pair and a checked
    (T, m, k) stack X (see of_one and of_stacks). Schatten-2 needs no product
    at all: |||A^s X B^t|||_2^2 = sum_ij la_i^(2s) C_ij^2 lb_j^(2t), one
    matmul against C∘C (core2) per block of points. It demands no
    definiteness: the curves call require_positive_definite. C and C∘C are
    formed on first use, read-only: kittaneh reads neither."""

    def __init__(self, pair: _Pair, mx: np.ndarray):
        self.pair, self.mx = pair, mx

    @cached_property
    def core(self) -> np.ndarray:
        qa, qb = (_signed_columns(side.q) for side in self.pair)
        core = np.swapaxes(qa, 1, 2) @ self.mx @ qb
        core.flags.writeable = False
        return core

    @cached_property
    def core2(self) -> np.ndarray:
        core2 = self.core * self.core
        core2.flags.writeable = False
        return core2

    @classmethod
    def of_one(cls, a, b, x) -> "_TwoSidedPowers":
        """A stack of one, from matrices checked one by one."""
        pair, mx = _Pair(_one(a), _one(b)), check_matrix(x)
        _check_bridge(mx.shape, pair.a.sym.shape[1:], pair.b.sym.shape[1:])
        return cls(pair, mx[None])

    @classmethod
    def of_stacks(cls, pair: _Pair, x) -> "_TwoSidedPowers":
        """The trials of a _Pair and a stack of X, checked as of_one checks X."""
        _require_finite(x)
        _check_bridge(x.shape[1:], pair.a.sym.shape[1:], pair.b.sym.shape[1:])
        return cls(pair, x)

    def require_positive_definite(self) -> None:
        if any((side.lam[:, 0] <= 0.0).any() for side in self.pair):
            raise NotPositiveDefiniteError("fractional power base must be positive definite")

    def norms(self, ts: np.ndarray, second, spec: NormSpec, trials=slice(None)) -> np.ndarray:
        """Norm at each exponent pair (t, second(t)) of the array ts, for each
        trial that the slice or index array trials picks: shape (trials,
        len(ts))."""
        p = self.pair
        la, lb, core, core2 = (x[trials] for x in (p.a.lam, p.b.lam, self.core, self.core2))
        m, k = core.shape[1:]

        def block(sl: slice, t: np.ndarray) -> np.ndarray:
            left = np.power(la[sl, None, :], t[:, None])
            right = np.power(lb[sl, None, :], second(t)[:, None])
            if spec.is_frobenius:
                # (T, P, m) @ (T, m, k), then a row-wise dot with right∘right
                return np.sqrt((((left * left) @ core2[sl]) * (right * right)).sum(axis=-1))
            prods = left[..., None] * core[sl, None]
            prods *= right[..., None, :]
            return norms_of_stack(prods.reshape(-1, m, k), spec).reshape(prods.shape[:2])

        return _curve_stack(block, core.shape[0], ts, m * k)

    def direct(self, pairs) -> np.ndarray:
        """The materialized A^sa X B^sb of each trial at each exponent pair
        (sa, sb) of pairs: shape (T, len(pairs), m, k). The powers come from
        one _power_stack per side, so exponents 0 and 1 incur no
        reconstruction noise, and a zero exponent skips its product."""
        sa, sb = (np.array(side, dtype=float) for side in zip(*pairs))
        left, right = (_power_stack(s.lam, s.q, t, s.sym) for s, t in zip(self.pair, (sa, sb)))
        out = []
        for k, (ta, tb) in enumerate(pairs):
            mx = self.mx if ta == 0.0 else left[:, k] @ self.mx
            out.append(mx if tb == 0.0 else mx @ right[:, k])
        return np.stack(out, axis=1)


def _curve_stack(block, trials: int, ts: np.ndarray, point_entries: int) -> np.ndarray:
    """The (trials, len(ts), ...) values of a curve of each trial, from
    ``block(sl, t)``, the values of the trials sl at the points t. Blocks
    hold whole trials, or whole points of one trial when a trial alone is
    larger, and at most STACK_ENTRIES entries at point_entries per point.
    A trial's points are cut by len(ts) and point_entries alone, and block
    must give each trial of sl the bits it gives that trial alone; so a
    trial's values have the same bits in any block of trials, a block of one
    (a replay) included. A point's value may depend on the points that share
    its block: a matmul over P points can round differently as P changes."""
    per_trial = ts.shape[0] * point_entries
    if per_trial <= STACK_ENTRIES:
        return np.concatenate([block(sl, ts) for sl in _blocks(trials, per_trial)])
    points = _blocks(ts.shape[0], point_entries)
    return np.stack([
        np.concatenate([block(slice(k, k + 1), ts[sl])[0] for sl in points]) for k in range(trials)
    ])


def _witness_scans(curve, grid_n: int, tol: float) -> list[ConvexityVerdict]:
    """The convexity scan of the log of each row of curve(ts), the (T,
    len(ts)) values of the curves of T trials on the fine grid ts of [0, 1],
    through scan_block in blocks of whole rows under STACK_ENTRIES."""
    ts = np.arange(grid_n * grid_n + 1) / (grid_n * grid_n)
    vals = curve(ts)
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        raise DomainViolationError("norm curve is not strictly positive on [0, 1]")
    logs = np.log(vals)
    return [v for sl in _blocks(*logs.shape) for v in scan_block(logs[sl], ts, grid_n, tol)]


def _phi_operator_verdicts(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_CONVEXITY_TOL,
) -> list[ConvexityVerdict]:
    """The PhiOperator witness of each commuting pair, given by its spectra
    a[t], b[t] of two (T, n) stacks."""
    _require_in_domain(f, *_joint_ranges(a, b))

    def block(sl: slice, t: np.ndarray) -> np.ndarray:
        return _commuting_norms(f, a[sl], b[sl], norm_spec, t)

    return _witness_scans(lambda ts: _curve_stack(block, a.shape[0], ts, a.shape[1]), grid_n, tol)


def _phi_product_verdicts(f: FunctionSpec, pair, norm_spec: NormSpec) -> list[ConvexityVerdict]:
    """The witness of t -> ||f(A^t B^(1-t))|| of each trial of a _Pair of
    positive A, B that need not commute."""
    return _witness_scans(
        lambda ts: _product_norms(pair, f, norm_spec, ts), DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL
    )


def _two_sided_verdicts(
    tp: _TwoSidedPowers, diagonal: bool, norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_CONVEXITY_TOL,
) -> list[ConvexityVerdict]:
    """The PhiDiagonal (diagonal) or PhiSandwich witness of each trial of tp."""
    tp.require_positive_definite()
    second = (lambda t: t) if diagonal else (lambda t: 1.0 - t)
    return _witness_scans(lambda ts: tp.norms(ts, second, norm_spec), grid_n, tol)


def ag_convexity_witness(
    curve,
    norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_CONVEXITY_TOL,
) -> ConvexityVerdict:
    """Grid test that a norm curve is AG-convex (log-convex) on [0, 1].

    Accepts PhiOperator, PhiSandwich, or PhiDiagonal. The scan
    is identical to the scalar one: log of the curve on the fine grid against
    all coarse chords.
    """
    grid_n = _check_grid_n(grid_n)
    if isinstance(curve, PhiOperator):
        verdicts = _phi_operator_verdicts(curve.f, *_spectra(curve.pair), norm_spec, grid_n, tol)
    elif isinstance(curve, (PhiSandwich, PhiDiagonal)):
        tp = _TwoSidedPowers.of_one(curve.a, curve.b, curve.x)
        verdicts = _two_sided_verdicts(tp, isinstance(curve, PhiDiagonal), norm_spec, grid_n, tol)
    else:
        raise ConfigError(f"unknown curve {curve!r}")
    return verdicts[0]


class UinVariant(enum.Enum):
    SYMMETRIC = "symmetric"
    END_LEFT = "end_left"
    END_RIGHT = "end_right"
    FULL = "full"
    DIAGONAL = "diagonal"


_UIN_IDS = {
    UinVariant.SYMMETRIC: "uin_symmetric",
    UinVariant.END_LEFT: "uin_end_left",
    UinVariant.END_RIGHT: "uin_end_right",
    UinVariant.FULL: "uin_full",
    UinVariant.DIAGONAL: "uin_diagonal",
}


def _uin_interval(variant: UinVariant, nu: float) -> tuple[float, float]:
    if variant in (UinVariant.FULL, UinVariant.DIAGONAL):
        return 0.0, 1.0
    if not math.isfinite(nu):
        raise DomainViolationError(f"nu must be finite, got {nu}")
    if variant is UinVariant.SYMMETRIC:
        if not 0.0 < nu < 1.0:
            raise DomainViolationError(f"SYMMETRIC needs nu in (0, 1), got {nu}")
        if nu == 0.5:
            raise DegenerateIntervalError("SYMMETRIC is degenerate at nu = 1/2")
        # the nu and 1-nu branches describe the same interval
        return min(nu, 1.0 - nu), max(nu, 1.0 - nu)
    if variant is UinVariant.END_LEFT:
        if nu == 0.0:
            raise DegenerateIntervalError("END_LEFT is degenerate at nu = 0")
        if not 0.0 < nu <= 0.5:
            raise DomainViolationError(f"END_LEFT needs nu in (0, 1/2], got {nu}")
        return 0.0, nu
    if nu == 1.0:
        raise DegenerateIntervalError("END_RIGHT is degenerate at nu = 1")
    if not 0.5 <= nu < 1.0:
        raise DomainViolationError(f"END_RIGHT needs nu in [1/2, 1), got {nu}")
    return nu, 1.0


def uin_chain(
    variant: UinVariant,
    a,
    b,
    x,
    norm_spec: NormSpec,
    nu: float = 0.3,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ChainReport:
    """Five-term chain of the AG-convex norm curve on a variant interval.

    phi(t) = |||A^t X B^(1-t)||| (psi(s) = |||A^s X B^s||| for DIAGONAL) on
    [lo, hi] per variant: SYMMETRIC uses [nu, 1-nu], END_LEFT [0, nu],
    END_RIGHT [nu, 1], FULL and DIAGONAL [0, 1]. Terms are the midpoint value,
    geometric mean at the quarter points, exponentiated mean of log phi, the
    midpoint-endpoint mix, and the endpoint geometric mean. Anchor terms use
    materialized powers; only the integral goes through the scaled reduction
    of _TwoSidedPowers, which under Schatten-2 takes each node's norm from
    la^(2s) (C∘C) lb^(2t) without forming the product.
    """
    return _uin_stack(
        variant, _TwoSidedPowers.of_one(a, b, x), norm_spec, nu, quad_n, rtol, atol
    )[0]


def _uin_stack(
    variant: UinVariant, tp: _TwoSidedPowers, norm_spec: NormSpec, nu: float, quad_n: int,
    rtol: float, atol: float,
) -> list[ChainReport]:
    """uin_chain of each trial of tp: the anchors of every trial from one
    materialized stack, and the chain of every trial from one _hh_stack. The
    trials share the interval, and so do the bisected halves of one call of
    integrate_trials_checked, so their quadrature nodes are the same bits,
    and the curve is taken at the nodes of the first."""
    tp.require_positive_definite()
    lo, hi = _uin_interval(variant, nu)
    diagonal = variant is UinVariant.DIAGONAL

    def second(t):
        return t if diagonal else 1.0 - t

    points = (lo, 0.25 * (3.0 * lo + hi), 0.5 * (lo + hi), 0.25 * (lo + 3.0 * hi), hi)
    mats = tp.direct([(t, second(t)) for t in points])
    _require_finite(mats)

    def log_curve(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        vals = tp.norms(xs[0], second, norm_spec, rows)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError("norm curve is not strictly positive")
        return np.log(vals)

    m, k = tp.core.shape[1:]
    return _curve_reports(
        _UIN_IDS[variant], norms_of_stack(mats, norm_spec).tolist(), log_curve, lo, hi, quad_n,
        m * k, rtol, atol, [True] * mats.shape[0],
    )
