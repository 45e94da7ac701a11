"""Chain verifiers: one callable per inequality chain.

Real-valued chains produce a ChainReport (ordered term values plus pairwise
margins); operator-valued chains produce an OrderChainReport (pairwise Loewner
comparisons). Hypothesis grid tests are advisory: when one fails the chain is
still evaluated and the report carries hypothesis_ok=False, so deliberate
ablation runs remain expressible. Quadrature doubling failures likewise mark
the report unreliable instead of failing it.

One rule (_order_verdicts) decides every Loewner link, from the smallest
eigenvalue of the difference and the spectral radii of the two terms; one
cutter (_curve_stack) splits curve points under functions.STACK_ENTRIES, and
quadrature.integrate_trials_checked alone cuts stacks of integrand rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
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
    _scan_fine_grid,
    convexity_holds,
)
from .linalg import (
    CommutingPair,
    _apply_stack,
    _f_of_spectrum,
    _power_stack,
    _signed_eigh,
    _sym,
    check_matrix,
    check_symmetric,
    check_symmetric_stack,
)
from .norms import NormSpec, norms_from_eig_rows, norms_of_stack
from .quadrature import _agrees, integrate_matrix, integrate_trials_checked

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-12
DEFAULT_QUAD_N = 64

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


def _chain_report(
    theorem_id: str,
    names: tuple[str, ...],
    values,
    rtol: float,
    atol: float,
    quad_reliable: bool = True,
    hypothesis_ok: bool = True,
) -> ChainReport:
    vals = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in vals):
        raise DomainViolationError(f"{theorem_id}: non-finite chain term in {vals}")
    margins = tuple(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    tol = rtol * max(1.0, max(abs(v) for v in vals)) + atol
    return ChainReport(
        theorem_id=theorem_id,
        term_names=names,
        term_values=vals,
        margins=margins,
        passed=all(m >= -tol for m in margins),
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _inequality_report(
    theorem_id: str,
    lhs: float,
    rhs: float,
    rtol: float,
    atol: float,
    quad_reliable: bool = True,
    hypothesis_ok: bool = True,
) -> InequalityReport:
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(
        theorem_id=theorem_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -(rtol * scale + atol),
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _hh_stack(anchors, log_curve, lo, hi, quad_n: int, node_entries: int, cuts=None, spans=None):
    """The five Hermite-Hadamard terms of the log-convex curve v of each of T
    trials on [lo[t], hi[t]], and whether its integral passed the doubling
    check.

    ``anchors[t]`` are trial t's v at lo, q1, mid, q2 and hi (q1, q2 the
    quarter points). Its interval is cut at the interior points cuts[t], if
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
        rows = np.repeat(np.arange(trials), [c.size + 1 for c in cuts])
        edges = [np.concatenate(([x], c, [y])) for x, y, c in zip(lo.tolist(), hi.tolist(), cuts)]
        starts = np.concatenate([e[:-1] for e in edges])
        ends = np.concatenate([e[1:] for e in edges])
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
    eig = np.linalg.eigvalsh(np.concatenate((terms[1:] - terms[:-1], terms)))
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
    return [
        _chain_report(
            "scalar_gg" if gg else "scalar_ag", HH_TERM_NAMES, terms[t], rtol, atol,
            quad_reliable=reliable[t], hypothesis_ok=holds[t],
        )
        for t in range(a.shape[0])
    ]


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
    f: FunctionSpec, a, b, quad_n: int = DEFAULT_QUAD_N, rtol: float = DEFAULT_RTOL
) -> OrderChainReport:
    """Six-term operator chain for an operator convex f on a symmetric pair.

    f((A+B)/2)  <=  2 int_{1/4}^{3/4} f(tA+(1-t)B) dt
                <=  [f((3A+B)/4) + f((A+3B)/4)] / 2
                <=  int_0^1 f((1-t)A+tB) dt
                <=  [f((A+B)/2) + (f(A)+f(B))/2] / 2
                <=  (f(A)+f(B))/2

    Supported f: power:2 on any symmetric pair, inverse on a positive
    definite pair. The pair need not commute. It is _dragomir_stack on a
    stack of one pair.
    """
    a, b = (np.asarray(m, dtype=float)[None] for m in (a, b))
    return _dragomir_stack(f, a, b, quad_n, rtol)[0]


def _dragomir_stack(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, quad_n: int, rtol: float
) -> list[OrderChainReport]:
    """dragomir_operator_chain of each pair a[t], b[t] of two (T, n, n) stacks.

    f of the five anchor matrices of every trial comes from one eigh, and
    the two segment integrals of every trial from one integrator call:
    row 2t is trial t's [1/4, 3/4], row 2t + 1 its [0, 1].
    """
    if not _operator_convex(f):
        raise ConfigError(
            f"operator convexity is certified here only for power:2 and inverse, got {f.describe()}"
        )
    ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape[1:]} vs {mb.shape[1:]}")
    trials, n = ma.shape[:2]
    # A, B, (A+B)/2, (3A+B)/4, (A+3B)/4 of every trial
    anchors = np.stack((ma, mb, 0.5 * (ma + mb), 0.25 * (3.0 * ma + mb), 0.25 * (ma + 3.0 * mb)))
    lam, q = _signed_eigh(anchors.reshape(-1, n, n))
    if f.kind == "inverse":
        bad = lam.reshape(5, trials, n)[:2, :, 0] <= 0.0  # A and B of each trial
        if bad.any():
            name = "a" if bad[0].any() else "b"
            raise NotPositiveDefiniteError(f"inverse needs positive definite {name}")
    fa, fb, f_mid, f_q1, f_q2 = _apply_stack(q, _f_of_spectrum(f, lam)).reshape(anchors.shape)
    owner = np.repeat(np.arange(trials), 2)

    def segment(sl: slice, xs: np.ndarray) -> np.ndarray:
        # f(t A + (1-t) B) at the (R, N) nodes xs of the rows sl
        t = xs[..., None, None]
        combos = t * ma[owner[sl], None] + (1.0 - t) * mb[owner[sl], None]
        lam, q = np.linalg.eigh(combos.reshape(-1, n, n))
        vals = _f_of_spectrum(f, lam)
        return ((q * vals[:, None, :]) @ np.swapaxes(q, 1, 2)).reshape(combos.shape)

    lo, hi = np.tile([0.25, 0.0], trials), np.tile([0.75, 1.0], trials)
    integrals, flags = integrate_trials_checked(segment, lo, hi, quad_n, n * n)
    d2, full, d6 = 2.0 * integrals[0::2], integrals[1::2], 0.5 * (fa + fb)
    terms = np.stack((f_mid, d2, 0.5 * (f_q1 + f_q2), full, 0.5 * f_mid + 0.25 * (fa + fb), d6))
    reliable = [ok2 and ok4 for ok2, ok4 in zip(flags[0::2], flags[1::2])]
    return _matrix_order_reports(
        "dragomir", DRAGOMIR_TERM_NAMES, terms, rtol, reliable, [True] * trials
    )


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
    ma, mb = check_symmetric(a), check_symmetric(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return _det_ag_stack(ma[None], mb[None], alpha, rtol, atol)[0]


def am_gm_loewner_check(
    a, b, nu: float, rtol: float = DEFAULT_RTOL
) -> OrderChainReport:
    """A #_nu B <= (1-nu) A + nu B in the Loewner order for PD A, B."""
    if not (0.0 <= nu <= 1.0):
        raise DomainViolationError(f"weight must lie in [0, 1], got {nu}")
    ma, mb = check_symmetric(a), check_symmetric(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return _am_gm_stack(ma[None], mb[None], nu, rtol)[0]


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
    mt = check_symmetric(t)
    alphas = NORM_POWER_ALPHAS if alphas is None else np.asarray(alphas, dtype=float)
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise DomainViolationError(f"exponent grid must lie in [0, 1], got {alpha}")
    return _norm_power_stack(mt[None], alphas, rtol, atol)[0]


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
    ma, mb = check_symmetric(a), check_symmetric(b)
    mx = check_matrix(x)
    _check_bridge(mx.shape, ma.shape, mb.shape)
    return _kittaneh_stack(ma[None], mb[None], mx[None], nu, norm_spec, rtol, atol)[0]


# ---------------------------------------------------------------------------
# stacked kernels of the closed-form checks
#
# Each kernel takes the inputs of T trials stacked on a leading axis and
# returns their T reports in order; the public check above is the kernel on a
# stack of one. Every report is equal bit for bit to the one the trial's own
# per-matrix evaluation gives: LAPACK and BLAS see each matrix of a stacked
# eigh, eigvalsh, svd or matmul alone, elementwise steps do not depend on the
# shape, and a step whose stacked form could round differently (math.log, the
# ** of Python floats, the report's own arithmetic) runs once per trial on the
# (T,) results. A kernel raises whenever one of its trials alone would; the
# campaign then re-runs the block one trial at a time.
#
# The kernels of the scalar and commuting chains and of the witness curves
# (_scalar_hh_stack, _commuting_order_stack, _phi_operator_verdicts,
# _two_sided_verdicts) follow the same rules, and keep two more steps per
# trial: the convexity scan of each trial's row, and the contraction of each
# trial's quadrature samples (integrate_trials_checked).


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
    return [
        _chain_report("scalar_means", MEAN_CHAIN_NAMES, row, rtol, atol) for row in rows.tolist()
    ]


def _det_ag_stack(a, b, alpha: float, rtol: float, atol: float) -> list[InequalityReport]:
    """det_ag_concavity_check on each pair of two (T, n, n) stacks."""
    ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
    trio = np.stack((ma, mb, alpha * ma + (1.0 - alpha) * mb), axis=1)
    _require_finite(trio)
    # the determinant is the product of eigh's eigenvalues, as det_pd takes it
    lam = np.linalg.eigh(trio)[0]
    if (lam[..., 0] <= 0.0).any():
        raise NotPositiveDefiniteError(f"matrix has eigenvalue {float(lam[..., 0].min())!r} <= 0")
    return [
        _inequality_report("det_ag", da**alpha * db ** (1.0 - alpha), dm, rtol, atol)
        for da, db, dm in np.prod(lam, axis=-1).tolist()
    ]


def _am_gm_stack(a, b, nu: float, rtol: float) -> list[OrderChainReport]:
    """am_gm_loewner_check on each pair of two (T, n, n) stacks: the weighted
    geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2), then the Loewner
    comparison with (1-nu) A + nu B."""
    ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
    lam, q = np.linalg.eigh(ma)
    if (lam[:, 0] <= 0.0).any():
        raise NotPositiveDefiniteError("left factor is not positive definite")
    if (np.linalg.eigvalsh(mb)[:, 0] <= 0.0).any():
        raise NotPositiveDefiniteError("right factor is not positive definite")
    root = np.sqrt(lam)
    inv_root = _apply_stack(q, 1.0 / root)
    inner = _sym(inv_root @ mb @ inv_root)
    _require_finite(inner)
    li, qi = np.linalg.eigh(inner)
    root = _apply_stack(q, root)
    gm = _sym(root @ _apply_stack(qi, np.power(li, nu)) @ root)
    am = (1.0 - nu) * ma + nu * mb
    names = ("weighted_geometric_mean", "weighted_arithmetic_mean")
    flags = [True] * ma.shape[0]
    return _matrix_order_reports("am_gm_loewner", names, np.stack((gm, am)), rtol, flags, flags)


def _norm_power_stack(t, alphas: np.ndarray, rtol: float, atol: float) -> list[InequalityReport]:
    """norm_power_check on each matrix of a (T, n, n) stack, all exponents at
    once: one stacked eigh, the powers of every exponent as one (T, m, n, n)
    stack, and one eigvalsh over T and its powers."""
    mt = check_symmetric_stack(t)
    powers = _power_stack(*np.linalg.eigh(mt), alphas, mt)
    _require_finite(powers)
    eig = np.linalg.eigvalsh(np.concatenate((mt[:, None], powers), axis=1))
    norms = np.max(np.abs(eig), axis=-1).tolist()
    reports = []
    for base, *powered in norms:
        worst = (math.inf, 0.0, 0.0)
        for alpha, lhs in zip(alphas.tolist(), powered):
            rhs = base**alpha
            if rhs - lhs < worst[0]:
                worst = (rhs - lhs, lhs, rhs)
        reports.append(_inequality_report("norm_power", worst[1], worst[2], rtol, atol))
    return reports


def _norms_stack(m: np.ndarray, spec: NormSpec) -> list[float]:
    """norm() of each matrix of a (..., m, n) stack, flattened in order."""
    flat = m.reshape(-1, m.shape[-2] * m.shape[-1])
    if spec.kind == "schatten" and spec.params[0] == 2.0:
        # the Frobenius norm as np.linalg.norm takes it: a dot product of the
        # flattened matrix with itself (BLAS ddot), then the root
        return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0]).tolist()
    return _sv_norm(m, spec).ravel().tolist()


def _kittaneh_stack(
    a, b, x, nu: float, norm_spec: NormSpec, rtol: float, atol: float
) -> list[InequalityReport]:
    """kittaneh_check on each triple of (T, m, m), (T, k, k) and (T, m, k)
    stacks: the three norms of every trial come from one stacked call."""
    ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
    _require_finite(x)

    def power(m: np.ndarray, t: float) -> np.ndarray:
        # power_from_decomp(eigh(m), t, original=m) for each matrix
        return _power_stack(*np.linalg.eigh(m), np.array([t]), m)[:, 0]

    trio = np.stack((power(ma, nu) @ x @ power(mb, 1.0 - nu), ma @ x, x @ mb), axis=1)
    _require_finite(trio)
    norms = _norms_stack(trio, norm_spec)
    return [
        _inequality_report(
            "kittaneh", norms[i], norms[i + 1] ** nu * norms[i + 2] ** (1.0 - nu), rtol, atol
        )
        for i in range(0, len(norms), 3)
    ]


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


def _eig_crossings(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Interior u where two eigenvalue curves a_i^u b_i^(1-u) coincide.

    The log-curves are affine in u, so crossings are exact. Between
    consecutive crossings the sorted order of the curves is constant, which
    makes max-type norms (operator, Ky Fan) smooth on each segment; Gauss
    nodes that never straddle a kink keep the doubling check meaningful.
    """
    la, lb = np.log(av), np.log(bv)
    slopes = la - lb
    i, j = np.triu_indices(la.size, 1)  # every pair i < j
    ds = slopes[i] - slopes[j]
    apart = ds != 0.0  # parallel curves never cross
    u = (lb[j][apart] - lb[i][apart]) / ds[apart]
    return np.unique(u[(1e-12 < u) & (u < 1.0 - 1e-12)])


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
    a[t], b[t] of two (T, n) stacks: the anchors one point at a time over the
    stack, and the chain of every trial from one _hh_stack, which cuts the
    interval of each trial at the kinks of its curve."""
    holds = _commuting_prelude(f, a, b, True, check_hypothesis)

    def phi(u: float) -> np.ndarray:
        eigs = np.power(a, u) * np.power(b, 1.0 - u) if 0.0 < u < 1.0 else (
            a if u == 1.0 else b
        )
        return _anchor_gauges(f.eval_array(eigs), norm_spec)

    anchors = np.array([phi(u) for u in HH_NODES])  # (5, T)
    # max-type norms sort the branches, so kinks sit at branch crossings
    sorting_norm = norm_spec.kind == "kyfan" or (
        norm_spec.kind == "schatten" and math.isinf(norm_spec.params[0])
    )
    cuts = [_eig_crossings(av, bv) for av, bv in zip(a, b)] if sorting_norm else None
    n = a.shape[1]

    def log_phi(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        t = xs[:, :, None]
        grid = np.power(a[rows, None, :], t) * np.power(b[rows, None, :], 1.0 - t)
        vals = norms_from_eig_rows(f.eval_array(grid).reshape(-1, n), norm_spec)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
        return np.log(vals.reshape(xs.shape))

    return _curve_reports(
        theorem_id, anchors.T, log_phi, 0.0, 1.0, quad_n, n, rtol, atol, holds, cuts
    )


def _anchor_gauges(rows: np.ndarray, spec: NormSpec) -> np.ndarray:
    """norms_from_eig_rows of each row of a (T, n) eigenvalue array, with the
    bits it has as a stack of one: the power of a general Schatten p, taken
    on reversed rows, can round differently in a taller stack, so those rows
    are gauged one at a time."""
    if spec.kind == "schatten" and spec.params[0] not in (1.0, 2.0, math.inf):
        return np.concatenate([norms_from_eig_rows(row[None], spec) for row in rows])
    return norms_from_eig_rows(rows, spec)


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
    return [
        _chain_report(theorem_id, HH_TERM_NAMES, v, rtol, atol, quad_reliable=ok, hypothesis_ok=h)
        for v, ok, h in zip(terms, reliable, holds)
    ]


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
    return [
        _chain_report(
            "trace_sqrt" if sqrt else "trace_squared",
            TRACE_SQRT_TERM_NAMES if sqrt else TRACE_SQUARED_TERM_NAMES,
            end + v[1:] if sqrt else v[:4] + (end,),
            rtol, atol, quad_reliable=ok, hypothesis_ok=hypothesis_ok,
        )
        for v, ok, end in zip(terms, reliable, ends)
    ]


# ---------------------------------------------------------------------------
# the ablations: the chains above on positive pairs that need not commute, and
# on matrices that need not be positive, through general eigendecompositions
# (a product spectrum that is not real and positive raises ConvergenceError).
# Like the kernels above, each takes (T, n, n) stacks and returns T reports.


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


def _general_apply(m: np.ndarray, fn) -> np.ndarray:
    """fn on the (real, positive) spectrum of a product of positives, for one
    matrix or for each matrix of a (..., n, n) stack, each as if alone."""

    def checked(w: np.ndarray) -> np.ndarray:
        wr = w.real
        if not np.isfinite(wr).all() or (wr <= 0.0).any():
            raise ConvergenceError("spectrum of the non-commuting product is not positive")
        imag = np.max(np.abs(w.imag), axis=-1)
        if (imag > 1e-8 * (1.0 + np.max(np.abs(wr), axis=-1))).any():
            raise ConvergenceError("spectrum of the non-commuting product is not real")
        return fn(wr)

    return np.real(_eig_function(m, checked))


def _sv_norm(m: np.ndarray, spec: NormSpec) -> np.ndarray:
    """The norms of a (..., m, n) stack, of shape (...)."""
    s = np.maximum(np.linalg.svd(m, compute_uv=False), 0.0)
    return spec.of_singular_values(s.reshape(-1, s.shape[-1])).reshape(s.shape[:-1])


def _pair(a: np.ndarray, b: np.ndarray) -> tuple:
    """A and B as drawn, then the spectra and signed bases of their
    symmetric parts, as eigh gives them."""
    return (a, b) + _signed_eigh(check_symmetric_stack(a)) + _signed_eigh(check_symmetric_stack(b))


def _weighted_products(pair: tuple, ts: np.ndarray) -> np.ndarray:
    """A^t B^(1-t) of each trial of a _pair at the nodes ts: (T, len(ts), n, n)."""
    a, b, la, qa, lb, qb = pair
    return _power_stack(la, qa, ts, a) @ _power_stack(lb, qb, 1.0 - ts, b)


def _product_norms(pair: tuple, f: FunctionSpec, spec: NormSpec, ts: np.ndarray) -> np.ndarray:
    """||f(A^t B^(1-t))|| of each trial of a _pair at the points ts, (T,
    len(ts)), in blocks of _curve_stack."""

    def block(sl, t: np.ndarray) -> np.ndarray:
        products = _weighted_products([x[sl] for x in pair], t)
        return _sv_norm(_general_apply(products, f.eval_array), spec)

    return _curve_stack(block, pair[0].shape[0], ts, pair[0][0].size)


def _segment_functions(f: FunctionSpec, a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f(t A + (1-t) B) of each trial of two (T, n, n) stacks at every t in
    ts, via one stacked eigh, each equal bit for bit to
    matrix_function(eigh(t A + (1-t) B), f).

    Unlike the segment of _dragomir_stack, it symmetrizes before and after, as
    eigh and matrix_function do; the sampled A and B are not exactly symmetric.
    """
    t = ts[:, None, None]
    lam, q = np.linalg.eigh(_sym(t * a[:, None] + (1.0 - t) * b[:, None]))
    return _apply_stack(q, _f_of_spectrum(f, lam))


def op_gg_hh_general(f: FunctionSpec, a, b, quad_n: int, rtol: float) -> list[OrderChainReport]:
    """The op_gg_hh chain on positive pairs that need not commute:
    log f(sqrt(AB)) <= int_0^1 log f(A^t B^(1-t)) dt <= (log f(A) + log f(B))/2."""
    pair = _pair(a, b)
    t1 = _sym(_general_apply(a @ b, lambda w: np.log(f.eval_array(np.sqrt(w)))))

    def nodes(trials: np.ndarray, ts: np.ndarray) -> np.ndarray:
        m = _weighted_products([x[trials] for x in pair], ts)
        return _sym(_general_apply(m, lambda w: np.log(f.eval_array(w))))

    la, qa, lb, qb = pair[2:]
    logs = _apply_stack(np.stack((qa, qb)), np.log(f.eval_array(np.stack((la, lb)))))
    t3 = 0.5 * (logs[0] + logs[1])
    return _general_order_chain("op_gg_hh", GG_HH_TERM_NAMES, t1, nodes, t3, quad_n, rtol)


def op_ag_midpoint_general(
    f: FunctionSpec, a, b, quad_n: int, rtol: float
) -> list[OrderChainReport]:
    """The op_ag_midpoint chain on positive pairs that need not commute, the
    geometric mean of f(P) and f(Q) taken as sqrt(f(P) f(Q))."""
    fa, fb, t1 = (
        _apply_stack(q, _f_of_spectrum(f, lam))
        for lam, q in (_signed_eigh(check_symmetric_stack(m)) for m in (a, b, 0.5 * (a + b)))
    )

    def nodes(trials: np.ndarray, als: np.ndarray) -> np.ndarray:
        # (1 - al) A + al B is al B + (1 - al) A: the sum is the same bits
        fp = _segment_functions(f, a[trials], b[trials], als)
        fq = _segment_functions(f, b[trials], a[trials], als)
        return _sym(_general_apply(fp @ fq, np.sqrt))

    t3 = _sym(_general_apply(fa @ fb, np.sqrt))
    return _general_order_chain(
        "op_ag_midpoint", AG_MIDPOINT_TERM_NAMES, t1, nodes, t3, quad_n, rtol
    )


def _general_order_chain(theorem_id: str, names, t1, nodes, t3, quad_n: int, rtol: float):
    """The Loewner chain t1 <= int_0^1 nodes(trials, t) dt <= t3 of each trial,
    nodes(trials, t) the (len(trials), len(t), n, n) values of the trials of
    an index array. Each block of trials (_blocks at 2 quad_n nodes) goes
    through integrate_matrix, node axis first; each trial's doubling flag
    comes from its own row."""
    trials, n = t1.shape[:2]
    t2, reliable = [], []
    for sl in _blocks(trials, 2 * quad_n * n * n):
        rows = np.arange(trials)[sl]

        def samples(ts: np.ndarray) -> np.ndarray:
            values = _curve_stack(lambda s, t: nodes(rows[s], t), rows.size, ts, n * n)
            return np.swapaxes(values, 0, 1)

        v1, v2 = (integrate_matrix(samples, 0.0, 1.0, k) for k in (quad_n, 2 * quad_n))
        t2.append(v1)
        reliable += _agrees(v1, v2).tolist()
    mats = np.stack((t1, np.concatenate(t2), t3))
    return _matrix_order_reports(theorem_id, names, mats, rtol, reliable, [False] * trials)


def norm_gg_general(
    theorem_id: str, f: FunctionSpec, a, b, norm_spec: NormSpec, quad_n: int, rtol: float,
    atol: float,
) -> list[ChainReport]:
    """The op_norm_gg chain of phi(u) = ||f(A^u B^(1-u))|| on positive pairs
    that need not commute."""
    pair, (trials, n) = _pair(a, b), a.shape[:2]

    def log_phi(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        vals = _product_norms([x[rows] for x in pair], f, norm_spec, xs[0])
        # math.log, not np.log: the two can differ in the last bit
        return np.array([math.log(v) for v in vals.ravel().tolist()]).reshape(vals.shape)

    anchors = _product_norms(pair, f, norm_spec, np.array(HH_NODES)).tolist()
    return _curve_reports(
        theorem_id, anchors, log_phi, 0.0, 1.0, quad_n, n * n, rtol, atol, [False] * trials
    )


def trace_chain_general(
    variant: TraceVariant, a, b, quad_n: int, rtol: float, atol: float
) -> list[ChainReport]:
    """The trace chains on positive pairs that need not commute, with
    tau(u) = tr(A^u B^(1-u)) = sum_ij la_i^u (qa_i . qb_j)^2 lb_j^(1-u)."""
    _, _, la, qa, lb, qb = _pair(a, b)
    overlap = (np.swapaxes(qa, 1, 2) @ qb) ** 2
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
        # tr sqrt(AB) as the sum of the roots of the eigenvalues of AB
        ab = a @ b
        w = np.linalg.eigvals(ab).real
        if (w <= 0.0).any():
            raise DomainViolationError("trace_sqrt: the spectrum of AB is not positive")
        traces = np.trace(ab, axis1=1, axis2=2).tolist()
        ends = [(math.sqrt(x), y) for x, y in zip(traces, np.sqrt(w).sum(axis=1).tolist())]
    return _trace_reports(variant, tau, log_tau, ends, quad_n, a[0].size, rtol, atol, False)


def det_ag_indefinite(a, b, nu: float, rtol: float, atol: float) -> list[InequalityReport]:
    """det_ag on the symmetric parts of A, B, which need not be positive, with
    |det| on the left: |det A|^nu |det B|^(1-nu) <= det(nu A + (1-nu) B)."""
    a, b = _sym(a), _sym(b)
    lam = np.linalg.eigvalsh(np.stack((a, b, nu * a + (1.0 - nu) * b)))
    dets = (np.prod(m, axis=1).tolist() for m in (np.abs(lam[0]), np.abs(lam[1]), lam[2]))
    return [
        _inequality_report("det_ag", da**nu * db ** (1.0 - nu), dm, rtol, atol, hypothesis_ok=False)
        for da, db, dm in zip(*dets)
    ]


def kittaneh_general(
    a, b, x, nu: float, norm_spec: NormSpec, rtol: float, atol: float
) -> list[InequalityReport]:
    """kittaneh on general A, B, with the principal powers A^nu, B^(1-nu)
    (complex matrices)."""
    left = _eig_function(a, lambda w: np.power(w.astype(np.complex128), nu))
    right = _eig_function(b, lambda w: np.power(w.astype(np.complex128), 1.0 - nu))
    lhs = _sv_norm(left @ x @ right, norm_spec)
    if not np.isfinite(lhs).all():
        raise DomainViolationError("kittaneh: the left side is not finite")
    sides = zip(lhs.tolist(), *(_sv_norm(m, norm_spec).tolist() for m in (a @ x, x @ b)))
    return [
        _inequality_report(
            "kittaneh", norm, ax**nu * xb ** (1.0 - nu), rtol, atol, hypothesis_ok=False
        )
        for norm, ax, xb in sides
    ]


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
    reduction A^s X B^t = Qa (diag(la^s) (Qa' X Qb) diag(lb^t)) Qb', which the
    norm family cannot see, for each trial of checked (T, m, m), (T, k, k)
    and (T, m, k) stacks (see of_one and of_stacks)."""

    def __init__(self, ma: np.ndarray, mb: np.ndarray, mx: np.ndarray):
        (self.la, self.qa), (self.lb, self.qb) = _signed_eigh(ma), _signed_eigh(mb)
        if (self.la[:, 0] <= 0.0).any() or (self.lb[:, 0] <= 0.0).any():
            raise NotPositiveDefiniteError("fractional power base must be positive definite")
        self.ma, self.mb, self.mx = ma, mb, mx
        self.core = np.swapaxes(self.qa, 1, 2) @ mx @ self.qb

    @classmethod
    def of_one(cls, a, b, x) -> "_TwoSidedPowers":
        """A stack of one, from matrices checked one by one."""
        ma, mb = check_symmetric(a), check_symmetric(b)
        mx = check_matrix(x)
        _check_bridge(mx.shape, ma.shape, mb.shape)
        return cls(ma[None], mb[None], mx[None])

    @classmethod
    def of_stacks(cls, a, b, x) -> "_TwoSidedPowers":
        """The trials of stacks of A, B and X, checked as of_one checks each."""
        ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
        _require_finite(x)
        _check_bridge(x.shape[1:], ma.shape[1:], mb.shape[1:])
        return cls(ma, mb, x)

    def norms(self, ts: np.ndarray, second, spec: NormSpec, trials=slice(None)) -> np.ndarray:
        """Norm at each exponent pair (t, second(t)) of the array ts, for each
        trial that the slice or index array trials picks: shape (trials,
        len(ts))."""
        la, lb, core = self.la[trials], self.lb[trials], self.core[trials]
        m, k = core.shape[1:]

        def block(sl: slice, t: np.ndarray) -> np.ndarray:
            left = np.power(la[sl, None, :], t[:, None])
            right = np.power(lb[sl, None, :], second(t)[:, None])
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
        left = _power_stack(self.la, self.qa, sa, self.ma)
        right = _power_stack(self.lb, self.qb, sb, self.mb)
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
    Each point's value is computed alone, so the blocking leaves its bits."""
    per_trial = ts.shape[0] * point_entries
    if per_trial <= STACK_ENTRIES:
        return np.concatenate([block(sl, ts) for sl in _blocks(trials, per_trial)])
    points = _blocks(ts.shape[0], point_entries)
    return np.stack([
        np.concatenate([block(slice(k, k + 1), ts[sl])[0] for sl in points]) for k in range(trials)
    ])


def _witness_scans(curve, grid_n: int, tol: float) -> list[ConvexityVerdict]:
    """The convexity scan of the log of each row of curve(ts), the (T,
    len(ts)) values of the curves of T trials on the fine grid ts of [0, 1]."""
    ts = np.arange(grid_n * grid_n + 1) / (grid_n * grid_n)
    vals = curve(ts)
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        raise DomainViolationError("norm curve is not strictly positive on [0, 1]")
    return [_scan_fine_grid(row, ts, grid_n, tol) for row in np.log(vals)]


def _phi_operator_verdicts(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_CONVEXITY_TOL,
) -> list[ConvexityVerdict]:
    """The PhiOperator witness of each commuting pair, given by its spectra
    a[t], b[t] of two (T, n) stacks."""
    _require_in_domain(f, *_joint_ranges(a, b))

    def block(sl: slice, t: np.ndarray) -> np.ndarray:
        grid = np.power(a[sl, None, :], t[:, None]) * np.power(b[sl, None, :], (1.0 - t)[:, None])
        rows = f.eval_array(grid).reshape(-1, a.shape[1])
        return norms_from_eig_rows(rows, norm_spec).reshape(grid.shape[:2])

    return _witness_scans(lambda ts: _curve_stack(block, a.shape[0], ts, a.shape[1]), grid_n, tol)


def _phi_product_verdicts(
    f: FunctionSpec, a: np.ndarray, b: np.ndarray, norm_spec: NormSpec
) -> list[ConvexityVerdict]:
    """The witness of t -> ||f(A^t B^(1-t))|| of each pair of (T, n, n)
    stacks of positive A, B that need not commute."""
    pair = _pair(a, b)
    return _witness_scans(
        lambda ts: _product_norms(pair, f, norm_spec, ts), DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL
    )


def _two_sided_verdicts(
    tp: _TwoSidedPowers, diagonal: bool, norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_CONVEXITY_TOL,
) -> list[ConvexityVerdict]:
    """The PhiDiagonal (diagonal) or PhiSandwich witness of each trial of tp."""
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
    materialized powers; only the integral goes through the scaled reduction.
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
    trials share the interval, so their quadrature nodes are the same bits,
    and the curve is taken at the nodes of the first."""
    lo, hi = _uin_interval(variant, nu)
    diagonal = variant is UinVariant.DIAGONAL

    def second(t):
        return t if diagonal else 1.0 - t

    points = (lo, 0.25 * (3.0 * lo + hi), 0.5 * (lo + hi), 0.25 * (lo + 3.0 * hi), hi)
    mats = tp.direct([(t, second(t)) for t in points])
    _require_finite(mats)
    norms = _norms_stack(mats, norm_spec)

    def log_curve(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        vals = tp.norms(xs[0], second, norm_spec, rows)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError("norm curve is not strictly positive")
        return np.log(vals)

    m, k = tp.core.shape[1:]
    return _curve_reports(
        _UIN_IDS[variant], [norms[i : i + 5] for i in range(0, len(norms), 5)], log_curve, lo, hi,
        quad_n, m * k, rtol, atol, [True] * mats.shape[0],
    )
