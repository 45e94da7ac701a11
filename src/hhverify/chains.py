"""Chain verifiers: one callable per inequality chain.

Real-valued chains produce a ChainReport (ordered term values plus pairwise
margins); operator-valued chains produce an OrderChainReport (pairwise Loewner
comparisons). Hypothesis grid tests are advisory: when one fails the chain is
still evaluated and the report carries hypothesis_ok=False, so deliberate
ablation runs remain expressible. Quadrature doubling failures likewise mark
the report unreliable instead of failing it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    DimMismatchError,
    DomainViolationError,
    NonFiniteInputError,
    NonPositiveInputError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
)
from .functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    MEAN_CHAIN_NAMES,
    ConvexityVerdict,
    FunctionSpec,
    _check_grid_n,
    _positive_logs,
    _scan_fine_grid,
    is_ag_convex,
    is_gg_convex,
)
from .linalg import (
    PSD_TOL,
    _SCALAR_POWER_SHORTCUTS,
    CommutingPair,
    LoewnerOrdering,
    SpectralDecomp,
    _sym,
    check_matrix,
    check_symmetric,
    check_symmetric_stack,
    eigh,
    loewner_compare,
    matrix_function,
    power_from_decomp,
)
from .norms import NormSpec, norm, norms_from_eig_rows, norms_of_stack
from .quadrature import integrate_stack_checked

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


def hh_terms(anchors, log_curve, edges, quad_n: int, span: float | None = None):
    """The five Hermite-Hadamard terms of a log-convex curve v on [lo, hi].

    ``anchors`` are v at lo, q1, mid, q2 and hi (q1, q2 the quarter points).
    ``log_curve`` is the vectorized log v; it is integrated over each piece
    of ``edges`` (lo, any interior kinks, hi), the pieces are summed and the
    sum is divided by ``span`` (default hi - lo). Returns the terms in
    HH_TERM_NAMES order,

        v(mid) <= sqrt(v(q1) v(q2)) <= exp(mean of log v)
               <= sqrt(v(mid)) v(lo)^(1/4) v(hi)^(1/4) <= sqrt(v(lo) v(hi)),

    and whether every piece passed the quadrature doubling check.
    """
    v_lo, v_q1, v_mid, v_q2, v_hi = anchors
    integral, reliable = 0.0, True
    for k in range(len(edges) - 1):
        piece, ok = integrate_stack_checked(
            log_curve, float(edges[k]), float(edges[k + 1]), quad_n
        )
        integral += float(piece)
        reliable = reliable and ok
    if span is None:
        span = edges[-1] - edges[0]
    terms = (
        v_mid,
        math.sqrt(v_q1 * v_q2),
        math.exp(integral / span),
        math.sqrt(v_mid) * v_lo**0.25 * v_hi**0.25,
        math.sqrt(v_lo * v_hi),
    )
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
    comps = []
    passed = True
    for k in range(len(rows) - 1):
        lo_row, hi_row = np.asarray(rows[k]), np.asarray(rows[k + 1])
        gap = float(np.min(hi_row - lo_row))
        scale = max(1.0, float(np.max(np.abs(lo_row))), float(np.max(np.abs(hi_row))))
        comps.append(Comparison(names[k], names[k + 1], gap))
        passed = passed and gap >= -rtol * scale
    return OrderChainReport(
        theorem_id=theorem_id,
        comparisons=tuple(comps),
        passed=passed,
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _order_report_from_matrices(
    theorem_id: str,
    names: tuple[str, ...],
    mats,
    rtol: float,
    quad_reliable: bool = True,
    hypothesis_ok: bool = True,
) -> OrderChainReport:
    comps = []
    passed = True
    for k in range(len(mats) - 1):
        verdict = loewner_compare(mats[k], mats[k + 1], tol=rtol)
        comps.append(Comparison(names[k], names[k + 1], verdict.min_gap))
        passed = passed and verdict.ordering in (
            LoewnerOrdering.LESS_EQUAL,
            LoewnerOrdering.EQUAL,
        )
    return OrderChainReport(
        theorem_id=theorem_id,
        comparisons=tuple(comps),
        passed=passed,
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


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
    mode = kind.lower()
    if mode not in ("ag", "gg"):
        raise ConfigError(f"chain kind must be 'ag' or 'gg', got {kind!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainViolationError(f"endpoints must be finite, got [{a}, {b}]")
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got [{a}, {b}]")
    if mode == "gg" and a <= 0.0:
        raise NonPositiveInputError(f"GG chain needs a > 0, got a={a}")
    if not f.contains_interval(a, b):
        raise DomainViolationError(f"[{a}, {b}] outside the domain of {f.describe()}")
    hypothesis_ok = _advisory_convexity(f, a, b, mode == "gg", check_hypothesis)

    if mode == "ag":
        q1, mid, q2 = 0.25 * (3 * a + b), 0.5 * (a + b), 0.25 * (a + 3 * b)
        log_f, span = (lambda ts: _positive_logs(f, ts)), b - a
    else:
        la, lb = math.log(a), math.log(b)
        q1 = math.exp(0.25 * (3 * la + lb))
        mid = math.exp(0.5 * (la + lb))
        q2 = math.exp(0.25 * (la + 3 * lb))
        log_f, span = (lambda ts: _positive_logs(f, ts) / ts), lb - la
    terms, reliable = hh_terms((f(a), f(q1), f(mid), f(q2), f(b)), log_f, (a, b), quad_n, span)
    return _chain_report(
        "scalar_ag" if mode == "ag" else "scalar_gg",
        HH_TERM_NAMES,
        terms,
        rtol,
        atol,
        quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
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


def _f_of_symmetric(m: np.ndarray, f: FunctionSpec) -> np.ndarray:
    return matrix_function(eigh(m), f)


def _segment_stack(f: FunctionSpec, a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f(t A + (1-t) B) for every t in ``ts`` via one batched decomposition."""
    combos = ts[:, None, None] * a + (1.0 - ts)[:, None, None] * b
    lam, q = np.linalg.eigh(combos)
    ok = f.defined_at(lam)
    if not ok.all():
        raise DomainViolationError(
            f"{f.describe()} undefined at eigenvalue {lam[~ok][0]!r} on the segment"
        )
    vals = f.eval_array(lam)
    return (q * vals[:, None, :]) @ np.swapaxes(q, 1, 2)


def _operator_convex(f: FunctionSpec) -> bool:
    """Whether f is one whose operator convexity is certified here."""
    return (f.kind == "power" and f.params == (2.0,)) or f.kind == "inverse"


def dragomir_operator_chain(
    f: FunctionSpec,
    a,
    b,
    quad_n: int = DEFAULT_QUAD_N,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> OrderChainReport:
    """Six-term operator chain for an operator convex f on a symmetric pair.

    f((A+B)/2)  <=  2 int_{1/4}^{3/4} f(tA+(1-t)B) dt
                <=  [f((3A+B)/4) + f((A+3B)/4)] / 2
                <=  int_0^1 f((1-t)A+tB) dt
                <=  [f((A+B)/2) + (f(A)+f(B))/2] / 2
                <=  (f(A)+f(B))/2

    Supported f: power:2 on any symmetric pair, inverse on a positive
    definite pair. The pair need not commute.
    """
    if not _operator_convex(f):
        raise ConfigError(
            f"operator convexity is certified here only for power:2 and inverse, got {f.describe()}"
        )
    ma, mb = check_symmetric(a), check_symmetric(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    if f.kind == "inverse":
        for name, m in (("a", ma), ("b", mb)):
            if float(np.linalg.eigvalsh(m)[0]) <= 0.0:
                raise NotPositiveDefiniteError(f"inverse needs positive definite {name}")

    fa = _f_of_symmetric(ma, f)
    fb = _f_of_symmetric(mb, f)
    f_mid = _f_of_symmetric(0.5 * (ma + mb), f)
    d3 = 0.5 * (
        _f_of_symmetric(0.25 * (3.0 * ma + mb), f)
        + _f_of_symmetric(0.25 * (ma + 3.0 * mb), f)
    )

    def seg(ts: np.ndarray) -> np.ndarray:
        return _segment_stack(f, ma, mb, ts)

    central, ok2 = integrate_stack_checked(seg, 0.25, 0.75, quad_n)
    full, ok4 = integrate_stack_checked(seg, 0.0, 1.0, quad_n)
    d2 = 2.0 * central
    d5 = 0.5 * f_mid + 0.25 * (fa + fb)
    d6 = 0.5 * (fa + fb)
    return _order_report_from_matrices(
        "dragomir",
        DRAGOMIR_TERM_NAMES,
        (f_mid, d2, d3, full, d5, d6),
        rtol,
        quad_reliable=ok2 and ok4,
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
    if mx.shape != (ma.shape[0], mb.shape[0]):
        raise DimMismatchError(
            f"X of shape {mx.shape} does not bridge {ma.shape} and {mb.shape}"
        )
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


def _require_finite(*stacks: np.ndarray) -> None:
    """What check_matrix raises on the intermediates it would have been given."""
    if not all(np.isfinite(m).all() for m in stacks):
        raise NonFiniteInputError("matrix contains non-finite entries")


def _apply_stack(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """SpectralDecomp.apply on stacks: sym(q diag(values) q^T). The column
    signs of q cancel in the product, so eigh's sign convention is skipped."""
    return _sym((q * values[..., None, :]) @ np.swapaxes(q, -1, -2))


def _psd_clamp(lam: np.ndarray) -> np.ndarray:
    """power_from_decomp's guard on (T, n) spectra: tiny negatives within the
    PSD tolerance become zero, larger ones are refused."""
    if (lam[:, 0] < -PSD_TOL * np.maximum(1.0, np.max(np.abs(lam), axis=1))).any():
        raise NotPositiveSemidefiniteError("matrix has an eigenvalue < 0")
    return np.where(lam < 0.0, 0.0, lam)


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
    _require_finite(gm, am)
    # eigenvalues of am - gm (the gaps), of gm and of am (the scale)
    eig = np.linalg.eigvalsh(np.stack((am - gm, gm, am), axis=1))
    gaps = eig[:, 0, 0].tolist()
    scales = np.max(np.abs(eig[:, 1:]), axis=(1, 2)).tolist()
    names = ("weighted_geometric_mean", "weighted_arithmetic_mean")
    return [
        OrderChainReport(
            theorem_id="am_gm_loewner",
            comparisons=(Comparison(*names, gap),),
            passed=gap >= -rtol * max(1.0, scale),
        )
        for gap, scale in zip(gaps, scales)
    ]


def _norm_power_stack(t, alphas: np.ndarray, rtol: float, atol: float) -> list[InequalityReport]:
    """norm_power_check on each matrix of a (T, n, n) stack, all exponents at
    once: one stacked eigh, the powers of every inner exponent as one
    (T, m, n, n) stack, and one eigvalsh over T and its powers."""
    mt = check_symmetric_stack(t)
    inner = alphas[(alphas != 0.0) & (alphas != 1.0)]
    if inner.size:
        lam, q = np.linalg.eigh(mt)
        lam = _psd_clamp(lam)
        vals = np.power(lam[:, None, :], inner[None, :, None])
        # a scalar power of -1, 0.5 or 2 is a reciprocal, sqrt or square in numpy
        for k in np.flatnonzero(np.isin(inner, _SCALAR_POWER_SHORTCUTS)):
            vals[:, k] = np.power(lam, float(inner[k]))
        powers = _apply_stack(q[:, None], vals)
        _require_finite(powers)
    else:
        powers = np.empty((mt.shape[0], 0) + mt.shape[1:])
    eig = np.linalg.eigvalsh(np.concatenate((mt[:, None], powers), axis=1))
    norms = np.max(np.abs(eig), axis=-1).tolist()
    eye_norm = float(np.max(np.abs(np.linalg.eigvalsh(np.eye(mt.shape[1])))))
    reports = []
    for row in norms:
        base, powered = row[0], iter(row[1:])
        worst = (math.inf, 0.0, 0.0)
        for alpha in alphas.tolist():
            lhs = eye_norm if alpha == 0.0 else base if alpha == 1.0 else next(powered)
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
    s = np.linalg.svd(m.reshape(-1, m.shape[-2], m.shape[-1]), compute_uv=False)
    return spec.of_singular_values(np.maximum(s, 0.0)).tolist()


def _kittaneh_stack(
    a, b, x, nu: float, norm_spec: NormSpec, rtol: float, atol: float
) -> list[InequalityReport]:
    """kittaneh_check on each triple of (T, m, m), (T, k, k) and (T, m, k)
    stacks: the three norms of every trial come from one stacked call."""
    ma, mb = check_symmetric_stack(a), check_symmetric_stack(b)
    _require_finite(x)

    def power(m: np.ndarray, t: float) -> np.ndarray:
        # power_from_decomp(eigh(m), t, original=m) for each matrix
        if t == 0.0:
            return np.broadcast_to(np.eye(m.shape[-1]), m.shape)
        if t == 1.0:
            return m
        lam, q = np.linalg.eigh(m)
        return _apply_stack(q, np.power(_psd_clamp(lam), t))

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


def _joint_range(pair: CommutingPair) -> tuple[float, float]:
    lo = float(min(np.min(pair.a), np.min(pair.b)))
    hi = float(max(np.max(pair.a), np.max(pair.b)))
    return lo, hi


def _advisory_convexity(
    f: FunctionSpec, lo: float, hi: float, gg: bool, check_hypothesis: bool
) -> bool:
    # a single-point spectrum gives nothing to test
    if not (check_hypothesis and lo < hi):
        return True
    convex = is_gg_convex if gg else is_ag_convex
    return convex(f, lo, hi, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL).holds


def _commuting_prelude(
    f: FunctionSpec, pair: CommutingPair, gg: bool, check_hypothesis: bool
) -> bool:
    """Refuse a joint spectrum outside the domain of f, then return the
    advisory convexity verdict of f on it."""
    lo, hi = _joint_range(pair)
    if not f.contains_interval(lo, hi):
        raise DomainViolationError(
            f"joint spectrum [{lo}, {hi}] outside the domain of {f.describe()}"
        )
    return _advisory_convexity(f, lo, hi, gg, check_hypothesis)


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
    av, bv = pair.a, pair.b
    hypothesis_ok = _commuting_prelude(f, pair, True, check_hypothesis)
    v1 = _positive_logs(f, np.sqrt(av * bv))

    def rows(ts: np.ndarray) -> np.ndarray:
        grid = np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])
        return _positive_logs(f, grid)

    v2, reliable = integrate_stack_checked(rows, 0.0, 1.0, quad_n)
    v3 = 0.5 * (_positive_logs(f, av) + _positive_logs(f, bv))
    return _order_report_from_rows(
        "op_gg_hh",
        GG_HH_TERM_NAMES,
        (v1, v2, v3),
        rtol,
        quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
    )


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
    av, bv = pair.a, pair.b
    hypothesis_ok = _commuting_prelude(f, pair, False, check_hypothesis)
    v1 = f.eval_array(0.5 * (av + bv))

    def rows(ts: np.ndarray) -> np.ndarray:
        fwd = f.eval_array(ts[:, None] * av[None, :] + (1.0 - ts)[:, None] * bv[None, :])
        rev = f.eval_array((1.0 - ts)[:, None] * av[None, :] + ts[:, None] * bv[None, :])
        return np.sqrt(fwd * rev)

    v2, reliable = integrate_stack_checked(rows, 0.0, 1.0, quad_n)
    v3 = np.sqrt(f.eval_array(av) * f.eval_array(bv))
    return _order_report_from_rows(
        "op_ag_midpoint",
        AG_MIDPOINT_TERM_NAMES,
        (v1, v2, v3),
        rtol,
        quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _eig_crossings(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Interior u where two eigenvalue curves a_i^u b_i^(1-u) coincide.

    The log-curves are affine in u, so crossings are exact. Between
    consecutive crossings the sorted order of the curves is constant, which
    makes max-type norms (operator, Ky Fan) smooth on each segment; Gauss
    nodes that never straddle a kink keep the doubling check meaningful.
    """
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
    av, bv = pair.a, pair.b
    hypothesis_ok = _commuting_prelude(f, pair, True, check_hypothesis)

    def phi(u: float) -> float:
        eigs = np.power(av, u) * np.power(bv, 1.0 - u) if 0.0 < u < 1.0 else (
            av if u == 1.0 else bv
        )
        return norms_from_eig_rows(f.eval_array(eigs)[None, :], norm_spec)[0]

    def log_phi_rows(ts: np.ndarray) -> np.ndarray:
        grid = np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])
        vals = norms_from_eig_rows(f.eval_array(grid), norm_spec)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
        return np.log(vals)

    anchors = tuple(phi(u) for u in HH_NODES)
    if min(anchors) <= 0.0:
        raise DomainViolationError(f"{theorem_id}: norm curve is not strictly positive")
    # max-type norms sort the branches, so kinks sit at branch crossings
    sorting_norm = norm_spec.kind == "kyfan" or (
        norm_spec.kind == "schatten" and math.isinf(norm_spec.params[0])
    )
    if sorting_norm:
        edges = np.concatenate(([0.0], _eig_crossings(av, bv), [1.0]))
    else:
        edges = np.asarray([0.0, 1.0])
    terms, reliable = hh_terms(anchors, log_phi_rows, edges, quad_n)
    return _chain_report(
        theorem_id,
        HH_TERM_NAMES,
        terms,
        rtol,
        atol,
        quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
    )


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
    av, bv = pair.a, pair.b
    power = 2.0 if variant is TraceVariant.SQUARED else 1.0

    def tau(u: float) -> float:
        return float(np.sum(np.power(av, power * u) * np.power(bv, power * (1.0 - u))))

    def log_tau_rows(ts: np.ndarray) -> np.ndarray:
        grid = np.power(av[None, :], power * ts[:, None]) * np.power(
            bv[None, :], power * (1.0 - ts)[:, None]
        )
        return np.log(np.sum(grid, axis=1))

    terms, reliable = hh_terms(tuple(tau(u) for u in HH_NODES), log_tau_rows, (0.0, 1.0), quad_n)
    if variant is TraceVariant.SQRT:
        terms = (math.sqrt(float(np.sum(av * bv))),) + terms
        return _chain_report(
            "trace_sqrt", TRACE_SQRT_TERM_NAMES, terms, rtol, atol, quad_reliable=reliable
        )
    terms = terms[:4] + (float(np.sum(av)) * float(np.sum(bv)),)
    return _chain_report(
        "trace_squared", TRACE_SQUARED_TERM_NAMES, terms, rtol, atol, quad_reliable=reliable
    )


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
    norm family cannot see."""

    def __init__(self, a, b, x):
        ma, mb = check_symmetric(a), check_symmetric(b)
        mx = check_matrix(x)
        if mx.shape != (ma.shape[0], mb.shape[0]):
            raise DimMismatchError(
                f"X of shape {mx.shape} does not bridge {ma.shape} and {mb.shape}"
            )
        self.da, self.db = eigh(ma), eigh(mb)
        if self.da.eigenvalues[0] <= 0.0 or self.db.eigenvalues[0] <= 0.0:
            raise NotPositiveDefiniteError("fractional power base must be positive definite")
        self.ma, self.mb, self.mx = ma, mb, mx
        self.core = self.da.q.T @ mx @ self.db.q

    def norms(self, sa: np.ndarray, sb: np.ndarray, spec: NormSpec) -> np.ndarray:
        """Norm at each (sa[k], sb[k]) exponent pair, chunked for memory."""
        la, lb = self.da.eigenvalues, self.db.eigenvalues
        out = np.empty(sa.shape[0])
        chunk = 16384
        for start in range(0, sa.shape[0], chunk):
            ta, tb = sa[start : start + chunk], sb[start : start + chunk]
            left = np.power(la[None, :], ta[:, None])
            right = np.power(lb[None, :], tb[:, None])
            stack = left[:, :, None] * self.core[None, :, :] * right[:, None, :]
            out[start : start + chunk] = norms_of_stack(stack, spec)
        return out

    def direct(self, sa: float, sb: float) -> np.ndarray:
        """Materialized A^sa X B^sb; exponents 0 and 1 incur no
        reconstruction noise."""
        m = self.mx if sa == 0.0 else power_from_decomp(self.da, sa, original=self.ma) @ self.mx
        return m if sb == 0.0 else m @ power_from_decomp(self.db, sb, original=self.mb)


def ag_convexity_witness(
    curve,
    norm_spec: NormSpec,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_CONVEXITY_TOL,
) -> ConvexityVerdict:
    """Grid test that a norm curve is AG-convex (log-convex) on [0, 1].

    Accepts PhiOperator, PhiSandwich, or PhiDiagonal. The scan is identical
    to the scalar one: log of the curve on the fine grid against all coarse
    chords.
    """
    grid_n = _check_grid_n(grid_n)
    m = grid_n * grid_n
    ts = np.arange(m + 1) / m
    if isinstance(curve, PhiOperator):
        av, bv = curve.pair.a, curve.pair.b
        _commuting_prelude(curve.f, curve.pair, True, check_hypothesis=False)
        vals = np.empty(m + 1)
        chunk = 16384
        for start in range(0, m + 1, chunk):
            sub = ts[start : start + chunk]
            grid = np.power(av[None, :], sub[:, None]) * np.power(
                bv[None, :], (1.0 - sub)[:, None]
            )
            vals[start : start + chunk] = norms_from_eig_rows(
                curve.f.eval_array(grid), norm_spec
            )
    elif isinstance(curve, PhiSandwich):
        vals = _TwoSidedPowers(curve.a, curve.b, curve.x).norms(ts, 1.0 - ts, norm_spec)
    elif isinstance(curve, PhiDiagonal):
        vals = _TwoSidedPowers(curve.a, curve.b, curve.x).norms(ts, ts, norm_spec)
    else:
        raise ConfigError(f"unknown curve {curve!r}")
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        raise DomainViolationError("norm curve is not strictly positive on [0, 1]")
    return _scan_fine_grid(np.log(vals), ts, grid_n, tol)


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
    tp = _TwoSidedPowers(a, b, x)
    lo, hi = _uin_interval(variant, nu)
    diagonal = variant is UinVariant.DIAGONAL

    def second(t: float) -> float:
        return t if diagonal else 1.0 - t

    points = (lo, 0.25 * (3.0 * lo + hi), 0.5 * (lo + hi), 0.25 * (lo + 3.0 * hi), hi)
    anchors = tuple(norm(tp.direct(t, second(t)), norm_spec) for t in points)
    if min(anchors) <= 0.0:
        raise DomainViolationError("norm curve vanishes; chain undefined (is X zero?)")

    def log_rows(ts: np.ndarray) -> np.ndarray:
        vals = tp.norms(ts, ts if diagonal else 1.0 - ts, norm_spec)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError("norm curve is not strictly positive")
        return np.log(vals)

    terms, reliable = hh_terms(anchors, log_rows, (lo, hi), quad_n)
    return _chain_report(
        _UIN_IDS[variant], HH_TERM_NAMES, terms, rtol, atol, quad_reliable=reliable
    )
