"""Scalar function library and grid-supported convexity verdicts.

The library covers the function shapes the chains need: ``exp(c*x)``, powers,
polynomials with nonnegative coefficients, the reciprocal, and the identity.
Each instance carries an explicit positivity domain (an interval on which the
function is strictly positive, so logarithms are safe); evaluation definedness
is a per-variant rule and can be wider, e.g. ``x**2`` evaluates on all reals
even though its positivity domain is (0, inf).

Two convexity notions are checked on finite grids:

* AG-convex: ``f(lx + (1-l)y) <= f(x)**l * f(y)**(1-l)`` (log-convex), and
* GG-convex: ``f(x**l * y**(1-l)) <= f(x)**l * f(y)**(1-l)`` (multiplicatively
  convex, equivalently u -> log f(exp(u)) convex).

A verdict is grid-supported, not a proof: every pair of grid points and every
``lambda = k/grid_n`` is tested, with combinations landing exactly on a
refinement of the grid so no interpolation error enters.

The scan (``_scan_fine_grid``) tests each chord once. The triples (k, i, j)
and (g-k, j, i) are the same chord: they read the same fine-grid value and
add the same two products in the other order, so their slacks have the same
bits, and only lambda <= 1/2 (k <= g//2) is scanned. That range is scanned in
blocks of whole k slices, in k, then i, then j order, one vectorized pass per
block; the verdict is bit for bit that of the plain per-triple loop.

``scan_block`` gives the scan's verdicts of the rows of a block, bit for
bit, from one vectorized pass over their second differences: a row whose
every second difference is at least 32u max|F| (u = 2**-53) is strictly
log-convex by more than the scan's rounding, so its first minimum lies on a
trivial triple (k = 0, or i = j) and only those are scanned, for all such
rows at once; every other row goes through ``_scan_fine_grid``. The witness
scans and ``convexity_verdicts`` (so ``is_ag_convex`` and ``is_gg_convex``)
call it.

``convexity_holds`` (the chains' advisory hypothesis check) keeps only the
holds bit, and sends to ``scan_block``, with the same pass, only the rows an
O(g**2) certificate cannot settle: a row within e of an affine one with
2e + 8u max|F| <= tol/2, or with second differences >= 8u max|F| <= tol/2,
scans to slacks >= -tol.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    DomainViolationError,
    NonPositiveInputError,
)

DEFAULT_GRID_N = 33
DEFAULT_CONVEXITY_TOL = 1e-10  # log-scale slack tolerance
MAX_GRID_N = 512


@dataclass(frozen=True)
class FunctionSpec:
    """One member of the scalar function library.

    ``domain`` is the declared positivity interval (lo, hi); ``closed_lo``
    marks lo itself as included (used by polynomials with a positive constant
    term). Use the classmethod constructors rather than instantiating directly.
    """

    kind: str
    params: tuple[float, ...]
    lo: float
    hi: float
    closed_lo: bool = False

    @classmethod
    def exp(cls, c: float = 1.0) -> "FunctionSpec":
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainViolationError(f"exp scale must be positive and finite, got {c}")
        return cls("exp", (float(c),), -math.inf, math.inf)

    @classmethod
    def power(cls, r: float) -> "FunctionSpec":
        if not math.isfinite(r):
            raise DomainViolationError(f"power exponent must be finite, got {r}")
        return cls("power", (float(r),), 0.0, math.inf)

    @classmethod
    def poly(cls, coeffs, domain: tuple[float, float] | None = None) -> "FunctionSpec":
        cs = tuple(float(c) for c in coeffs)
        if not cs or any(c < 0.0 or not math.isfinite(c) for c in cs) or all(c == 0.0 for c in cs):
            raise DomainViolationError(
                f"polynomial needs nonnegative coefficients, not all zero, got {coeffs}"
            )
        if domain is not None:
            lo, hi = float(domain[0]), float(domain[1])
            if not lo < hi:
                raise DomainViolationError(f"empty domain ({lo}, {hi})")
            return cls("poly", cs, lo, hi)
        if cs[0] > 0.0:
            return cls("poly", cs, 0.0, math.inf, closed_lo=True)
        return cls("poly", cs, 0.0, math.inf)

    @classmethod
    def inverse(cls) -> "FunctionSpec":
        return cls("inverse", (), 0.0, math.inf)

    @classmethod
    def identity(cls) -> "FunctionSpec":
        return cls("identity", (), 0.0, math.inf)

    # -- evaluation ------------------------------------------------------

    def defined_at(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of points where evaluation is well defined."""
        x = np.asarray(x, dtype=float)
        if self.kind in ("exp", "poly", "identity"):
            return np.isfinite(x)
        if self.kind == "inverse":
            return np.isfinite(x) & (x > 0.0)
        r = self.params[0]
        if r == round(r) and r >= 0.0:
            return np.isfinite(x)
        if r > 0.0:
            return np.isfinite(x) & (x >= 0.0)
        return np.isfinite(x) & (x > 0.0)

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; raises if any point is outside definedness."""
        x = np.asarray(x, dtype=float)
        ok = self.defined_at(x)
        if not ok.all():
            bad = x[~ok]
            raise DomainViolationError(
                f"{self.describe()} undefined at x={bad.flat[0]!r}"
            )
        if self.kind == "exp":
            return np.exp(self.params[0] * x)
        if self.kind == "power":
            return np.power(x, self.params[0])
        if self.kind == "poly":
            acc = np.zeros_like(x)
            for c in reversed(self.params):
                acc = acc * x + c
            return acc
        if self.kind == "inverse":
            return 1.0 / x
        return x.copy()  # identity

    def __call__(self, x: float) -> float:
        return float(self.eval_array(np.asarray([x]))[0])

    # -- misc ------------------------------------------------------------

    def contains_interval(self, a: float, b: float) -> bool:
        """Whether the finite interval [a, b] sits inside the positivity domain."""
        lo_ok = a >= self.lo if self.closed_lo else a > self.lo
        return lo_ok and b < self.hi

    def describe(self) -> str:
        if self.kind in ("exp", "power"):
            return f"{self.kind}:{exact_g(self.params[0])}"
        if self.kind == "poly":
            return "poly:" + ",".join(exact_g(c) for c in self.params)
        return self.kind


def exact_g(x: float) -> str:
    """x in the ``g`` format when that reads back as x, else as the shortest
    text that does."""
    short = format(x, "g")
    return short if float(short) == x else repr(float(x))


def parse_function(text: str) -> FunctionSpec:
    """CLI shorthand parser: exp:c | power:r | poly:c0,c1,... | inverse | identity."""
    name, _, arg = text.strip().partition(":")
    try:
        if name == "exp":
            return FunctionSpec.exp(float(arg) if arg else 1.0)
        if name == "power":
            return FunctionSpec.power(float(arg))
        if name == "poly":
            return FunctionSpec.poly([float(c) for c in arg.split(",")])
        if name == "inverse" and not arg:
            return FunctionSpec.inverse()
        if name == "identity" and not arg:
            return FunctionSpec.identity()
    except (ValueError, DomainViolationError) as e:
        raise ConfigError(f"bad function spec {text!r}: {e}") from e
    raise ConfigError(f"unknown function spec {text!r}")


@dataclass(frozen=True)
class ConvexityVerdict:
    """Grid-supported verdict. ``slack`` is the minimum, over all tested
    triples, of (allowed right side - left side) in log scale; the verdict
    holds iff slack >= -tol. ``worst_triple`` is the (x, y, lambda) attaining
    it first in the scan's order. For a row that ``scan_block`` settles that
    is a trivial triple (lambda = 0, or x = y), whose exact slack is 0, so
    slack is the scan's rounding there, whether or not it was scanned in
    full."""

    holds: bool
    worst_triple: tuple[float, float, float]
    slack: float


# float64 entries per block of a stacked intermediate: fine grids, quadrature
# samples and norm curves of several trials are built in blocks of whole
# trials (or of whole points, when one trial alone holds more) of at most
# this many entries, which keeps each block's temporaries small
STACK_ENTRIES = 1 << 14


def _blocks(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices covering range(count), each of whole items of
    entries_each entries and at most STACK_ENTRIES entries in all (one item
    when an item alone holds more)."""
    size = max(1, STACK_ENTRIES // max(1, entries_each))
    return [slice(i, i + size) for i in range(0, count, size)]


# Triples per block of the fine-grid scan: whole lambda slices of (g+1)**2
# triples each, at least one slice per block.
_SCAN_BLOCK = 1 << 16


# The default grid needs one entry (157 KB); at MAX_GRID_N an entry is one
# 2 MB slice, so 8 entries keep what the cache holds near 17 MB.
@functools.lru_cache(maxsize=8)
def _scan_block_index(g: int, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights k and g-k of the slices k0 <= k < k1, as (K, 1) columns, and the
    fine index k*i + (g-k)*j of every triple (k, i, j), shape (K, g+1, g+1).
    Cached, so the arrays are shared and read-only."""
    k = np.arange(k0, k1).reshape(-1, 1)
    idx = np.arange(g + 1)
    index = k[:, :, None] * idx[:, None] + (g - k)[:, :, None] * idx
    out = (k, g - k, index)
    for a in out:
        a.flags.writeable = False
    return out


def _scan_fine_grid(
    fine_logs: np.ndarray,
    witness_points: np.ndarray,
    grid_n: int,
    tol: float,
) -> ConvexityVerdict:
    """Convexity scan of log-values on an arithmetic fine grid.

    ``fine_logs[m]`` is log f at fine index m (m = 0..grid_n**2); coarse grid
    point i sits at fine index i*grid_n, so the combination with
    lambda = k/grid_n lands exactly at index k*i + (grid_n-k)*j. The slack of
    triple (k, i, j) is ``(k*c_i + (g-k)*c_j) / g - fine_logs[k*i + (g-k)*j]``
    with c the coarse log-values, and the verdict reports the first minimum in
    k-major, then i, then j order.

    Only k <= g//2 is scanned. The twin triple (g-k, j, i) reads the same fine
    index and adds the same two products in the other order, and IEEE
    addition commutes, so its slack has the same bits; a twin with k > g//2
    therefore always comes after an equal value, and the first minimum of the
    full order lies in the prefix k <= g//2. The prefix is scanned in blocks
    of whole k slices, at most ``_SCAN_BLOCK`` triples each (one slice when a
    slice alone is larger): one vectorized pass and one argmin per block, and
    a block replaces the running minimum only when strictly smaller, which
    keeps the tie rule. The arithmetic is the per-triple formula above,
    operation for operation, so slack and worst triple are bit-exact.
    """
    g = grid_n
    n = g + 1
    coarse = fine_logs[::g]
    per_block = max(1, _SCAN_BLOCK // (n * n))
    best = math.inf
    best_ijk = (0, 0, 0)
    for k0 in range(0, g // 2 + 1, per_block):
        k1 = min(k0 + per_block, g // 2 + 1)
        k, gk, index = _scan_block_index(g, k0, k1)
        slack = (k * coarse)[:, :, None] + (gk * coarse)[:, None, :]
        slack /= g
        slack -= fine_logs[index]
        pos = int(np.argmin(slack))
        if slack.flat[pos] < best:
            best = float(slack.flat[pos])
            best_ijk = ((pos // n) % n, pos % n, k0 + pos // (n * n))
    i, j, k = best_ijk
    worst = (float(witness_points[i * g]), float(witness_points[j * g]), k / g)
    return ConvexityVerdict(holds=best >= -tol, worst_triple=worst, slack=best)


def _scan_midpoint_only(
    coarse_logs: np.ndarray,
    mid_logs: np.ndarray,
    witness_points: np.ndarray,
    tol: float,
) -> ConvexityVerdict:
    """lambda = 1/2 variant; ``mid_logs[i, j]`` is log f at the midpoint of i, j."""
    slack = 0.5 * (coarse_logs[:, None] + coarse_logs[None, :]) - mid_logs
    pos = int(np.argmin(slack))
    n = coarse_logs.shape[0]
    i, j = pos // n, pos % n
    best = float(slack.flat[pos])
    worst = (float(witness_points[i]), float(witness_points[j]), 0.5)
    return ConvexityVerdict(holds=best >= -tol, worst_triple=worst, slack=best)


def _positive_logs(f: FunctionSpec, points: np.ndarray) -> np.ndarray:
    vals = f.eval_array(points)
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        raise DomainViolationError(
            f"{f.describe()} is not strictly positive at x={points[bad][0]!r}"
        )
    return np.log(vals)


def _check_grid_n(grid_n: int) -> int:
    """grid_n as a Python int. Any integral type is accepted (numpy integers
    too), bool is not."""
    try:
        g = operator.index(grid_n)
    except TypeError:
        g = None
    if g is None or isinstance(grid_n, bool) or not 3 <= g <= MAX_GRID_N:
        raise DomainViolationError(f"grid_n must be an integer in [3, {MAX_GRID_N}], got {grid_n}")
    return g


def is_ag_convex(
    f: FunctionSpec,
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_CONVEXITY_TOL,
) -> ConvexityVerdict:
    """Grid test of AG-convexity (log-convexity) of f on [a, b]."""
    return _checked_verdict(f, a, b, False, grid_n, tol)


def is_gg_convex(
    f: FunctionSpec,
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_CONVEXITY_TOL,
) -> ConvexityVerdict:
    """Grid test of GG-convexity of f on [a, b], 0 < a < b.

    Runs the same scan as the AG test but on a geometric grid: convexity of
    u -> log f(exp(u)) on [log a, log b].
    """
    return _checked_verdict(f, a, b, True, grid_n, tol)


def _checked_verdict(
    f: FunctionSpec, a: float, b: float, gg: bool, grid_n: int, tol: float
) -> ConvexityVerdict:
    """is_gg_convex (gg) or is_ag_convex: the grid, the interval and the
    domain checked in that order, then the one-interval scan."""
    grid_n = _check_grid_n(grid_n)
    if gg and not (a > 0.0 and b > 0.0):
        raise NonPositiveInputError(f"GG-convexity needs positive endpoints, got [{a}, {b}]")
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got [{a}, {b}]")
    if not f.contains_interval(a, b):
        raise DomainViolationError(
            f"[{a}, {b}] outside the positivity domain of {f.describe()}"
        )
    ends = np.array([a], dtype=float), np.array([b], dtype=float)
    return convexity_verdicts(f, *ends, gg, grid_n, tol)[0]


def _fine_grids(f: FunctionSpec, lo: np.ndarray, hi: np.ndarray, gg: bool, grid_n: int):
    """(log f, points) of the fine grids of the intervals [lo[t], hi[t]] of
    two (T,) arrays, in blocks of whole grids of at most STACK_ENTRIES entries,
    built as for one interval (math.log for the geometric endpoints, as np.log
    can differ in the last bit); a block raises a domain error when built."""
    m = grid_n * grid_n
    steps = np.arange(m + 1, dtype=float)  # the integer steps, exactly
    for sl in _blocks(lo.shape[0], m + 1):
        if gg:
            pairs = zip(lo[sl].tolist(), hi[sl].tolist())
            ends = np.array([[math.log(x), math.log(y)] for x, y in pairs])
            a, b = ends[:, :1], ends[:, 1:]
        else:
            a, b = lo[sl, None], hi[sl, None]
        fine = a + (b - a) * steps / m
        if gg:
            fine = np.exp(fine)
        yield _positive_logs(f, fine), fine


def convexity_verdicts(
    f: FunctionSpec, lo: np.ndarray, hi: np.ndarray, gg: bool, grid_n: int, tol: float
) -> list[ConvexityVerdict]:
    """is_ag_convex (gg: is_gg_convex) of f on each interval [lo[t], hi[t]]
    of two (T,) arrays, whose checks the caller has made."""
    grids = _fine_grids(f, lo, hi, gg, grid_n)
    return [v for logs, xs in grids for v in scan_block(logs, xs, grid_n, tol)]


def convexity_holds(
    f: FunctionSpec, lo: np.ndarray, hi: np.ndarray, gg: bool, grid_n: int, tol: float
) -> list[bool]:
    """The holds bits of convexity_verdicts(f, lo, hi, gg, grid_n, tol), with
    its grids and errors; a row that _certified settles is not scanned, and
    the others go through scan_block with the same second-difference pass."""
    out = []
    for logs, xs in _fine_grids(f, lo, hi, gg, grid_n):
        second = _second_pass(logs)
        holds = _certified(logs, grid_n, tol, second)
        rest = np.flatnonzero(~holds)
        if rest.size:
            verdicts = scan_block(logs[rest], xs[rest], grid_n, tol, [a[rest] for a in second])
            holds[rest] = [v.holds for v in verdicts]
        out += holds.tolist()
    return out


# a row whose every computed second difference is at least _SETTLE * u * max|F|
# is settled by scan_block from its trivial triples (the proof needs > 19)
_SETTLE = 32.0


def _second_pass(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one second-difference pass over the rows F of logs: each row's
    Fmax = max|F|, its min|F|, and its smallest computed second difference
    fl(fl(F[m-1] + F[m+1]) - 2F[m])."""
    absf = np.abs(logs)
    second = ((logs[:, :-2] + logs[:, 2:]) - 2.0 * logs[:, 1:-1]).min(axis=1)
    return absf.max(axis=1), absf.min(axis=1), second


def scan_block(
    logs: np.ndarray, points: np.ndarray, grid_n: int, tol: float, second=None
) -> list[ConvexityVerdict]:
    """_scan_fine_grid(logs[t], points[t], grid_n, tol) of each row t of the
    (T, M + 1) log rows of a block, M = grid_n**2, bit for bit; points is
    (T, M + 1) or one (M + 1,) grid for every row, and second the rows'
    _second_pass when the caller has made it.

    A row with every |F| in [2**-54, 2**1000] (inside _certified's range,
    so every step rounds with relative error at most u = 2**-53) and every
    computed second difference at least _SETTLE u Fmax, Fmax = max|F|, is
    settled from its trivial triples, the k = 0 slice and the diagonal
    i = j, whose exact slacks are 0. Each computed second difference is
    within 2u Fmax + u (4 + 2u) Fmax < 7u Fmax
    of exact, so the smallest exact one is d >= (_SETTLE - 7) u Fmax > 0.
    Then G(m) = F(m) - d m**2 / 2 has second differences >= 0 and lies below
    its chords, so the exact slack of (k, i, j) is at least d/2 times the
    chord gap of m**2, (d/2) k (g-k) (i-j)**2 >= d (g-1)/2 >= 25u Fmax for a
    non-trivial triple (1 <= k <= g//2, i != j, g >= 3). Every computed slack
    is within 6u Fmax of exact (see _certified): a non-trivial one is at
    least 19u Fmax, a trivial one at most 6u Fmax. So the scan's first
    minimum, its slack bits, its worst triple and holds all come from a
    trivial triple, and only those are scanned, in the scan's (k, i, j)
    order and with its per-element arithmetic. Every other row goes through
    _scan_fine_grid.
    """
    g, n, u = grid_n, grid_n + 1, 2.0**-53
    fmax, fmin, dmin = _second_pass(logs) if second is None else second
    settled = (fmin >= 2.0**-54) & (fmax <= 2.0**1000) & (dmin >= _SETTLE * u * fmax)
    points = np.broadcast_to(points, logs.shape)
    out: list = [None] * logs.shape[0]
    for t in np.flatnonzero(~settled).tolist():
        out[t] = _scan_fine_grid(logs[t], points[t], g, tol)
    rows = np.flatnonzero(settled)
    if rows.size == 0:
        return out
    coarse = logs[rows, None, ::g]  # (R, 1, n)
    k, gk, index = _scan_block_index(g, 0, 1)
    edge = (k * coarse)[..., :, None] + (gk * coarse)[..., None, :]
    edge /= g
    edge -= logs[rows][:, index]
    kd = np.arange(1, g // 2 + 1).reshape(-1, 1)
    diag = kd * coarse + (g - kd) * coarse
    diag /= g
    diag -= coarse
    slack = np.concatenate([edge.reshape(rows.size, -1), diag.reshape(rows.size, -1)], axis=1)
    pos = slack.argmin(axis=1)
    best = slack[np.arange(rows.size), pos]
    for t, p, s in zip(rows.tolist(), pos.tolist(), best.tolist()):
        if p < n * n:
            i, j, kk = p // n, p % n, 0
        else:
            i = j = (p - n * n) % n
            kk = 1 + (p - n * n) // n
        worst = (float(points[t, i * g]), float(points[t, j * g]), kk / g)
        out[t] = ConvexityVerdict(holds=s >= -tol, worst_triple=worst, slack=s)
    return out


def _certified(logs: np.ndarray, grid_n: int, tol: float, second=None) -> np.ndarray:
    """Whether _scan_fine_grid(row, _, grid_n, tol).holds is sure, for each
    row F[0..M], M = grid_n**2, of logs (|F| in {0} u [2**-54, 2**1000], as
    for logs of doubles, so every step rounds with relative error at most
    u = 2**-53); Fmax = max|F|, second the rows' _second_pass if made. The
    scan's slack fl(fl(fl(k c_i) + fl((g-k) c_j)) / g - F_m), c_i = F[ig],
    m = ki + (g-k)j, is within 6u Fmax of exact (k + (g-k) = g: the sum is
    within 2u g Fmax, the quotient 3u Fmax).
    (A) b = fl((F[M] - F[0]) / M) and d_m = fl(F_m - fl(F[0] + fl(b m))) give
    e = max|d| (1 + 2u) + 4u (Fmax + |b| M) >= |F_m - l(m)| for the real
    affine l(m) = F[0] + b m; its chord over (k, i, j) meets l at m, so every
    exact slack is at least -2e. (B) If every fl(fl(F[m-1] + F[m+1]) - 2F[m])
    >= 8u Fmax, every exact second difference is at least 0, F lies below its
    chords, and every exact slack is at least 0. Certified rows pass (A) with
    2e + 8u Fmax <= tol/2 or (B) with 8u Fmax <= tol/2, so every computed
    slack is at least -tol, the halved tol covering the test's own rounding.
    """
    u, m = 2.0**-53, grid_n * grid_n
    fmax, _, dmin = _second_pass(logs) if second is None else second
    slope = (logs[:, m] - logs[:, 0]) / m
    dev = logs - (logs[:, :1] + slope[:, None] * np.arange(m + 1, dtype=float))
    eps = np.abs(dev).max(axis=1) * (1.0 + 2.0 * u) + 4.0 * u * (fmax + np.abs(slope) * m)
    floor = 8.0 * u * fmax
    convex = (dmin >= floor) & (floor <= tol / 2)
    return convex | (2.0 * eps + floor <= tol / 2)


def ag_gg_transport_check(
    f: FunctionSpec,
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_CONVEXITY_TOL,
) -> bool:
    """AG-convexity of f on [a, b] should match GG-convexity of f(log .) on
    [exp a, exp b]; returns whether the two grid verdicts agree."""
    ag = is_ag_convex(f, a, b, grid_n, tol)
    # scan f(log x) on a geometric grid of [e^a, e^b] without a composed spec:
    # the u-grid of that scan is exactly the arithmetic grid of [a, b].
    m = grid_n * grid_n
    fine_x = np.exp(a + (b - a) * np.arange(m + 1) / m)
    logs = _positive_logs_of_composed(f, fine_x)
    gg = _scan_fine_grid(logs, fine_x, grid_n, tol)
    return ag.holds == gg.holds


def _positive_logs_of_composed(f: FunctionSpec, xs: np.ndarray) -> np.ndarray:
    vals = f.eval_array(np.log(xs))
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        raise DomainViolationError(
            f"{f.describe()}(log x) not strictly positive at x={xs[bad][0]!r}"
        )
    return np.log(vals)


MEAN_CHAIN_NAMES = ("min", "geometric", "logarithmic", "arithmetic", "max")


def scalar_mean_chain(a: float, b: float) -> tuple[float, float, float, float, float]:
    """(min, G, L, A, max) for positive a, b; the five are nondecreasing.

    L is the logarithmic mean, extended by continuity to L(a, a) = a.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise NonPositiveInputError(f"means need positive finite inputs, got ({a}, {b})")
    if a == b:
        return (a, a, a, a, a)
    lo, hi = min(a, b), max(a, b)
    g = math.sqrt(a * b)
    log_mean = (hi - lo) / (math.log(hi) - math.log(lo))
    arith = 0.5 * (a + b)
    return (lo, g, log_mean, arith, hi)
