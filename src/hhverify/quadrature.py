"""Gauss-Legendre quadrature for chain integrals.

Nodes are Legendre roots found by Newton iteration on the three-term
recurrence (no library quadrature is used here; the test suite cross-checks
against an independent implementation). Rules are cached per node count.

Every integral that feeds a reported chain term goes through the ``*_checked``
variants, which re-integrate at twice the node count and flag the result as
unreliable when the two values disagree beyond ``DOUBLING_TOL``; unreliable
chains are counted separately rather than failed.

One integrator takes stacked integrands: integrate_trials_checked integrates
T rows, cuts them itself into blocks under functions.STACK_ENTRIES, and
contracts and doubling-checks each block with one batched matmul, which
gives every row the bits it has alone; integrate_stack_checked is it on one
row. integrate_matrix integrates a stack of trials node by node, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimMismatchError, NodeCountError, NonFiniteSampleError
from .functions import _blocks

MAX_NODES = 512

# |I(n) - I(2n)| <= DOUBLING_TOL * (1 + |I(n)|) or the chain is marked unreliable
DOUBLING_TOL = 1e-9


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, for x strictly inside (-1, 1)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def gl_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes, 1 <= n <= 512.

    Newton iteration from the Chebyshev initial guess; weights are
    2 / ((1 - x^2) P_n'(x)^2). Nodes come out ascending and are symmetrized
    so the rule is exactly antisymmetric.
    """
    if not isinstance(n, int) or n < 1 or n > MAX_NODES:
        raise NodeCountError(f"node count must be an integer in [1, {MAX_NODES}], got {n}")

    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break

    _, dp = _legendre_pair(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x = 0.5 * (x - x[::-1])  # enforce exact antisymmetry
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(n=n, nodes=x, weights=w)


def _mapped_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * rule.nodes, half * rule.weights


def _samples(g: Callable[[np.ndarray], np.ndarray], a, b, n: int):
    """Weights and samples of ``g`` on the n-node rule of [a, b]: ``g`` takes
    the node array and returns its samples stacked on the leading axes of
    the nodes. For (T, 1) columns of endpoints a and b the nodes and weights
    are (T, n), one row per interval. A non-finite sample is an error that
    names its first node."""
    xs, ws = _mapped_nodes(a, b, n)
    samples = np.asarray(g(xs), dtype=float)
    if samples.shape[: xs.ndim] != xs.shape:
        raise DimMismatchError(
            f"integrand returned shape {samples.shape} for {xs.shape[-1]} nodes"
        )
    if not np.isfinite(samples).all():
        bad = np.argmin(np.isfinite(samples.reshape(xs.size, -1)).all(axis=1))
        raise NonFiniteSampleError(f"integrand non-finite at node t={xs.flat[bad]!r}")
    return ws, samples


def _row_norms(d: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each row of an (R, ...) stack, as the sqrt of one
    batched d . d^T matmul: the dot np.linalg.norm(np.ravel(row)) takes, so
    the same bits."""
    flat = d.reshape(d.shape[0], 1, -1)
    return np.sqrt(flat @ np.swapaxes(flat, 1, 2)).reshape(-1)


def _agrees(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The doubling check of each row of the (R, ...) n- and 2n-node results:
    the norm of the difference is at most DOUBLING_TOL times 1 + the norm of
    the n-node result."""
    return _row_norms(v1 - v2) <= DOUBLING_TOL * (1.0 + _row_norms(v1))


def _checked(integrate, g, a: float, b: float, n: int):
    """``integrate`` at n nodes, and whether it agrees with 2n nodes (n at most
    MAX_NODES // 2)."""
    v1 = integrate(g, a, b, n)
    v2 = integrate(g, a, b, 2 * n)
    return v1, bool(_agrees(np.asarray(v1)[None], np.asarray(v2)[None])[0])


def integrate_scalar(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64) -> float:
    """Integral of ``g`` over [a, b]; ``g`` must accept a node array.

    Degenerate intervals integrate to 0. Non-finite samples are an error that
    names the offending node.
    """
    if a == b:
        return 0.0
    ws, vals = _samples(g, a, b, n)
    if vals.ndim != 1:
        raise DimMismatchError(f"scalar integrand returned shape {vals.shape}")
    return float(ws @ vals)


def integrate_matrix(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> np.ndarray:
    """Entrywise integral of a matrix-valued ``g`` over [a, b].

    ``g`` takes the node array and returns its samples, node axis first: (N,
    m, m), or (N, T, m, m) for a stack of T trials. The weighted samples are
    added one node at a time, in node order, so each trial keeps the bits it
    has alone; a non-finite sample is an error that names its node.
    """
    if a == b:
        return np.zeros(np.asarray(g(np.asarray([a])), dtype=float).shape[1:])
    ws, samples = _samples(g, a, b, n)
    total = np.zeros(samples.shape[1:])
    for w, sample in zip(ws, samples):
        total += w * sample
    return total


def integrate_scalar_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[float, bool]:
    """Integral plus a doubling-check reliability flag."""
    return _checked(integrate_scalar, g, a, b, n)


def integrate_matrix_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[np.ndarray, bool]:
    """Matrix integral plus a doubling-check flag (Frobenius comparison)."""
    return _checked(integrate_matrix, g, a, b, n)


def integrate_stack_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[np.ndarray, bool]:
    """Integral of a vectorized integrand returning one stacked sample block.

    ``g`` takes the full node array and returns an array whose leading axis
    indexes nodes; the result is the weight-contracted sample (scalar shape
    () for scalar integrands, (k,) for vector ones, (m, m) for matrices).
    It is integrate_trials_checked on one row. Degenerate intervals
    integrate to a zero block probed from ``g``.
    """
    if a == b:
        return np.zeros(np.asarray(g(np.asarray([a])), dtype=float).shape[1:]), True
    (value,), (ok,) = integrate_trials_checked(
        lambda sl, xs: np.asarray(g(xs[0]))[None],
        np.array([a], dtype=float), np.array([b], dtype=float), n,
    )
    return value, ok


def _integrate_trials(g, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    ws, samples = _samples(g, a, b, n)
    # one (1, n) . (n, k) product per row, on its contiguous slice: the bits of
    # np.tensordot(w, s, axes=(0, 0)) on the row alone; a single contraction
    # over the whole stack, or a strided slice, can round differently
    flat = np.ascontiguousarray(samples).reshape(samples.shape[0], n, -1)
    return np.matmul(ws[:, None, :], flat).reshape(samples.shape[:1] + samples.shape[2:])


def integrate_trials_checked(
    g: Callable[[slice, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, n: int = 64,
    node_entries: int = 1,
) -> tuple[np.ndarray, list[bool]]:
    """The (T, ...) integrals of T integrands, on the intervals [a[t], b[t]]
    of two (T,) arrays with a < b, and their doubling flags.

    ``g(sl, xs)`` maps the (R, n) nodes xs of the rows sl to the (R, n, ...)
    stack of their samples, node_entries entries per node. The rows are
    taken in blocks of whole rows of at most STACK_ENTRIES entries at 2n
    nodes (one row when a row alone holds more), and every row is
    contracted and checked as if alone, so a row's integral and flag have
    the same bits in any block, a block of one included.
    """
    values, flags = [], []
    for sl in _blocks(a.shape[0], 2 * n * node_entries):
        lo, hi = a[sl, None], b[sl, None]
        v1 = _integrate_trials(lambda xs: g(sl, xs), lo, hi, n)
        v2 = _integrate_trials(lambda xs: g(sl, xs), lo, hi, 2 * n)
        values.append(v1)
        flags += _agrees(v1, v2).tolist()
    return np.concatenate(values), flags
