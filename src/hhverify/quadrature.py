"""Gauss-Legendre quadrature for chain integrals.

Nodes are Legendre roots found by Newton iteration on the three-term
recurrence (no library quadrature is used here; the test suite cross-checks
against an independent implementation). Rules are cached per node count.

Every integral that feeds a reported chain term goes through the ``*_checked``
variants, which re-integrate at twice the node count and flag the result as
unreliable when the two values disagree beyond ``DOUBLING_TOL``; unreliable
chains are counted separately rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimMismatchError, NodeCountError, NonFiniteSampleError

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


def _agrees(v1, v2) -> bool:
    """The doubling check: the Frobenius norm of the raveled difference of
    the n- and 2n-node results is at most DOUBLING_TOL times 1 + the norm of
    the n-node result."""
    resid = float(np.linalg.norm(np.ravel(v1 - v2)))
    return resid <= DOUBLING_TOL * (1.0 + float(np.linalg.norm(np.ravel(v1))))


def _checked(integrate, g, a: float, b: float, n: int):
    """``integrate`` at n nodes, and whether it agrees with 2n nodes (n at most
    MAX_NODES // 2)."""
    v1 = integrate(g, a, b, n)
    v2 = integrate(g, a, b, 2 * n)
    return v1, _agrees(v1, v2)


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

    ``g`` takes the node array and returns the (T, m, m) stack of its samples.
    The weighted samples are added one node at a time, in node order, and a
    non-finite sample is an error that names its node.
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


def _contract(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The weights w of n nodes contracted with the (n, ...) samples s: the
    (1, n) . (n, k) dot that np.tensordot(w, s, axes=(0, 0)) makes, without
    its axis bookkeeping, so the same bits."""
    return np.dot(w.reshape(1, -1), s.reshape(s.shape[0], -1)).reshape(s.shape[1:])


def _integrate_stack(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int
) -> np.ndarray:
    return _contract(*_samples(g, a, b, n))


def integrate_stack_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[np.ndarray, bool]:
    """Integral of a vectorized integrand returning one stacked sample block.

    ``g`` takes the full node array and returns an array whose leading axis
    indexes nodes; the result is the weight-contracted sample (scalar shape
    () for scalar integrands, (k,) for vector ones, (m, m) for matrices).
    Degenerate intervals integrate to a zero block probed from ``g``.
    """
    if a == b:
        return np.zeros(np.asarray(g(np.asarray([a])), dtype=float).shape[1:]), True
    return _checked(_integrate_stack, g, a, b, n)


def _integrate_trials(g, a: np.ndarray, b: np.ndarray, n: int) -> list[np.ndarray]:
    ws, samples = _samples(g, a, b, n)
    # one contraction per trial, on its contiguous (n, ...) slice: a single
    # contraction over the stack, or a strided slice, can round differently
    return list(map(_contract, ws, samples))


def integrate_trials_checked(
    g: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, n: int = 64
) -> tuple[list[np.ndarray], list[bool]]:
    """integrate_stack_checked for T integrands at once, on the intervals
    [a[t], b[t]] of two (T,) arrays with a < b.

    ``g`` takes the (T, n) array of every trial's nodes and returns the
    (T, n, ...) stack of their samples. Returns the T integrals and the T
    doubling flags, each equal bit for bit to integrate_stack_checked on the
    trial alone.
    """
    a, b = a[:, None], b[:, None]
    v1 = _integrate_trials(g, a, b, n)
    v2 = _integrate_trials(g, a, b, 2 * n)
    return v1, list(map(_agrees, v1, v2))
