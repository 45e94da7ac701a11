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


def integrate_scalar(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64) -> float:
    """Integral of ``g`` over [a, b]; ``g`` must accept a node array.

    Degenerate intervals integrate to 0. Non-finite samples are an error that
    names the offending node.
    """
    if a == b:
        return 0.0
    xs, ws = _mapped_nodes(a, b, n)
    vals = np.asarray(g(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DimMismatchError(
            f"integrand returned shape {vals.shape} for {xs.shape[0]} nodes"
        )
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NonFiniteSampleError(f"integrand non-finite at node t={xs[bad][0]!r}")
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
        probe = np.asarray(g(np.asarray([a])), dtype=float)
        return np.zeros(probe.shape[1:])
    xs, ws = _mapped_nodes(a, b, n)
    samples = np.asarray(g(xs), dtype=float)
    if samples.shape[0] != xs.shape[0]:
        raise DimMismatchError(
            f"stacked integrand returned leading axis {samples.shape[0]} "
            f"for {xs.shape[0]} nodes"
        )
    total = np.zeros(samples.shape[1:])
    for t, w, sample in zip(xs, ws, samples):
        if not np.isfinite(sample).all():
            raise NonFiniteSampleError(f"matrix integrand non-finite at node t={t!r}")
        total += w * sample
    return total


def integrate_scalar_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[float, bool]:
    """Integral plus a doubling-check reliability flag."""
    v1 = integrate_scalar(g, a, b, n)
    v2 = integrate_scalar(g, a, b, min(2 * n, MAX_NODES))
    reliable = abs(v1 - v2) <= DOUBLING_TOL * (1.0 + abs(v1))
    return v1, reliable


def integrate_matrix_checked(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 64
) -> tuple[np.ndarray, bool]:
    """Matrix integral plus a doubling-check flag (Frobenius comparison)."""
    v1 = integrate_matrix(g, a, b, n)
    v2 = integrate_matrix(g, a, b, min(2 * n, MAX_NODES))
    resid = float(np.linalg.norm(v1 - v2))
    reliable = resid <= DOUBLING_TOL * (1.0 + float(np.linalg.norm(v1)))
    return v1, reliable


def _integrate_stack(
    g: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int
) -> np.ndarray:
    xs, ws = _mapped_nodes(a, b, n)
    samples = np.asarray(g(xs), dtype=float)
    if samples.shape[0] != xs.shape[0]:
        raise DimMismatchError(
            f"stacked integrand returned leading axis {samples.shape[0]} "
            f"for {xs.shape[0]} nodes"
        )
    if not np.isfinite(samples).all():
        bad = np.where(~np.isfinite(samples.reshape(xs.shape[0], -1)).all(axis=1))[0][0]
        raise NonFiniteSampleError(f"stacked integrand non-finite at node t={xs[bad]!r}")
    return np.tensordot(ws, samples, axes=(0, 0))


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
        probe = np.asarray(g(np.asarray([a])), dtype=float)
        return np.zeros(probe.shape[1:]), True
    v1 = _integrate_stack(g, a, b, n)
    v2 = _integrate_stack(g, a, b, min(2 * n, MAX_NODES))
    resid = float(np.linalg.norm(np.ravel(v1 - v2)))
    reliable = resid <= DOUBLING_TOL * (1.0 + float(np.linalg.norm(np.ravel(v1))))
    return v1, reliable
