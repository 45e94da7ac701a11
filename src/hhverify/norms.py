"""Unitarily invariant norms and trace utilities.

A norm is identified by a small spec: Schatten p (p >= 1, p = inf meaning the
operator norm), the Ky Fan k-norms, and the named aliases ``opnorm`` and
``tracenorm``. All of them are symmetric gauge functions of the singular
values, which is the invariance the checks in this package rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    NotSquareError,
    SchattenOrderError,
)
from .linalg import check_matrix


@dataclass(frozen=True)
class NormSpec:
    kind: str
    params: tuple = field(default_factory=tuple)

    @staticmethod
    def schatten(p: float) -> "NormSpec":
        if not (p >= 1.0):
            raise SchattenOrderError(f"Schatten order must be >= 1, got {p}")
        return NormSpec(kind="schatten", params=(float(p),))

    @staticmethod
    def opnorm() -> "NormSpec":
        return NormSpec(kind="schatten", params=(math.inf,))

    @staticmethod
    def tracenorm() -> "NormSpec":
        return NormSpec(kind="schatten", params=(1.0,))

    @staticmethod
    def kyfan(k: int) -> "NormSpec":
        if not (isinstance(k, int) and k >= 1):
            raise SchattenOrderError(f"Ky Fan order must be an integer >= 1, got {k}")
        return NormSpec(kind="kyfan", params=(k,))

    def describe(self) -> str:
        if self.kind == "kyfan":
            return f"kyfan:{self.params[0]}"
        p = self.params[0]
        if p == math.inf:
            return "opnorm"
        if p == 1.0:
            return "tracenorm"
        return f"schatten:{p:g}"

    def of_singular_values(self, s: np.ndarray):
        """Evaluate the gauge on a descending singular-value vector.

        A (T, n) array of such vectors gives the array of their T gauges, each
        equal bit for bit to the gauge of its row alone.
        """
        if s.ndim == 2:
            return self._of_rows(s)
        if self.kind == "kyfan":
            k = min(self.params[0], s.shape[-1])
            return float(np.sum(s[:k]))
        p = self.params[0]
        if p == math.inf:
            return float(s[0]) if s.size else 0.0
        if p == 1.0:
            return float(np.sum(s))
        if p == 2.0:
            return float(math.sqrt(np.sum(s * s)))
        return float(np.sum(np.power(s, p)) ** (1.0 / p))

    def _of_rows(self, s: np.ndarray) -> np.ndarray:
        if self.kind == "kyfan":
            return np.sum(s[:, : min(self.params[0], s.shape[1])], axis=1)
        p = self.params[0]
        if p == math.inf:
            return s[:, 0]
        if p == 1.0:
            return np.sum(s, axis=1)
        if p == 2.0:
            return np.sqrt(np.sum(s * s, axis=1))
        # the root is taken one value at a time: the array power of numpy can
        # differ from the scalar one in the last bit
        sums = np.sum(np.power(s, p), axis=1)
        return np.array([x ** (1.0 / p) for x in sums.tolist()])


def parse_norm(text: str) -> NormSpec:
    """Parse ``opnorm``, ``tracenorm``, ``schatten:p``, or ``kyfan:k``."""
    t = text.strip().lower()
    if t == "opnorm":
        return NormSpec.opnorm()
    if t == "tracenorm":
        return NormSpec.tracenorm()
    if t.startswith("schatten:"):
        raw = t.split(":", 1)[1]
        try:
            p = math.inf if raw in ("inf", "infinity") else float(raw)
        except ValueError:
            raise ConfigError(f"bad Schatten order {raw!r}") from None
        if math.isnan(p):
            raise ConfigError(f"bad Schatten order {raw!r}")
        try:
            return NormSpec.schatten(p) if p != math.inf else NormSpec.opnorm()
        except SchattenOrderError as e:
            raise ConfigError(str(e)) from None
    if t.startswith("kyfan:"):
        raw = t.split(":", 1)[1]
        try:
            k = int(raw)
            return NormSpec.kyfan(k)
        except (ValueError, SchattenOrderError) as e:
            raise ConfigError(f"bad Ky Fan order {raw!r}: {e}") from None
    raise ConfigError(f"unknown norm {text!r}")


def singular_values(m) -> np.ndarray:
    """Singular values in descending order, clamped to be nonnegative."""
    a = check_matrix(m)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise ConvergenceError(f"singular value computation failed: {e}") from e
    return np.maximum(s, 0.0)


def norm(m, spec: NormSpec) -> float:
    """Evaluate a unitarily invariant norm of a (possibly rectangular) matrix."""
    a = check_matrix(m)
    if spec.kind == "schatten" and spec.params[0] == 2.0:
        # Frobenius shortcut: no SVD needed
        return float(np.linalg.norm(a))
    return spec.of_singular_values(singular_values(a))


def norms_of_stack(stack: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Norm of every matrix in a (T, m, n) stack.

    Schatten-2 reduces to Frobenius norms; the rest go through one batched
    singular value decomposition.
    """
    if stack.ndim != 3:
        raise NotSquareError(f"expected a (T, m, n) stack, got shape {stack.shape}")
    if spec.kind == "schatten" and spec.params[0] == 2.0:
        return np.sqrt(np.sum(stack * stack, axis=(1, 2)))
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise ConvergenceError(f"singular value computation failed: {e}") from e
    s = np.maximum(s, 0.0)
    if spec.kind == "kyfan":
        k = min(spec.params[0], s.shape[1])
        return np.sum(s[:, :k], axis=1)
    p = spec.params[0]
    if p == math.inf:
        return s[:, 0]
    if p == 1.0:
        return np.sum(s, axis=1)
    return np.power(np.sum(np.power(s, p), axis=1), 1.0 / p)


def norm_from_eigs(eigs: np.ndarray, spec: NormSpec) -> float:
    """Norm of a symmetric matrix given its eigenvalues (singular values are
    their absolute values)."""
    s = np.sort(np.abs(np.asarray(eigs, dtype=float)))[::-1]
    return spec.of_singular_values(s)


def norms_from_eig_rows(rows: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Row-wise ``norm_from_eigs`` for a (T, n) eigenvalue array."""
    s = np.sort(np.abs(rows), axis=1)[:, ::-1]
    if spec.kind == "kyfan":
        k = min(spec.params[0], s.shape[1])
        return np.sum(s[:, :k], axis=1)
    p = spec.params[0]
    if p == math.inf:
        return s[:, 0]
    if p == 1.0:
        return np.sum(s, axis=1)
    if p == 2.0:
        return np.sqrt(np.sum(s * s, axis=1))
    return np.power(np.sum(np.power(s, p), axis=1), 1.0 / p)


def trace(m) -> float:
    a = check_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"trace needs a square matrix, got shape {a.shape}")
    return float(np.trace(a))


def trace_property_check(a, t) -> tuple[float, float]:
    """Two basic trace facts for square a, t of equal size.

    Returns (cyclicity residual, bound excess): |tr(at) - tr(ta)| and
    max(0, |tr(at)| - tracenorm(a) * opnorm(t)). Both should be ~0.
    """
    ma = check_matrix(a, square=True)
    mt = check_matrix(t, square=True)
    if ma.shape != mt.shape:
        raise NotSquareError(f"shape mismatch {ma.shape} vs {mt.shape}")
    t_at = float(np.trace(ma @ mt))
    t_ta = float(np.trace(mt @ ma))
    resid = abs(t_at - t_ta)
    bound = norm(ma, NormSpec.tracenorm()) * norm(mt, NormSpec.opnorm())
    return resid, max(0.0, abs(t_at) - bound)
