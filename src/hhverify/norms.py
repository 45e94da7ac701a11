"""Unitarily invariant norms and trace utilities.

A norm is identified by a small spec: Schatten p (p >= 1, p = inf meaning the
operator norm), the Ky Fan k-norms, and the named aliases ``opnorm`` and
``tracenorm``. All of them are symmetric gauge functions of the singular
values, which is the invariance the checks in this package rely on.

This module alone decides how a norm is taken: one gauge (_gauge_rows), one
Frobenius rule (_frobenius_rows, which the quadrature's Gauss-Kronrod check
also uses), one operator-norm rule for real matrices (_operator_norms) and one
kernel for stacks of matrices (norms_of_stack, which norm() runs on one
matrix). Each gives a row or matrix the bits it has alone, in a stack of
any height. Other modules ask a NormSpec only is_frobenius, is_max_type
and top_k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DimMismatchError,
    NotSquareError,
    SchattenOrderError,
)
from .functions import exact_g
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
        """Any integral k >= 1 (numpy integers too), bool not."""
        try:
            order = operator.index(k)
        except TypeError:
            order = None
        if order is None or isinstance(k, bool) or order < 1:
            raise SchattenOrderError(f"Ky Fan order must be an integer >= 1, got {k!r}")
        return NormSpec(kind="kyfan", params=(order,))

    @property
    def is_frobenius(self) -> bool:
        """Schatten-2, the Frobenius norm: taken without singular values."""
        return self.kind == "schatten" and self.params[0] == 2.0

    @property
    def is_max_type(self) -> bool:
        """The operator norm and the Ky Fan norms: they pick the largest
        singular values, so a norm curve kinks where the picked ones change."""
        return self.kind == "kyfan" or self.params[0] == math.inf

    @property
    def top_k(self) -> int:
        """How many largest singular values a max-type norm sums: k for
        Ky Fan k, 1 for the operator norm."""
        return self.params[0] if self.kind == "kyfan" else 1

    def describe(self) -> str:
        if self.kind == "kyfan":
            return f"kyfan:{self.params[0]}"
        p = self.params[0]
        if p == math.inf:
            return "opnorm"
        if p == 1.0:
            return "tracenorm"
        return f"schatten:{exact_g(p)}"

    def of_singular_values(self, s: np.ndarray) -> float:
        """Evaluate the gauge on a descending singular-value vector, as the
        one row of a (1, n) array; an empty one gives 0.0."""
        return float(_gauge_rows(s[None], self)[0]) if s.size else 0.0


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
    """Evaluate a unitarily invariant norm of a (possibly rectangular) matrix:
    norms_of_stack on a stack of one."""
    return float(norms_of_stack(check_matrix(m)[None], spec)[0])


def norms_of_stack(stack: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Norm of every matrix of a (..., m, n) stack, of shape (...).

    Schatten-2 of a real stack is the Frobenius norm of each matrix, and the
    operator norm of a real stack comes from a Gram matrix (_operator_norms);
    the rest go through one batched singular value decomposition and the
    gauge. A matrix with an entry that is not finite has norm NaN, and LAPACK
    is not given it: it prints to stdout on such input. Every matrix gets the
    bits it has alone.
    """
    if stack.ndim < 2:
        raise DimMismatchError(f"expected a (..., m, n) stack, got shape {stack.shape}")
    if spec.is_frobenius and not np.iscomplexobj(stack):
        return _frobenius_rows(stack.reshape(stack.shape[:-2] + (-1,)))
    m, k = stack.shape[-2:]
    flat = stack.reshape(-1, m, k)
    # the largest |entry| of each matrix, NaN or inf where an entry is not
    # finite, down the columns of the C-ordered transpose as in
    # norms_from_eig_rows
    peak = np.abs(flat.reshape(-1, m * k).T, order="C").max(axis=0)
    finite = np.isfinite(peak)
    if finite.all():
        return _finite_norms(flat, peak, spec).reshape(stack.shape[:-2])
    out = np.full(peak.shape, np.nan)
    if finite.any():
        out[finite] = _finite_norms(flat[finite], peak[finite], spec)
    return out.reshape(stack.shape[:-2])


def _finite_norms(flat: np.ndarray, peak: np.ndarray, spec: NormSpec) -> np.ndarray:
    """The norms of a finite (N, m, k) stack whose largest |entries| are peak."""
    if spec == NormSpec.opnorm() and not np.iscomplexobj(flat):
        return _operator_norms(flat, peak)
    try:
        s = np.linalg.svd(flat, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise ConvergenceError(f"singular value computation failed: {e}") from e
    return _gauge_rows(np.maximum(s, 0.0), spec)


def _operator_norms(flat: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """The operator norm of each matrix of a real (N, m, k) stack, sqrt of
    the largest eigenvalue of the Gram matrix of its smaller side, from one
    eigvalsh. Each matrix is first scaled by 2^-x, x the binary exponent of
    its largest |entry| (peak), so that its Gram can neither overflow nor
    underflow; a power of two rounds no entry but those it takes below the
    normal range. The norm is scaled back by 2^x."""
    x = np.frexp(peak)[1]
    scaled = np.ldexp(flat, -x[:, None, None])
    tr = np.swapaxes(scaled, 1, 2)
    gram = scaled @ tr if flat.shape[1] <= flat.shape[2] else tr @ scaled
    try:
        top = np.linalg.eigvalsh(gram)[:, -1]
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise ConvergenceError(f"eigenvalue computation failed: {e}") from e
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), x)


def norm_from_eigs(eigs: np.ndarray, spec: NormSpec) -> float:
    """Norm of a symmetric matrix given its eigenvalues (singular values are
    their absolute values)."""
    s = np.sort(np.abs(np.asarray(eigs, dtype=float)))[::-1]
    return spec.of_singular_values(s)


def norms_from_eig_rows(rows: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Row-wise ``norm_from_eigs`` for a (T, n) eigenvalue array. The
    operator norm is the largest |eigenvalue|, found without a sort, as the
    max down the columns of the C-ordered transpose: numpy reduces T short
    rows far slower than n long ones."""
    if spec == NormSpec.opnorm():
        return np.abs(rows.T, order="C").max(axis=0)
    return _gauge_rows(np.sort(np.abs(rows), axis=1)[:, ::-1], spec)


def _gauge_rows(s: np.ndarray, spec: NormSpec) -> np.ndarray:
    """The gauge of each row of a (T, n) array of descending singular values.

    The rows are made contiguous first: numpy's power can round a strided row
    otherwise than a contiguous one, and on contiguous rows a row has the
    same bits alone as in a stack of any height.
    """
    s = np.ascontiguousarray(s)
    if spec.kind == "kyfan":
        return np.sum(s[:, : spec.params[0]], axis=1)
    p = spec.params[0]
    if p == math.inf:
        return s[:, 0]
    if p == 1.0:
        return np.sum(s, axis=1)
    if p == 2.0:
        return np.sqrt(np.sum(s * s, axis=1))
    return np.power(np.sum(np.power(s, p), axis=1), 1.0 / p)


def _frobenius_rows(flat: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each row of a real (..., k) array, of shape
    (...): the root of the row's dot with itself, one batched (1, k) @ (k, 1)
    matmul per row, which is the ddot np.linalg.norm takes, so its bits."""
    rows = flat.reshape(-1, 1, flat.shape[-1])
    return np.sqrt(rows @ np.swapaxes(rows, 1, 2)).reshape(flat.shape[:-1])


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
