"""Symmetric-matrix primitives: spectral decomposition, functional calculus,
Loewner order comparison, and commuting pairs.

Everything here works on real symmetric matrices as float64 numpy arrays.
The eigensolver is LAPACK's (via ``numpy.linalg.eigh``) with a deterministic
column-sign convention layered on top; its contract (ascending eigenvalues,
orthogonality and reconstruction residuals, error surface) is pinned by the
test suite against hand oracles.

Every q diag(v) q^T is made by ``_apply_stack`` and every stacked PSD power
by ``_power_stack``, for one matrix or a stack of them; the chains use them
on stacks of trials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInputError,
    ConvergenceError,
    DimMismatchError,
    DomainViolationError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    NotSquareError,
    SingularPowerError,
)
from .functions import FunctionSpec

MAX_DIM = 64

# |s[i,j] - s[j,i]| <= SYMMETRY_TOL * (1 + max |entry|) or the input is rejected
SYMMETRY_TOL = 1e-12

# eigenvalues above -PSD_TOL * scale are clamped to zero by pd_power and power_from_decomp
PSD_TOL = 1e-12


def check_matrix(m, square: bool = False) -> np.ndarray:
    """Validate and convert to a finite float64 2-d array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    if max(a.shape) > MAX_DIM:
        raise DimMismatchError(f"dimension {max(a.shape)} exceeds the supported {MAX_DIM}")
    if not np.isfinite(a).all():
        raise NonFiniteInputError("matrix contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_symmetric(m) -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrized matrix."""
    a = check_matrix(m, square=True)
    bound = SYMMETRY_TOL * (1.0 + float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > bound:
        raise AsymmetricInputError(
            f"matrix asymmetry {float(np.max(np.abs(a - a.T))):.3e} exceeds {bound:.3e}"
        )
    return 0.5 * (a + a.T)


def check_symmetric_stack(m) -> np.ndarray:
    """check_symmetric for each matrix of a (T, n, n) stack.

    Returns the stack of symmetrized matrices. When a matrix fails, raises
    what check_symmetric raises on the first one that does.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 3 or a.shape[0] < 1:
        raise DimMismatchError(f"expected a (T, n, n) stack, got shape {a.shape}")
    if not 1 <= a.shape[1] == a.shape[2] <= MAX_DIM:
        check_matrix(a[0], square=True)
    if not np.isfinite(a).all():
        check_matrix(a[int(np.argmin(np.isfinite(a).all(axis=(1, 2))))])
    at = np.swapaxes(a, 1, 2)
    # every bound is at least SYMMETRY_TOL, so a stack within it passes at once
    if np.abs(a - at).max() > SYMMETRY_TOL:
        bound = SYMMETRY_TOL * (1.0 + np.max(np.abs(a), axis=(1, 2)))
        bad = np.max(np.abs(a - at), axis=(1, 2)) > bound
        if bad.any():
            check_symmetric(a[int(np.argmax(bad))])
    return 0.5 * (a + at)


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


@dataclass(frozen=True)
class SpectralDecomp:
    """Orthogonal q and ascending eigenvalues of a symmetric matrix."""

    q: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def reconstruct(self) -> np.ndarray:
        return _apply_stack(self.q, self.eigenvalues)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """q diag(values) q^T for an eigenvalue-indexed value vector."""
        return _apply_stack(self.q, values)


def _apply_stack(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sym(q diag(values) q^T) for one basis or a stack of them, with values
    indexed by eigenvalue on the last axis. The column signs of q cancel in
    the product, so eigh's sign convention is not needed."""
    return _sym((q * np.asarray(values)[..., None, :]) @ np.swapaxes(q, -1, -2))


def eigh(s) -> SpectralDecomp:
    """Spectral decomposition with ascending eigenvalues.

    Column signs follow a fixed convention (the largest-magnitude entry of
    each eigenvector is nonnegative) so results are deterministic.
    """
    lam, q = _signed_eigh(check_symmetric(s)[None])
    lam, q = lam[0], q[0]
    q.flags.writeable = False
    lam.flags.writeable = False
    return SpectralDecomp(q=q, eigenvalues=lam)


def _signed_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of each symmetric matrix of a (T, n, n)
    stack, under eigh's column-sign convention."""
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigensolver did not converge: {e}") from e
    # the entry of each column at the row of its largest magnitude
    rows = np.argmax(np.abs(q), axis=1)
    signs = np.sign(q[np.arange(q.shape[0])[:, None], rows, np.arange(q.shape[2])])
    signs[signs == 0.0] = 1.0
    return lam, q * signs[:, None, :]


def _f_of_spectrum(f: FunctionSpec, lam: np.ndarray) -> np.ndarray:
    """f at every eigenvalue of lam, each of which must be in its domain; the
    error names the first one that is not."""
    ok = f.defined_at(lam)
    if not ok.all():
        raise DomainViolationError(f"{f.describe()} undefined at eigenvalue {lam[~ok][0]!r}")
    return f.eval_array(lam)


def matrix_function(d: SpectralDecomp, f: FunctionSpec) -> np.ndarray:
    """f applied through the spectral decomposition: q diag(f(lambda)) q^T.

    Every eigenvalue must be evaluable by ``f``; the error names the first
    offending eigenvalue.
    """
    return d.apply(_f_of_spectrum(f, d.eigenvalues))


def operator_norm_sym(s) -> float:
    """Spectral norm of a symmetric matrix (largest |eigenvalue|)."""
    a = check_symmetric(s)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


class LoewnerOrdering(enum.Enum):
    LESS_EQUAL = "LESS_EQUAL"
    GREATER_EQUAL = "GREATER_EQUAL"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order comparison a ? b.

    ``min_gap`` is the smallest eigenvalue of (b - a): nonnegative gaps mean
    a <= b exactly, and mildly negative gaps within tolerance still verify.
    """

    ordering: LoewnerOrdering
    min_gap: float


def loewner_compare(a, b, tol: float = 1e-8) -> LoewnerVerdict:
    """Compare symmetric matrices in the Loewner order with relative tolerance.

    scale = max(1, ||a||, ||b||) in the spectral norm; a <= b is accepted when
    every eigenvalue of (b - a) is >= -tol*scale.
    """
    ma, mb = check_symmetric(a), check_symmetric(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    gaps = np.linalg.eigvalsh(mb - ma)
    scale = max(
        1.0,
        float(np.max(np.abs(np.linalg.eigvalsh(ma)))),
        float(np.max(np.abs(np.linalg.eigvalsh(mb)))),
    )
    lo, hi = float(gaps[0]), float(gaps[-1])
    le = lo >= -tol * scale
    ge = hi <= tol * scale
    if le and ge:
        ordering = LoewnerOrdering.EQUAL
    elif le:
        ordering = LoewnerOrdering.LESS_EQUAL
    elif ge:
        ordering = LoewnerOrdering.GREATER_EQUAL
    else:
        ordering = LoewnerOrdering.INCOMPARABLE
    return LoewnerVerdict(ordering=ordering, min_gap=lo)


def det_pd(a) -> float:
    """Determinant of a positive definite matrix, as the eigenvalue product."""
    lam = eigh(a).eigenvalues
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(f"matrix has eigenvalue {lam[0]!r} <= 0")
    return float(np.prod(lam))


def pd_power(a, t: float) -> np.ndarray:
    """Real power of a positive (semi)definite matrix.

    t = 0 gives the identity and t = 1 the symmetrized input; 0**t = 0
    for t > 0; negative powers require strict definiteness. Tiny negative
    eigenvalues within the PSD tolerance are clamped to zero.
    """
    m = check_symmetric(a)
    return power_from_decomp(eigh(m), t, original=m)


def _psd_spectrum(lam: np.ndarray, t: float) -> np.ndarray:
    """Ascending eigenvalues, of one matrix or of each row of a (T, n) stack,
    ready for the power t: tiny negatives within the PSD tolerance clamped to
    zero, larger ones and negative powers of a singular matrix refused."""
    if (lam[..., 0] < 0.0).any():
        scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
        if (lam[..., 0] < -PSD_TOL * scale).any():
            raise NotPositiveSemidefiniteError(f"matrix has eigenvalue {np.min(lam)!r} < 0")
        lam = np.where(lam < 0.0, 0.0, lam)
    if t < 0.0 and (lam[..., 0] == 0.0).any():
        raise SingularPowerError(f"negative power {t} of a singular matrix")
    return lam


def power_from_decomp(d: SpectralDecomp, t, original: np.ndarray | None = None) -> np.ndarray:
    """pd_power via a precomputed decomposition; t in {0, 1} short-circuits
    to exact identity / the original matrix so endpoint terms carry no
    reconstruction noise."""
    if t == 0.0:
        return np.eye(d.dim)
    if t == 1.0 and original is not None:
        return original
    return d.apply(np.power(_psd_spectrum(d.eigenvalues, t), t))


# numpy evaluates a power with one of these scalar exponents as reciprocal,
# sqrt or square, which can differ in the last bit from the general power
# that an array of exponents gets
_SCALAR_POWER_SHORTCUTS = (-1.0, 0.5, 2.0)


def _power_stack(
    lam: np.ndarray, q: np.ndarray, ts: np.ndarray, original: np.ndarray | None = None
) -> np.ndarray:
    """The powers of the matrices q diag(lam) q^T, given by (..., n) spectra
    and (..., n, n) bases, at each exponent of the 1-d array ts: shape
    (..., len(ts), n, n), each equal bit for bit to power_from_decomp with
    its exponent alone (t = 0 the identity, t = 1 the original if given).

    Every exponent is taken through the spectrum, and the rows at t = 0 and
    t = 1 are then overwritten; each matrix of a stacked product is computed
    alone, so the extra rows leave the others' bits."""
    tl = ts.tolist()
    exact = [t == 0.0 or (t == 1.0 and original is not None) for t in tl]
    general = [t for t, e in zip(tl, exact) if not e]
    if general:
        # the guard names the first negative exponent, as a loop over ts would
        lam = _psd_spectrum(lam, next((t for t in general if t < 0.0), general[0]))
    vals = np.power(lam[..., None, :], ts[:, None])
    for k, t in enumerate(tl):
        if t in _SCALAR_POWER_SHORTCUTS:
            vals[..., k, :] = np.power(lam, t)
    out = _apply_stack(q[..., None, :, :], vals)
    for k, t in enumerate(tl):
        if exact[k]:
            out[..., k, :, :] = np.eye(lam.shape[-1]) if t == 0.0 else original
    return out


def weighted_geometric_mean(a, b, nu: float) -> np.ndarray:
    """A #_nu B = A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2) for PD A, B."""
    if not (0.0 <= nu <= 1.0):
        raise DomainViolationError(f"weight must lie in [0, 1], got {nu}")
    ma, mb = check_symmetric(a), check_symmetric(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    da = eigh(ma)
    if da.eigenvalues[0] <= 0.0:
        raise NotPositiveDefiniteError(f"left factor has eigenvalue {da.eigenvalues[0]!r} <= 0")
    if np.linalg.eigvalsh(mb)[0] <= 0.0:
        raise NotPositiveDefiniteError("right factor is not positive definite")
    root = da.apply(np.sqrt(da.eigenvalues))
    inv_root = da.apply(1.0 / np.sqrt(da.eigenvalues))
    inner = _sym(inv_root @ mb @ inv_root)
    di = eigh(inner)
    mid = di.apply(np.power(di.eigenvalues, nu))
    return _sym(root @ mid @ root)


@dataclass(frozen=True)
class CommutingPair:
    """Two positive matrices sharing the eigenbasis q: A = q diag(a) q^T and
    B = q diag(b) q^T. Shared structure is what makes the operator chains
    entrywise in the joint spectrum."""

    q: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        q = check_matrix(self.q, square=True)
        n = q.shape[0]
        resid = float(np.linalg.norm(q.T @ q - np.eye(n)))
        if resid > 1e-10 * n:
            raise DomainViolationError(f"basis is not orthogonal (residual {resid:.3e})")
        for name, v in (("a", self.a), ("b", self.b)):
            arr = np.asarray(v, dtype=float)
            if arr.shape != (n,):
                raise DimMismatchError(f"spectrum {name} has shape {arr.shape}, expected ({n},)")
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise NotPositiveDefiniteError(f"spectrum {name} must be strictly positive")

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def matrix_a(self) -> np.ndarray:
        return _apply_stack(self.q, self.a)

    def matrix_b(self) -> np.ndarray:
        return _apply_stack(self.q, self.b)

    def materialize(self, values: np.ndarray) -> np.ndarray:
        """q diag(values) q^T for entrywise-computed spectra."""
        return _apply_stack(self.q, values)


def check_commuting_stack(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """CommutingPair's checks on each pair (q[t], a[t], b[t]) of a (T, n, n)
    stack of bases and two (T, n) stacks of spectra; raises what
    CommutingPair raises on the first pair that fails.

    A stack whose bases are all orthogonal to 0.5e-10 in every entry of
    q^T q - I, which keeps the Frobenius residual well under 1e-10 n, and
    whose spectra are all positive and finite passes at once; any other
    stack is checked one pair at a time.
    """
    n = q.shape[-1]
    if q.ndim == 3 and 1 <= n == q.shape[1] <= MAX_DIM and a.shape == b.shape == q.shape[:2]:
        spectra = np.concatenate((a, b), axis=1)
        # comparisons with NaN are false, so a NaN fails each bound
        if (
            np.abs(np.swapaxes(q, 1, 2) @ q - np.eye(n)).max() <= 0.5e-10
            and ((spectra > 0.0) & (spectra < np.inf)).all()
        ):
            return
    for k in range(q.shape[0]):
        CommutingPair(q[k], a[k], b[k])


def commuting_weighted_product(pair: CommutingPair, t: float) -> np.ndarray:
    """A^t B^(1-t) for a commuting pair: q diag(a^t b^(1-t)) q^T."""
    if not math.isfinite(t):
        raise DomainViolationError(f"exponent must be finite, got {t}")
    vals = np.power(pair.a, t) * np.power(pair.b, 1.0 - t)
    return pair.materialize(vals)
