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

Every stacked eigh, eigvalsh and svd goes through ``_stacked``, which cuts a
large stack into one part per CPU the process may run on and decomposes the
parts at once; LAPACK takes each matrix alone, so the bits do not change.
"""

from __future__ import annotations

import enum
import math
import os
import threading
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
    lam, q = _eigh(check_symmetric(s)[None])
    lam, q = lam[0], _signed_columns(q)[0]
    q.flags.writeable = False
    lam.flags.writeable = False
    return SpectralDecomp(q=q, eigenvalues=lam)


# stacks of at least this many matrix entries are cut into parts by _stacked
SPLIT_MIN_ENTRIES = 4096

# numpy's stacked decompositions that take each matrix of a stack alone, so
# that a part of a stack gets the bits it gets in the whole. eig is not one:
# it makes a whole stack complex for one complex spectrum
_SPLITTABLE = (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd)

# the ThreadPoolExecutor of _stacked, made on first use under the lock
_pool = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """Threads that decompose parts of a stack beside the calling thread: one
    per CPU this process may run on, but one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1  # pragma: no cover - not on Linux


def _forget_pool() -> None:
    """Drop the pool, and the lock, in a forked child: its copy of the pool
    has no threads, and the lock may have been held by a thread of the
    parent."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


def _executor(workers: int):
    """The process's pool, made with workers threads on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: a process that never cuts a stack never loads it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="hhverify-lapack")
        return _pool


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _stacked(routine, a: np.ndarray, **kw):
    """routine(a, **kw), for routine one of _SPLITTABLE (or a
    functools.wraps wrapper of one) and a (..., m, k) stack, with the bits
    and the errors of the plain call.

    A stack of at least SPLIT_MIN_ENTRIES entries is flattened and cut into
    contiguous parts, one per CPU but never so many that a part holds less
    than about half the rule: the calling thread takes the first part with
    routine, a process-wide thread pool the others with numpy's own routine,
    which releases the GIL and sets its own errstate; so a wrapper runs
    once, on the calling thread, and the pool runs no code but numpy's. The
    error of the first part in stack order that fails is raised, only after
    every part has finished. Smaller stacks and a process on one CPU get the
    plain call."""
    if a.size < SPLIT_MIN_ENTRIES:  # first: most calls take this path
        return routine(a, **kw)
    own = routine if routine in _SPLITTABLE else routine.__wrapped__
    workers = _worker_count()
    count = math.prod(a.shape[:-2])
    # a part smaller than half the rule costs more to hand off than it saves
    parts = min(workers + 1, count, a.size // (SPLIT_MIN_ENTRIES // 2))
    if parts < 2:
        return routine(a, **kw)
    pool = _executor(workers)
    flat = a.reshape((count,) + a.shape[-2:])
    cuts = [count * k // parts for k in range(parts + 1)]
    rest = [pool.submit(own, flat[lo:hi], **kw) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = routine(flat[: cuts[1]], **kw)
    finally:
        for f in rest:
            f.exception()  # waits for the part, and raises nothing
    results = [first] + [f.result() for f in rest]
    if isinstance(first, tuple):  # numpy 2's named result, or numpy 1's plain tuple
        fields = [_joined(a.shape[:-2], field) for field in zip(*results)]
        return first._make(fields) if hasattr(first, "_make") else tuple(fields)
    return _joined(a.shape[:-2], results)


def _joined(lead: tuple[int, ...], parts) -> np.ndarray:
    """The parts of a flattened stack's result joined, with the stack's
    leading axes lead."""
    out = np.concatenate(parts)
    return out.reshape(lead + out.shape[1:])


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a (T, n, n) stack, with the column signs LAPACK
    gives: enough for any product in which they cancel, as in _apply_stack."""
    try:
        return _stacked(np.linalg.eigh, a)
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigensolver did not converge: {e}") from e


def _signed_columns(q: np.ndarray) -> np.ndarray:
    """The (T, n, n) bases q under eigh's column-sign convention: the
    largest-magnitude entry of each column (the first, on a tie) made
    nonnegative."""
    # the entry of each column at the row of its largest magnitude
    rows = np.argmax(np.abs(q), axis=1)
    signs = np.sign(q[np.arange(q.shape[0])[:, None], rows, np.arange(q.shape[2])])
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


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


def _spectrum_powers(lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """lam^t of (..., n) spectra at each exponent of the 1-d array ts: shape
    (..., len(ts), n), each row the bits of np.power(lam, t) alone."""
    vals = np.power(lam[..., None, :], ts[:, None])
    shortcut = ts == _SCALAR_POWER_SHORTCUTS[0]
    for t in _SCALAR_POWER_SHORTCUTS[1:]:
        shortcut |= ts == t
    for k in np.flatnonzero(shortcut).tolist():
        vals[..., k, :] = np.power(lam, ts.item(k))
    return vals


def _power_stack(
    lam: np.ndarray, q: np.ndarray, ts: np.ndarray, original: np.ndarray | None = None
) -> np.ndarray:
    """The powers of the matrices q diag(lam) q^T, given by (..., n) spectra
    and (..., n, n) bases, at each exponent of the 1-d array ts: shape
    (..., len(ts), n, n), each equal bit for bit to power_from_decomp with
    its exponent alone (t = 0 the identity, t = 1 the original if given).

    The other exponents are taken through the spectrum as one stack; each
    matrix of a stacked product is computed alone, so their bits do not
    depend on which exponents share the stack."""
    exact = ts == 0.0
    if original is not None:
        exact |= ts == 1.0
    out = np.empty(lam.shape[:-1] + (ts.size,) + q.shape[-2:])
    if not exact.all():
        # the guard names the first negative exponent, as a loop over ts
        # would (an exact exponent is never negative, and the guard reads a
        # nonnegative one only as such)
        negative = ts[ts < 0.0]
        lam = _psd_spectrum(lam, negative.item(0) if negative.size else 0.0)
        out[..., ~exact, :, :] = _apply_stack(q[..., None, :, :], _spectrum_powers(lam, ts[~exact]))
    for k in np.flatnonzero(exact).tolist():
        out[..., k, :, :] = np.eye(lam.shape[-1]) if ts.item(k) == 0.0 else original
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


def commuting_weighted_product(pair: CommutingPair, t: float) -> np.ndarray:
    """A^t B^(1-t) for a commuting pair: q diag(a^t b^(1-t)) q^T."""
    if not math.isfinite(t):
        raise DomainViolationError(f"exponent must be finite, got {t}")
    vals = np.power(pair.a, t) * np.power(pair.b, 1.0 - t)
    return pair.materialize(vals)
