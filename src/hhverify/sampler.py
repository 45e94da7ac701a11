"""Deterministic random inputs for verification trials.

All randomness flows through :class:`RandomStream`, a splitmix64 counter
generator. The state transition is pure 64-bit integer arithmetic, so a given
seed produces the same draw sequence on every platform; the only cross-platform
wiggle is the usual sub-ulp variation of libm transcendentals downstream.

Draw order is part of the contract: each sampler documents exactly how many
variates it consumes and in what order, so that a recorded trial seed replays
the trial bit-for-bit.

A stream may also carry a block of T seeds (a 1-d uint64 array). Every draw
then gains a leading trial axis, and row t holds bit for bit what the stream
of seed t alone would give: the state of output k is seed + k*gamma, so the T
streams advance together as one (T, k) array (counter-based generation, as in
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). The
samplers below work along that axis, so one sampler serves a single trial and
a block of trials.
"""

from __future__ import annotations

import numpy as np

from .errors import BadRangeError, DimMismatchError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants and the finalizer's shifts as uint64 scalars
_GAMMA64, _MIX1_64, _MIX2_64 = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2))
_S27, _S30, _S31 = (np.uint64(s) for s in (27, 30, 31))

# 2**-53, for mapping the top 53 bits of a word onto (0, 1]
_U53 = 1.0 / 9007199254740992.0


def splitmix64(x: int) -> int:
    """One splitmix64 output for input ``x`` (the finalizer applied to x + gamma)."""
    z = (int(x) + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_trial_seed(master_seed: int, dim: int, trial: int) -> int:
    """Stream seed for one campaign trial.

    The trial key folds the dimension into the high word so campaigns over
    several dimensions draw independent streams:
    ``splitmix64(master_seed XOR ((dim << 32) + trial))``.
    """
    key = ((int(dim) << 32) + int(trial)) & _MASK
    return splitmix64(int(master_seed) ^ key)


class RandomStream:
    """Counter-mode splitmix64 stream.

    The state after ``k`` outputs is ``seed + k*gamma (mod 2^64)``; output ``k``
    is the splitmix64 finalizer applied to that state. Blocks of outputs are
    produced vectorized in uint64, which matches the scalar integer recurrence
    exactly (verified in the test suite).

    ``seed`` is one 64-bit seed, or a 1-d array of T seeds: then every draw
    has a leading axis of length T, one row per seed, and ``state`` is the
    array of the T states.
    """

    def __init__(self, seed):
        if isinstance(seed, np.ndarray):
            if seed.ndim != 1:
                raise ValueError(f"a block of seeds must be 1-d, got shape {seed.shape}")
            self.seed = seed.astype(np.uint64)
        else:
            self.seed = int(seed) & _MASK
        self._count = 0

    @property
    def state(self):
        """Current 64-bit state (seed advanced by the number of outputs taken)."""
        step = (self._count * _GAMMA) & _MASK
        if isinstance(self.seed, np.ndarray):
            return self.seed + np.uint64(step)
        return (self.seed + step) & _MASK

    def u64(self, k: int) -> np.ndarray:
        """Next ``k`` raw 64-bit outputs as a uint64 array, (k,) or (T, k)."""
        if k < 0:
            raise ValueError(f"block size must be nonnegative, got {k}")
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        # uint64 array arithmetic wraps mod 2^64 without a warning, and runs
        # in place wherever it can
        seed = self.seed[:, None] if isinstance(self.seed, np.ndarray) else np.uint64(self.seed)
        idx *= _GAMMA64
        z = idx + seed
        z ^= z >> _S30
        z *= _MIX1_64
        z ^= z >> _S27
        z *= _MIX2_64
        z ^= z >> _S31
        return z

    def uniform(self, k: int) -> np.ndarray:
        """``k`` uniforms on (0, 1] from the top 53 bits of each word."""
        w = self.u64(k)
        return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * _U53

    def gaussian(self, k: int) -> np.ndarray:
        """``k`` standard normals via Box-Muller.

        Consumes ``2*ceil(k/2)`` uniforms: pairs (u1, u2) give
        ``r*cos(2 pi u2)`` then ``r*sin(2 pi u2)`` with ``r = sqrt(-2 ln u1)``.
        """
        pairs = (k + 1) // 2
        u = self.uniform(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
        theta = 2.0 * np.pi * u[..., 1::2]
        z = np.empty(u.shape)
        z[..., 0::2] = r * np.cos(theta)
        z[..., 1::2] = r * np.sin(theta)
        return z[..., :k]


def random_general(stream: RandomStream, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Dense matrix of iid N(0, scale^2) entries, drawn row-major."""
    if rows < 1 or cols < 1:
        raise DimMismatchError(f"matrix shape must be positive, got {rows}x{cols}")
    g = stream.gaussian(rows * cols)
    return scale * g.reshape(g.shape[:-1] + (rows, cols))


def random_orthogonal(stream: RandomStream, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with R's diagonal made positive.

    Consumes n*n gaussians. The sign fix makes the factorization unique, so the
    result is a deterministic function of the stream position.
    """
    g = stream.gaussian(n * n)
    q, r = np.linalg.qr(g.reshape(g.shape[:-1] + (n, n)))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[..., None, :]


def _log_uniform(stream: RandomStream, k: int, lo: float, hi: float) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0.0 or hi < lo:
        raise BadRangeError(f"eigenvalue range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    u = stream.uniform(k)
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def random_spd(stream: RandomStream, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Random SPD matrix Q diag(lam) Q^T with log-uniform spectrum in [lo, hi].

    Consumes n*n gaussians (basis) followed by n uniforms (spectrum).
    """
    q = random_orthogonal(stream, n)
    lam = _log_uniform(stream, n, lo, hi)
    return (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)


def random_commuting_pair(stream: RandomStream, n: int, lo: float = 0.1, hi: float = 10.0):
    """Shared-eigenbasis pair: one orthogonal Q, then two positive spectra.

    Consumes n*n gaussians, then n uniforms for the first spectrum, then n for
    the second. Returns ``(q, a, b)`` with a, b the eigenvalue vectors.
    """
    q = random_orthogonal(stream, n)
    a = _log_uniform(stream, n, lo, hi)
    b = _log_uniform(stream, n, lo, hi)
    return q, a, b


def commuting_spectra(stream: RandomStream, n: int, lo: float = 0.1, hi: float = 10.0):
    """The spectra ``(a, b)`` of random_commuting_pair without its basis: the
    basis's words (the 2*ceil(n*n/2) uniforms of its gaussians) are skipped,
    not transformed, so a and b have the same bits."""
    stream.u64(2 * ((n * n + 1) // 2))
    return _log_uniform(stream, n, lo, hi), _log_uniform(stream, n, lo, hi)
