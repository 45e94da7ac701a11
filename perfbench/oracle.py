"""Independent recomputation of replayed trials.

For one trial seed this module draws the trial's inputs with hhverify's
sampler, in the order the campaign runner draws them, and recomputes every
reported quantity with mpmath (scalar and eigenvalue-row terms, 30 digits)
or scipy (matrix terms: ``scipy.linalg`` powers, roots and exponentials,
``scipy.integrate`` quadrature, numpy SVD norms). None of hhverify's
integrators, norms, eigen-wrappers or chain code is used. The workloads run
the default configuration: ``exp:1`` (``power:2`` for dragomir), nu = 0.3,
grid 33, operator norm, or Schatten-2 for the singular-value chains.

Tolerances, fixed here and stated in the README:

* chain terms and inequality sides: relative ``TERM_RTOL``;
* Loewner gaps and near-zero margins: ``GAP_RTOL`` times the largest
  spectral norm among the compared matrices (at least 1);
* witness slack (log scale): absolute ``SLACK_ATOL``.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import scipy.integrate as si
import scipy.linalg as sl

from hhverify import sampler

mp.mp.dps = 30

LO, HI = 0.1, 10.0
NU = 0.3
GRID = 33
CONV_TOL = 1e-10
TERM_RTOL = 1e-8
GAP_RTOL = 1e-8
SLACK_ATOL = 1e-8

_FINE = np.arange(GRID * GRID + 1) / (GRID * GRID)


# ---------------------------------------------------------------------------
# inputs, drawn exactly as the campaign runners draw them


def _interval(stream):
    v = sampler._log_uniform(stream, 2, LO, HI)
    a, b = float(min(v)), float(max(v))
    if a == b:
        b = float(np.nextafter(b, np.inf))
    return a, b


def _spd(stream, n):
    return sampler.random_spd(stream, n, LO, HI)


def _spd_pair_x(stream, n):
    a, b = _spd(stream, n), _spd(stream, n)
    return a, b, sampler.random_general(stream, n, n)


def _commuting(stream, n):
    q, a, b = sampler.random_commuting_pair(stream, n, LO, HI)
    return q, [mp.mpf(float(x)) for x in a], [mp.mpf(float(x)) for x in b]


# ---------------------------------------------------------------------------
# matrix helpers (scipy / numpy only)


def _sym(m):
    return 0.5 * (m + m.T)


class _Powers:
    """M^t for symmetric positive M through scipy's eigendecomposition."""

    def __init__(self, m):
        self.w, self.v = sl.eigh(m)

    def __call__(self, t):
        return (self.v * self.w**t) @ self.v.T


def _fmp(m, t):
    return np.real(sl.fractional_matrix_power(m, t))


def _opnorm(m):
    return float(np.linalg.norm(m, 2))


def _fro(m):
    return float(np.sqrt(np.sum(m * m)))


def _gaps(mats):
    gaps = [float(sl.eigvalsh(_sym(mats[k + 1] - mats[k]))[0]) for k in range(len(mats) - 1)]
    return gaps, max([1.0] + [_opnorm(m) for m in mats])


def _row_gaps(rows):
    gaps = [float(min(h - l for l, h in zip(rows[k], rows[k + 1]))) for k in range(len(rows) - 1)]
    return gaps, max([1.0] + [float(abs(x)) for r in rows for x in r])


def _quad_vec(fn, a, b):
    return si.quad_vec(fn, a, b, epsabs=1e-13, epsrel=1e-12, norm="max")[0]


def _quad(fn, a, b):
    return si.quad(fn, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


def _five(p0, p14, p12, p34, p1, integral):
    """The five Hermite-Hadamard terms of a log-convex curve."""
    return [
        p12,
        mp.sqrt(p14 * p34),
        mp.exp(integral),
        mp.sqrt(p12) * p0**0.25 * p1**0.25,
        mp.sqrt(p1 * p0),
    ]


def _slack(logs):
    """Minimum chord slack over every (i, j, k) triple of the fine grid."""
    g = GRID
    coarse = logs[::g]
    i = np.arange(g + 1)[:, None, None]
    j = np.arange(g + 1)[None, :, None]
    k = np.arange(g + 1)[None, None, :]
    chord = (k * coarse[i] + (g - k) * coarse[j]) / g
    return float(np.min(chord - logs[k * i + (g - k) * j]))


# ---------------------------------------------------------------------------
# default (commuting, positive) configuration


def _scalar_ag(stream, dim):
    a, b = (mp.mpf(x) for x in _interval(stream))
    f = mp.exp
    integral = mp.quad(lambda x: mp.log(f(x)), [a, b]) / (b - a)
    mid, q1, q2 = (a + b) / 2, (3 * a + b) / 4, (a + 3 * b) / 4
    return "terms", _five(f(b), f(q1), f(mid), f(q2), f(a), integral)


def _scalar_gg(stream, dim):
    a, b = (mp.mpf(x) for x in _interval(stream))
    f = mp.exp
    la, lb = mp.log(a), mp.log(b)
    integral = mp.quad(lambda t: mp.log(f(t)) / t, [a, b]) / (lb - la)
    mid, q1, q2 = mp.exp((la + lb) / 2), mp.exp((3 * la + lb) / 4), mp.exp((la + 3 * lb) / 4)
    return "terms", _five(f(b), f(q1), f(mid), f(q2), f(a), integral)


def _scalar_means(stream, dim):
    v0, v1 = (mp.mpf(float(x)) for x in sampler._log_uniform(stream, 2, LO, HI))
    lo, hi = min(v0, v1), max(v0, v1)
    if lo == hi:
        return "terms", [lo] * 5
    return "terms", [lo, mp.sqrt(v0 * v1), (hi - lo) / (mp.log(hi) - mp.log(lo)), (v0 + v1) / 2, hi]


def _dragomir(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)

    def f(m):
        return m @ m

    def seg(t):
        return f(t * a + (1.0 - t) * b)

    f_mid = f(0.5 * (a + b))
    ends = 0.5 * (f(a) + f(b))
    mats = [
        f_mid,
        2.0 * _quad_vec(seg, 0.25, 0.75),
        0.5 * (f(0.25 * (3.0 * a + b)) + f(0.25 * (a + 3.0 * b))),
        _quad_vec(seg, 0.0, 1.0),
        0.5 * f_mid + 0.5 * ends,
        ends,
    ]
    return ("gaps", *_gaps(mats))


def _op_gg_hh(stream, dim):
    _, a, b = _commuting(stream, dim)
    f = mp.exp
    v1 = [mp.log(f(mp.sqrt(x * y))) for x, y in zip(a, b)]
    v2 = [mp.quad(lambda t: mp.log(f(x**t * y ** (1 - t))), [0, 1]) for x, y in zip(a, b)]
    v3 = [(mp.log(f(x)) + mp.log(f(y))) / 2 for x, y in zip(a, b)]
    return ("gaps", *_row_gaps([v1, v2, v3]))


def _op_ag_midpoint(stream, dim):
    _, a, b = _commuting(stream, dim)
    f = mp.exp
    v1 = [f((x + y) / 2) for x, y in zip(a, b)]
    v2 = [
        mp.quad(lambda t: mp.sqrt(f(t * x + (1 - t) * y) * f((1 - t) * x + t * y)), [0, 1])
        for x, y in zip(a, b)
    ]
    v3 = [mp.sqrt(f(x) * f(y)) for x, y in zip(a, b)]
    return ("gaps", *_row_gaps([v1, v2, v3]))


def _crossings(a, b):
    """Interior u where two branches x^u y^(1-u) of the pair meet."""
    la, lb = np.log(a), np.log(b)
    slopes = la - lb
    cuts = set()
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if slopes[i] != slopes[j]:
                u = (lb[j] - lb[i]) / (slopes[i] - slopes[j])
                if 0.0 < u < 1.0:
                    cuts.add(float(u))
    return sorted(cuts)


def _op_norm_gg(stream, dim):
    q, a, b = sampler.random_commuting_pair(stream, dim, LO, HI)

    def phi(u):  # ||exp(A^u B^(1-u))|| from the materialized matrix
        return mp.mpf(_opnorm(sl.expm((q * (a**u * b ** (1.0 - u))) @ q.T)))

    # log of the largest eigenvalue of exp(...) is the largest branch;
    # splitting at the crossings leaves a smooth integrand on each piece
    integral = si.quad(
        lambda u: float(np.max(a**u * b ** (1.0 - u))), 0.0, 1.0,
        points=_crossings(a, b) or None, epsabs=1e-14, epsrel=1e-13, limit=400,
    )[0]
    return "terms", _five(phi(0.0), phi(0.25), phi(0.5), phi(0.75), phi(1.0), mp.mpf(integral))


def _trace(variant):
    power = 2 if variant == "squared" else 1

    def run(stream, dim):
        q, fa, fb = sampler.random_commuting_pair(stream, dim, LO, HI)
        ma, mb = (q * fa) @ q.T, (q * fb) @ q.T
        a, b = [mp.mpf(float(x)) for x in fa], [mp.mpf(float(x)) for x in fb]

        def tau(u):
            return mp.fsum(x ** (power * u) * y ** (power * (1 - u)) for x, y in zip(a, b))

        integral = mp.quad(lambda u: mp.log(tau(u)), [0, 1])
        if variant == "sqrt":
            return "terms", [
                mp.sqrt(np.trace(ma @ mb)),
                mp.mpf(float(np.trace(np.real(sl.sqrtm(ma @ mb))))),
                *_five(tau(0), tau(0.25), tau(0.5), tau(0.75), tau(1), integral)[1:],
            ]
        return "terms", [
            *_five(tau(0), tau(0.25), tau(0.5), tau(0.75), tau(1), integral)[:4],
            mp.mpf(float(np.trace(ma))) * mp.mpf(float(np.trace(mb))),
        ]

    return run


def _det_ag(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)
    lhs = sl.det(a) ** NU * sl.det(b) ** (1.0 - NU)
    return "sides", [lhs, sl.det(NU * a + (1.0 - NU) * b)]


def _am_gm(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)
    root = np.real(sl.sqrtm(a))
    inv_root = np.linalg.inv(root)
    gm = root @ _fmp(_sym(inv_root @ b @ inv_root), NU) @ root
    return ("gaps", *_gaps([_sym(gm), (1.0 - NU) * a + NU * b]))


def _norm_power(stream, dim):
    t = _spd(stream, dim)
    base = _opnorm(t)
    margins = [base**al - _opnorm(_fmp(t, al)) for al in np.linspace(0.0, 1.0, 11)]
    return "margin", min(margins), max(1.0, base)


def _kittaneh(stream, dim):
    a, b, x = _spd_pair_x(stream, dim)
    lhs = _fro(_fmp(a, NU) @ x @ _fmp(b, 1.0 - NU))
    return "sides", [lhs, _fro(a @ x) ** NU * _fro(x @ b) ** (1.0 - NU)]


def _phi_operator(stream, dim):
    _, fa, fb = sampler.random_commuting_pair(stream, dim, LO, HI)
    # log ||exp(A^t B^(1-t))|| is the largest branch a_i^t b_i^(1-t)
    logs = np.max(fa[None, :] ** _FINE[:, None] * fb[None, :] ** (1.0 - _FINE[:, None]), axis=1)
    return "slack", _slack(logs)


def _two_sided(diagonal):
    def run(stream, dim):
        a, b, x = _spd_pair_x(stream, dim)
        pa, pb = _Powers(a), _Powers(b)
        ta = _FINE
        tb = _FINE if diagonal else 1.0 - _FINE
        left = np.einsum("ij,tj,kj->tik", pa.v, pa.w[None, :] ** ta[:, None], pa.v)
        right = np.einsum("ij,tj,kj->tik", pb.v, pb.w[None, :] ** tb[:, None], pb.v)
        stack = left @ x @ right
        return "slack", _slack(np.log(np.sqrt(np.sum(stack * stack, axis=(1, 2)))))

    return run


_UIN_INTERVALS = {
    "uin_symmetric": (NU, 1.0 - NU),
    "uin_end_left": (0.0, NU),
    "uin_end_right": (1.0 - NU, 1.0),
    "uin_full": (0.0, 1.0),
    "uin_diagonal": (0.0, 1.0),
}


def _uin(tid):
    lo, hi = _UIN_INTERVALS[tid]
    diagonal = tid == "uin_diagonal"

    def run(stream, dim):
        a, b, x = _spd_pair_x(stream, dim)
        pa, pb = _Powers(a), _Powers(b)

        def second(t):
            return t if diagonal else 1.0 - t

        def anchor(t):
            return mp.mpf(_fro(_fmp(a, t) @ x @ _fmp(b, second(t))))

        integral = _quad(lambda t: np.log(_fro(pa(t) @ x @ pb(second(t)))), lo, hi)
        mid, q1, q2 = 0.5 * (lo + hi), 0.25 * (3.0 * lo + hi), 0.25 * (lo + 3.0 * hi)
        return "terms", _five(
            anchor(lo), anchor(q1), anchor(mid), anchor(q2), anchor(hi),
            mp.mpf(integral) / (hi - lo),
        )

    return run


# ---------------------------------------------------------------------------
# DROP_COMMUTATIVITY: two independent positive definite matrices, exp:1


def _nc_op_gg_hh(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)
    pa, pb = _Powers(a), _Powers(b)
    # log exp is the identity on the (real, positive) spectrum of the product
    t1 = _sym(np.real(sl.sqrtm(a @ b)))
    t2 = _quad_vec(lambda t: _sym(pa(t) @ pb(1.0 - t)), 0.0, 1.0)
    return ("gaps", *_gaps([t1, t2, 0.5 * (a + b)]))


def _nc_op_ag_midpoint(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)

    def gm(p, r):
        return _sym(np.real(sl.sqrtm(p @ r)))

    t2 = _quad_vec(
        lambda al: gm(sl.expm(al * a + (1.0 - al) * b), sl.expm((1.0 - al) * a + al * b)),
        0.0, 1.0,
    )
    return ("gaps", *_gaps([sl.expm(0.5 * (a + b)), t2, gm(sl.expm(a), sl.expm(b))]))


def _nc_norm_gg(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)
    pa, pb = _Powers(a), _Powers(b)

    def phi(u):
        return _opnorm(sl.expm(pa(u) @ pb(1.0 - u)))

    integral = _quad(lambda u: np.log(phi(u)), 0.0, 1.0)
    anchors = [mp.mpf(phi(u)) for u in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return "terms", _five(*anchors, mp.mpf(integral))


def _nc_trace(variant):
    power = 2.0 if variant == "squared" else 1.0

    def run(stream, dim):
        a, b = _spd(stream, dim), _spd(stream, dim)
        pa, pb = _Powers(a), _Powers(b)

        def tau(u):
            return mp.mpf(float(np.trace(pa(power * u) @ pb(power * (1.0 - u)))))

        integral = mp.mpf(_quad(lambda u: np.log(float(tau(u))), 0.0, 1.0))
        hh = _five(tau(0.0), tau(0.25), tau(0.5), tau(0.75), tau(1.0), integral)
        if variant == "sqrt":
            root = np.real(sl.sqrtm(a @ b))
            return "terms", [mp.sqrt(np.trace(a @ b)), mp.mpf(float(np.trace(root))), *hh[1:]]
        return "terms", [*hh[:4], mp.mpf(float(np.trace(a))) * mp.mpf(float(np.trace(b)))]

    return run


def _nc_phi_operator(stream, dim):
    a, b = _spd(stream, dim), _spd(stream, dim)
    pa, pb = _Powers(a), _Powers(b)
    logs = np.log([_opnorm(sl.expm(pa(t) @ pb(1.0 - t))) for t in _FINE])
    return "slack", _slack(logs)


DEFAULT = {
    "scalar_ag": _scalar_ag,
    "scalar_gg": _scalar_gg,
    "scalar_means": _scalar_means,
    "dragomir": _dragomir,
    "op_gg_hh": _op_gg_hh,
    "op_ag_midpoint": _op_ag_midpoint,
    "op_norm_gg": _op_norm_gg,
    "exp_norm": _op_norm_gg,
    "trace_sqrt": _trace("sqrt"),
    "trace_squared": _trace("squared"),
    "det_ag": _det_ag,
    "am_gm_loewner": _am_gm,
    "norm_power": _norm_power,
    "kittaneh": _kittaneh,
    "phi_operator": _phi_operator,
    "phi_sandwich": _two_sided(diagonal=False),
    "phi_diagonal": _two_sided(diagonal=True),
    **{tid: _uin(tid) for tid in _UIN_INTERVALS},
}

NON_COMMUTING = {
    "op_gg_hh": _nc_op_gg_hh,
    "op_ag_midpoint": _nc_op_ag_midpoint,
    "op_norm_gg": _nc_norm_gg,
    "exp_norm": _nc_norm_gg,
    "trace_sqrt": _nc_trace("sqrt"),
    "trace_squared": _nc_trace("squared"),
    "phi_operator": _nc_phi_operator,
}


def _close(got: float, want, rtol: float) -> bool:
    return abs(got - float(want)) <= rtol * max(1.0, abs(float(want)))


def check(camp, tid: str, seed: int, dim: int, payload: dict) -> list[str]:
    """Recompute one replayed trial; return what disagrees (empty if nothing)."""
    table = NON_COMMUTING if camp.ablation == "DROP_COMMUTATIVITY" else DEFAULT
    if camp.ablation not in (None, "DROP_COMMUTATIVITY"):
        return [f"no independent recomputation for ablation {camp.ablation}"]
    kind, *want = table[tid](sampler.RandomStream(seed), dim)
    out = []
    if camp.ablation is None and not (payload["passed"] and payload["hypothesis_ok"]):
        out.append("trial of a proven theorem did not pass")
    if kind == "terms":
        got = payload["term_values"]
        for name, g, w in zip(payload["term_names"], got, want[0]):
            if not _close(g, w, TERM_RTOL):
                out.append(f"{name} = {g!r}, recomputed {float(w)!r}")
        if len(got) != len(want[0]):
            out.append(f"{len(got)} terms, recomputed {len(want[0])}")
    elif kind == "gaps":
        gaps, scale = want
        got = [c["min_gap"] for c in payload["comparisons"]]
        for k, (g, w) in enumerate(zip(got, gaps)):
            if abs(g - w) > GAP_RTOL * scale:
                out.append(f"gap {k} = {g!r}, recomputed {w!r} (scale {scale:.3g})")
        if len(got) != len(gaps):
            out.append(f"{len(got)} comparisons, recomputed {len(gaps)}")
    elif kind == "sides":
        for side, w in zip(("lhs", "rhs"), want[0]):
            if not _close(payload[side], w, TERM_RTOL):
                out.append(f"{side} = {payload[side]!r}, recomputed {float(w)!r}")
    elif kind == "margin":
        margin, scale = want
        if abs(payload["margin"] - margin) > GAP_RTOL * scale:
            out.append(f"margin = {payload['margin']!r}, recomputed {margin!r}")
    else:
        slack = want[0]
        if abs(payload["slack"] - slack) > SLACK_ATOL:
            out.append(f"slack = {payload['slack']!r}, recomputed {slack!r}")
        elif abs(slack + CONV_TOL) > SLACK_ATOL and payload["holds"] != (slack >= -CONV_TOL):
            out.append(f"holds = {payload['holds']}, recomputed slack {slack!r}")
    return out
