"""Campaign driver: the theorem registry, seeded trial runners, pass/fail
accounting, and deterministic report serialization.

Each theorem id maps to one runner. A runner draws its inputs from a trial
RandomStream (seeded as splitmix64(master ^ ((dim << 32) + trial)), so any
trial can be replayed in isolation), evaluates the chain, and returns a
report carrying passed / quad_reliable / hypothesis_ok / min_margin.

Accounting: unreliable trials (quadrature doubling failed, or an ablated
eigenroutine broke down) are excluded from pass/fail and counted separately.
Failing trials flip the campaign exit code to 1 only when the hypotheses were
intact and no ablation applies to the theorem; ablation failures are expected
violations and leave the exit code at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .chains import (
    ChainReport,
    InequalityReport,
    OrderChainReport,
    PhiDiagonal,
    PhiOperator,
    PhiSandwich,
    TraceVariant,
    UinVariant,
    ag_convexity_witness,
    am_gm_loewner_check,
    det_ag_concavity_check,
    dragomir_operator_chain,
    kittaneh_check,
    norm_power_check,
    operator_ag_midpoint_order_chain,
    operator_gg_hh_order_chain,
    operator_norm_gg_chain,
    scalar_hh_chain,
    scalar_mean_chain_report,
    trace_chain,
    uin_chain,
    HH_TERM_NAMES,
    GG_HH_TERM_NAMES,
    AG_MIDPOINT_TERM_NAMES,
    TRACE_SQRT_TERM_NAMES,
    TRACE_SQUARED_TERM_NAMES,
    _chain_report,
    _order_report_from_matrices,
)
from .errors import ConfigError, ConvergenceError, DomainViolationError
from .functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    ConvexityVerdict,
    FunctionSpec,
    _check_grid_n,
    _scan_fine_grid,
    is_gg_convex,
)
from .linalg import (
    CommutingPair,
    MAX_DIM,
    eigh,
    matrix_function,
    power_from_decomp,
)
from .norms import NormSpec
from .quadrature import (
    MAX_NODES,
    integrate_matrix_checked,
    integrate_scalar_checked,
    integrate_stack_checked,
)
from .sampler import (
    RandomStream,
    _log_uniform,
    derive_trial_seed,
    random_general,
    random_spd,
    random_commuting_pair,
)

_MASK64 = (1 << 64) - 1

SPD_LO, SPD_HI = 0.1, 10.0

DROP_COMMUTATIVITY = "DROP_COMMUTATIVITY"
DROP_CONVEXITY_GUARD = "DROP_CONVEXITY_GUARD"
DROP_POSITIVITY = "DROP_POSITIVITY"
ABLATION_FLAGS = (DROP_COMMUTATIVITY, DROP_CONVEXITY_GUARD, DROP_POSITIVITY)

THEOREM_IDS = (
    "scalar_ag",
    "scalar_gg",
    "scalar_means",
    "dragomir",
    "op_gg_hh",
    "op_ag_midpoint",
    "op_norm_gg",
    "exp_norm",
    "trace_sqrt",
    "trace_squared",
    "det_ag",
    "am_gm_loewner",
    "norm_power",
    "kittaneh",
    "phi_operator",
    "phi_sandwich",
    "phi_diagonal",
    "uin_symmetric",
    "uin_end_left",
    "uin_end_right",
    "uin_full",
    "uin_diagonal",
)

# ids whose norm default is Schatten-2 (the singular-value chains); the
# operator-norm ids are the Banach-algebra statements
_SCHATTEN2_IDS = frozenset(
    {
        "kittaneh",
        "phi_sandwich",
        "phi_diagonal",
        "uin_symmetric",
        "uin_end_left",
        "uin_end_right",
        "uin_full",
        "uin_diagonal",
    }
)

_COMMUTING_ABLATABLE = frozenset(
    {
        "op_gg_hh",
        "op_ag_midpoint",
        "op_norm_gg",
        "exp_norm",
        "trace_sqrt",
        "trace_squared",
        "phi_operator",
    }
)
_POSITIVITY_ABLATABLE = frozenset({"det_ag", "kittaneh"})
_GUARD_ABLATABLE = frozenset(
    {
        "scalar_ag",
        "scalar_gg",
        "op_gg_hh",
        "op_ag_midpoint",
        "op_norm_gg",
        "exp_norm",
        "phi_operator",
    }
)

_FLAG_IDS = {
    DROP_COMMUTATIVITY: _COMMUTING_ABLATABLE,
    DROP_POSITIVITY: _POSITIVITY_ABLATABLE,
    DROP_CONVEXITY_GUARD: _GUARD_ABLATABLE,
}


@dataclass(frozen=True)
class CampaignConfig:
    theorem_ids: tuple[str, ...] = THEOREM_IDS
    trials: int = 1000
    dims: tuple[int, ...] = (2, 3, 5, 8)
    master_seed: int = 0
    rtol: float = 1e-8
    atol: float = 1e-12
    norm: NormSpec | None = None
    nu: float = 0.3
    quad_n: int = 64
    function: FunctionSpec | None = None
    ablation: frozenset[str] = frozenset()

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise ConfigError("at least one dimension is required")
        for d in self.dims:
            if not 1 <= d <= MAX_DIM:
                raise ConfigError(f"dimensions must lie in [1, {MAX_DIM}], got {d}")
        if not (self.rtol > 0.0 and math.isfinite(self.rtol)):
            raise ConfigError(f"rtol must be positive, got {self.rtol}")
        if not (self.atol > 0.0 and math.isfinite(self.atol)):
            raise ConfigError(f"atol must be positive, got {self.atol}")
        if not (0.0 <= self.nu <= 1.0):
            raise ConfigError(f"nu must lie in [0, 1], got {self.nu}")
        if not 1 <= self.quad_n <= MAX_NODES:
            raise ConfigError(f"quad_n must lie in [1, {MAX_NODES}], got {self.quad_n}")
        for flag in self.ablation:
            if flag not in ABLATION_FLAGS:
                raise ConfigError(
                    f"unknown ablation flag {flag!r}; known: {', '.join(ABLATION_FLAGS)}"
                )
        for tid in self.theorem_ids:
            if tid not in THEOREM_IDS:
                raise ConfigError(f"unknown theorem id {tid!r}")


@dataclass
class TrialParams:
    """Per-theorem resolved knobs handed to the runner for every trial."""

    f: FunctionSpec
    norm: NormSpec
    nu: float
    quad_n: int
    rtol: float
    atol: float
    grid_n: int = DEFAULT_GRID_N
    conv_tol: float = DEFAULT_CONVEXITY_TOL
    check_hypothesis: bool = True
    drop_commutativity: bool = False
    drop_positivity: bool = False


@dataclass(frozen=True)
class WitnessOutcome:
    """Adapter giving convexity-witness verdicts the common report surface."""

    theorem_id: str
    verdict: ConvexityVerdict
    passed: bool
    quad_reliable: bool = True
    hypothesis_ok: bool = True

    @property
    def min_margin(self) -> float:
        return self.verdict.slack


def _unreliable(theorem_id: str) -> InequalityReport:
    # numeric breakdown inside an ablated eigenroutine: excluded from pass/fail
    return InequalityReport(
        theorem_id=theorem_id,
        lhs=0.0,
        rhs=0.0,
        margin=0.0,
        passed=True,
        quad_reliable=False,
        hypothesis_ok=False,
    )


# ---------------------------------------------------------------------------
# trial input sampling


def _scalar_interval(stream: RandomStream) -> tuple[float, float]:
    vals = _log_uniform(stream, 2, SPD_LO, SPD_HI)
    a, b = float(min(vals)), float(max(vals))
    if a == b:  # measure-zero tie
        b = float(np.nextafter(b, np.inf))
    return a, b


def _commuting(stream: RandomStream, dim: int) -> CommutingPair:
    q, a, b = random_commuting_pair(stream, dim, SPD_LO, SPD_HI)
    return CommutingPair(q=q, a=a, b=b)


def _spd_pair(stream: RandomStream, dim: int) -> tuple[np.ndarray, np.ndarray]:
    return random_spd(stream, dim, SPD_LO, SPD_HI), random_spd(stream, dim, SPD_LO, SPD_HI)


def _spd_pair_with_x(stream: RandomStream, dim: int):
    a, b = _spd_pair(stream, dim)
    return a, b, random_general(stream, dim, dim)


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------------------
# non-commuting and non-positive ablation machinery


# nodes evaluated per stacked call: the doubling pass at the default quad_n is
# one block, and longer node arrays (the phi grid) are cut into blocks so the
# eig, inv and svd work arrays stay small
_NODE_BLOCK = 128


def _in_blocks(fn, ts: np.ndarray) -> np.ndarray:
    """fn over the node array ts, called on blocks of at most _NODE_BLOCK nodes."""
    return np.concatenate(
        [fn(ts[i : i + _NODE_BLOCK]) for i in range(0, ts.shape[0], _NODE_BLOCK)]
    )


def _general_apply(m: np.ndarray, fn) -> np.ndarray:
    """fn on the (real, positive) spectrum of a product of positives, for one
    matrix or for each matrix of a (T, n, n) stack.

    The eigenbasis is no longer orthogonal, so this goes through a general
    eigendecomposition; a non-real or non-positive spectrum of any matrix
    aborts the trial as unreliable rather than producing garbage.
    """
    w, v = np.linalg.eig(m)
    wr = w.real
    if not np.isfinite(wr).all() or (wr <= 0.0).any():
        raise ConvergenceError("spectrum of the non-commuting product is not positive")
    imag = np.max(np.abs(w.imag), axis=-1)
    if (imag > 1e-8 * (1.0 + np.max(np.abs(wr), axis=-1))).any():
        raise ConvergenceError("spectrum of the non-commuting product is not real")
    return np.real((v * fn(wr)[..., None, :]) @ np.linalg.inv(v))


def _principal_power(m: np.ndarray, t: float) -> np.ndarray:
    """Principal branch m^t of a general square matrix (complex result)."""
    w, v = np.linalg.eig(m)
    return (v * np.power(w.astype(np.complex128), t)) @ np.linalg.inv(v)


def _sv_norm(m: np.ndarray, spec: NormSpec):
    """Norm of one matrix, or the array of norms of a (T, n, n) stack."""
    s = np.linalg.svd(m, compute_uv=False)
    return spec.of_singular_values(np.maximum(s, 0.0))


def _log_f_of_sym(d, f: FunctionSpec) -> np.ndarray:
    return d.apply(np.log(f.eval_array(d.eigenvalues)))


def _weighted_products(da, db, a, b, ts: np.ndarray) -> np.ndarray:
    """The (T, n, n) stack of A^t B^(1-t) over the nodes ts."""
    return power_from_decomp(da, ts, a) @ power_from_decomp(db, 1.0 - ts, b)


def _run_op_gg_hh_nc(stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    try:
        t1 = _sym(_general_apply(a @ b, lambda w: np.log(p.f.eval_array(np.sqrt(w)))))

        def nodes(ts: np.ndarray) -> np.ndarray:
            m = _weighted_products(da, db, a, b, ts)
            return _sym(_general_apply(m, lambda w: np.log(p.f.eval_array(w))))

        t2, ok = integrate_matrix_checked(lambda ts: _in_blocks(nodes, ts), 0.0, 1.0, p.quad_n)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("op_gg_hh")
    t3 = 0.5 * (_log_f_of_sym(da, p.f) + _log_f_of_sym(db, p.f))
    return _order_report_from_matrices(
        "op_gg_hh", GG_HH_TERM_NAMES, (t1, t2, t3), p.rtol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _segment_functions(f: FunctionSpec, a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f(t A + (1-t) B) for every t in ts via one stacked eigh, each equal bit
    for bit to matrix_function(eigh(t A + (1-t) B), f).

    Unlike chains._segment_stack, it symmetrizes before and after, as eigh
    and matrix_function do; the sampled A and B are not exactly symmetric.
    """
    lam, q = np.linalg.eigh(_sym(ts[:, None, None] * a + (1.0 - ts)[:, None, None] * b))
    ok = f.defined_at(lam)
    if not ok.all():
        raise DomainViolationError(f"{f.describe()} undefined at eigenvalue {lam[~ok][0]!r}")
    return _sym((q * f.eval_array(lam)[:, None, :]) @ np.swapaxes(q, 1, 2))


def _run_op_ag_midpoint_nc(stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    fa, fb = matrix_function(da, p.f), matrix_function(db, p.f)
    t1 = matrix_function(eigh(0.5 * (a + b)), p.f)
    try:

        def nodes(als: np.ndarray) -> np.ndarray:
            # (1 - al) A + al B is al B + (1 - al) A: the sum is the same bits
            fp = _segment_functions(p.f, a, b, als)
            fq = _segment_functions(p.f, b, a, als)
            return _sym(_general_apply(fp @ fq, np.sqrt))

        t2, ok = integrate_matrix_checked(lambda ts: _in_blocks(nodes, ts), 0.0, 1.0, p.quad_n)
        t3 = _sym(_general_apply(fa @ fb, np.sqrt))
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("op_ag_midpoint")
    return _order_report_from_matrices(
        "op_ag_midpoint", AG_MIDPOINT_TERM_NAMES, (t1, t2, t3), p.rtol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _nc_phi(da, db, a, b, f: FunctionSpec, spec: NormSpec, ts: np.ndarray) -> np.ndarray:
    """phi(t) = ||f(A^t B^(1-t))|| at every node of ts."""

    def block(t: np.ndarray) -> np.ndarray:
        return _sv_norm(_general_apply(_weighted_products(da, db, a, b, t), f.eval_array), spec)

    return _in_blocks(block, ts)


def _run_norm_gg_nc(theorem_id: str, stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    try:
        anchors = _nc_phi(
            da, db, a, b, p.f, p.norm, np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        ).tolist()
        if min(anchors) <= 0.0:
            return _unreliable(theorem_id)

        def g(ts: np.ndarray) -> np.ndarray:
            # math.log, not np.log: the two can differ in the last bit
            return np.array(
                [math.log(v) for v in _nc_phi(da, db, a, b, p.f, p.norm, ts).tolist()]
            )

        integral, ok = integrate_scalar_checked(g, 0.0, 1.0, p.quad_n)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable(theorem_id)
    p0, p14, p12, p34, p1 = anchors
    terms = (
        p12,
        math.sqrt(p14 * p34),
        math.exp(integral),
        math.sqrt(p12) * p0**0.25 * p1**0.25,
        math.sqrt(p1 * p0),
    )
    return _chain_report(
        theorem_id, HH_TERM_NAMES, terms, p.rtol, p.atol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _run_trace_nc(variant: TraceVariant, stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    la, lb = da.eigenvalues, db.eigenvalues
    overlap = (da.q.T @ db.q) ** 2
    pw = 2.0 if variant is TraceVariant.SQUARED else 1.0

    def tau(u: float) -> float:
        return float(np.power(la, pw * u) @ overlap @ np.power(lb, pw * (1.0 - u)))

    def log_tau_rows(ts: np.ndarray) -> np.ndarray:
        pa = np.power(la[None, :], pw * ts[:, None])
        pb = np.power(lb[None, :], pw * (1.0 - ts)[:, None])
        return np.log(np.einsum("ti,ij,tj->t", pa, overlap, pb))

    integral, ok = integrate_stack_checked(log_tau_rows, 0.0, 1.0, p.quad_n)
    t_int = math.exp(float(integral))
    if variant is TraceVariant.SQRT:
        tr_ab = float(np.trace(a @ b))
        w = np.linalg.eigvals(a @ b).real
        if (w <= 0.0).any():
            return _unreliable("trace_sqrt")
        terms = (
            math.sqrt(tr_ab),
            float(np.sum(np.sqrt(w))),
            math.sqrt(tau(0.25) * tau(0.75)),
            t_int,
            math.sqrt(tau(0.5)) * tau(0.0) ** 0.25 * tau(1.0) ** 0.25,
            math.sqrt(tau(1.0) * tau(0.0)),
        )
        return _chain_report(
            "trace_sqrt", TRACE_SQRT_TERM_NAMES, terms, p.rtol, p.atol,
            quad_reliable=ok, hypothesis_ok=False,
        )
    terms = (
        tau(0.5),
        math.sqrt(tau(0.25) * tau(0.75)),
        t_int,
        math.sqrt(tau(0.5)) * tau(0.0) ** 0.25 * tau(1.0) ** 0.25,
        float(np.sum(la)) * float(np.sum(lb)),
    )
    return _chain_report(
        "trace_squared", TRACE_SQUARED_TERM_NAMES, terms, p.rtol, p.atol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _run_phi_operator_nc(stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    _check_grid_n(p.grid_n)
    m = p.grid_n * p.grid_n
    ts = np.arange(m + 1) / m
    try:
        vals = _nc_phi(da, db, a, b, p.f, p.norm, ts)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("phi_operator")
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        return _unreliable("phi_operator")
    verdict = _scan_fine_grid(np.log(vals), ts, p.grid_n, p.conv_tol)
    return WitnessOutcome(
        theorem_id="phi_operator", verdict=verdict, passed=verdict.holds, hypothesis_ok=False
    )


def _run_det_ag_indefinite(stream: RandomStream, dim: int, p: TrialParams):
    a = _sym(random_general(stream, dim, dim))
    b = _sym(random_general(stream, dim, dim))
    la, lb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    lhs = float(np.prod(np.abs(la))) ** p.nu * float(np.prod(np.abs(lb))) ** (1.0 - p.nu)
    rhs = float(np.prod(np.linalg.eigvalsh(p.nu * a + (1.0 - p.nu) * b)))
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(
        theorem_id="det_ag",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -(p.rtol * scale + p.atol),
        hypothesis_ok=False,
    )


def _run_kittaneh_general(stream: RandomStream, dim: int, p: TrialParams):
    a = random_general(stream, dim, dim)
    b = random_general(stream, dim, dim)
    x = random_general(stream, dim, dim)
    try:
        an = _principal_power(a, p.nu)
        bn = _principal_power(b, 1.0 - p.nu)
        lhs = _sv_norm(an @ x @ bn, p.norm)
    except np.linalg.LinAlgError:
        return _unreliable("kittaneh")
    if not math.isfinite(lhs):
        return _unreliable("kittaneh")
    rhs = _sv_norm(a @ x, p.norm) ** p.nu * _sv_norm(x @ b, p.norm) ** (1.0 - p.nu)
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(
        theorem_id="kittaneh",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -(p.rtol * scale + p.atol),
        hypothesis_ok=False,
    )


# ---------------------------------------------------------------------------
# runners (one per theorem id)


def _run_scalar_ag(stream, dim, p):
    a, b = _scalar_interval(stream)
    return scalar_hh_chain(
        "ag", p.f, a, b, p.quad_n, p.rtol, p.atol, p.grid_n, p.conv_tol, p.check_hypothesis
    )


def _run_scalar_gg(stream, dim, p):
    a, b = _scalar_interval(stream)
    return scalar_hh_chain(
        "gg", p.f, a, b, p.quad_n, p.rtol, p.atol, p.grid_n, p.conv_tol, p.check_hypothesis
    )


def _run_scalar_means(stream, dim, p):
    vals = _log_uniform(stream, 2, SPD_LO, SPD_HI)
    return scalar_mean_chain_report(float(vals[0]), float(vals[1]), p.rtol, p.atol)


def _run_dragomir(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    return dragomir_operator_chain(p.f, a, b, p.quad_n, p.rtol, p.atol)


def _run_op_gg_hh(stream, dim, p):
    if p.drop_commutativity:
        return _run_op_gg_hh_nc(stream, dim, p)
    pair = _commuting(stream, dim)
    return operator_gg_hh_order_chain(
        p.f, pair, p.quad_n, p.rtol, p.grid_n, p.conv_tol, p.check_hypothesis
    )


def _run_op_ag_midpoint(stream, dim, p):
    if p.drop_commutativity:
        return _run_op_ag_midpoint_nc(stream, dim, p)
    pair = _commuting(stream, dim)
    return operator_ag_midpoint_order_chain(
        p.f, pair, p.quad_n, p.rtol, p.grid_n, p.conv_tol, p.check_hypothesis
    )


def _run_op_norm_gg(stream, dim, p):
    if p.drop_commutativity:
        return _run_norm_gg_nc("op_norm_gg", stream, dim, p)
    pair = _commuting(stream, dim)
    return operator_norm_gg_chain(
        p.f, pair, p.norm, p.quad_n, p.rtol, p.atol,
        p.grid_n, p.conv_tol, p.check_hypothesis, theorem_id="op_norm_gg",
    )


def _run_exp_norm(stream, dim, p):
    if p.drop_commutativity:
        return _run_norm_gg_nc("exp_norm", stream, dim, p)
    pair = _commuting(stream, dim)
    return operator_norm_gg_chain(
        p.f, pair, p.norm, p.quad_n, p.rtol, p.atol,
        p.grid_n, p.conv_tol, p.check_hypothesis, theorem_id="exp_norm",
    )


def _run_trace_sqrt(stream, dim, p):
    if p.drop_commutativity:
        return _run_trace_nc(TraceVariant.SQRT, stream, dim, p)
    pair = _commuting(stream, dim)
    return trace_chain(TraceVariant.SQRT, pair, p.quad_n, p.rtol, p.atol)


def _run_trace_squared(stream, dim, p):
    if p.drop_commutativity:
        return _run_trace_nc(TraceVariant.SQUARED, stream, dim, p)
    pair = _commuting(stream, dim)
    return trace_chain(TraceVariant.SQUARED, pair, p.quad_n, p.rtol, p.atol)


def _run_det_ag(stream, dim, p):
    if p.drop_positivity:
        return _run_det_ag_indefinite(stream, dim, p)
    a, b = _spd_pair(stream, dim)
    return det_ag_concavity_check(a, b, p.nu, p.rtol, p.atol)


def _run_am_gm(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    return am_gm_loewner_check(a, b, p.nu, p.rtol)


def _run_norm_power(stream, dim, p):
    t = random_spd(stream, dim, SPD_LO, SPD_HI)
    return norm_power_check(t, None, p.rtol, p.atol)


def _run_kittaneh(stream, dim, p):
    if p.drop_positivity:
        return _run_kittaneh_general(stream, dim, p)
    a, b, x = _spd_pair_with_x(stream, dim)
    return kittaneh_check(a, b, x, p.nu, p.norm, p.rtol, p.atol)


def _run_phi_operator(stream, dim, p):
    if p.drop_commutativity:
        return _run_phi_operator_nc(stream, dim, p)
    pair = _commuting(stream, dim)
    hypothesis_ok = True
    if p.check_hypothesis:
        lo = float(min(np.min(pair.a), np.min(pair.b)))
        hi = float(max(np.max(pair.a), np.max(pair.b)))
        if lo < hi:
            hypothesis_ok = is_gg_convex(p.f, lo, hi, p.grid_n, p.conv_tol).holds
    verdict = ag_convexity_witness(PhiOperator(f=p.f, pair=pair), p.norm, p.grid_n, p.conv_tol)
    return WitnessOutcome(
        theorem_id="phi_operator",
        verdict=verdict,
        passed=verdict.holds,
        hypothesis_ok=hypothesis_ok,
    )


def _run_phi_sandwich(stream, dim, p):
    a, b, x = _spd_pair_with_x(stream, dim)
    verdict = ag_convexity_witness(PhiSandwich(a=a, b=b, x=x), p.norm, p.grid_n, p.conv_tol)
    return WitnessOutcome(theorem_id="phi_sandwich", verdict=verdict, passed=verdict.holds)


def _run_phi_diagonal(stream, dim, p):
    a, b, x = _spd_pair_with_x(stream, dim)
    verdict = ag_convexity_witness(PhiDiagonal(a=a, b=b, x=x), p.norm, p.grid_n, p.conv_tol)
    return WitnessOutcome(theorem_id="phi_diagonal", verdict=verdict, passed=verdict.holds)


def _uin_runner(variant: UinVariant):
    def run(stream, dim, p):
        a, b, x = _spd_pair_with_x(stream, dim)
        return uin_chain(variant, a, b, x, p.norm, p.nu, p.quad_n, p.rtol, p.atol)

    return run


_RUNNERS = {
    "scalar_ag": _run_scalar_ag,
    "scalar_gg": _run_scalar_gg,
    "scalar_means": _run_scalar_means,
    "dragomir": _run_dragomir,
    "op_gg_hh": _run_op_gg_hh,
    "op_ag_midpoint": _run_op_ag_midpoint,
    "op_norm_gg": _run_op_norm_gg,
    "exp_norm": _run_exp_norm,
    "trace_sqrt": _run_trace_sqrt,
    "trace_squared": _run_trace_squared,
    "det_ag": _run_det_ag,
    "am_gm_loewner": _run_am_gm,
    "norm_power": _run_norm_power,
    "kittaneh": _run_kittaneh,
    "phi_operator": _run_phi_operator,
    "phi_sandwich": _run_phi_sandwich,
    "phi_diagonal": _run_phi_diagonal,
    "uin_symmetric": _uin_runner(UinVariant.SYMMETRIC),
    "uin_end_left": _uin_runner(UinVariant.END_LEFT),
    "uin_end_right": _uin_runner(UinVariant.END_RIGHT),
    "uin_full": _uin_runner(UinVariant.FULL),
    "uin_diagonal": _uin_runner(UinVariant.DIAGONAL),
}


# ---------------------------------------------------------------------------
# parameter resolution


def resolve_params(theorem_id: str, cfg: CampaignConfig) -> TrialParams:
    """Fill per-theorem defaults and validate per-theorem constraints."""
    if theorem_id not in THEOREM_IDS:
        raise ConfigError(f"unknown theorem id {theorem_id!r}")

    if theorem_id == "exp_norm":
        f = FunctionSpec.exp(1.0)  # preset; the id names this exact instance
    elif cfg.function is not None:
        f = cfg.function
    elif theorem_id == "dragomir":
        f = FunctionSpec.power(2.0)
    else:
        f = FunctionSpec.exp(1.0)

    if theorem_id == "dragomir":
        ok = (f.kind == "power" and f.params == (2.0,)) or f.kind == "inverse"
        if not ok:
            raise ConfigError(
                f"dragomir requires fn power:2 or inverse, got {f.describe()}"
            )

    norm_spec = cfg.norm
    if norm_spec is None:
        norm_spec = NormSpec.schatten(2.0) if theorem_id in _SCHATTEN2_IDS else NormSpec.opnorm()

    nu = cfg.nu
    if theorem_id == "det_ag" and not 0.0 < nu < 1.0:
        raise ConfigError(f"det_ag needs nu strictly inside (0, 1), got {nu}")
    if theorem_id == "uin_symmetric":
        if nu == 0.5 or not 0.0 < nu < 1.0:
            raise ConfigError(
                f"uin_symmetric needs nu in (0, 1) with nu != 1/2, got {nu}"
            )
    if theorem_id in ("uin_end_left", "uin_end_right"):
        if not 0.0 < nu < 1.0:
            raise ConfigError(f"{theorem_id} needs nu strictly inside (0, 1), got {nu}")
        nu = min(nu, 1.0 - nu) if theorem_id == "uin_end_left" else max(nu, 1.0 - nu)

    flags = cfg.ablation
    return TrialParams(
        f=f,
        norm=norm_spec,
        nu=nu,
        quad_n=cfg.quad_n,
        rtol=cfg.rtol,
        atol=cfg.atol,
        check_hypothesis=not (
            DROP_CONVEXITY_GUARD in flags and theorem_id in _GUARD_ABLATABLE
        ),
        drop_commutativity=DROP_COMMUTATIVITY in flags and theorem_id in _COMMUTING_ABLATABLE,
        drop_positivity=DROP_POSITIVITY in flags and theorem_id in _POSITIVITY_ABLATABLE,
    )


def select_theorems(requested: str | list[str], ablation: frozenset[str]) -> tuple[str, ...]:
    """Expand the --theorem argument; under ablation, 'all' restricts to the
    ids the requested flags actually apply to, while an explicit id that no
    flag touches is a configuration error."""
    if isinstance(requested, str):
        requested = [requested]
    ids: list[str] = []
    for item in requested:
        for tid in item.split(","):
            tid = tid.strip()
            if not tid:
                continue
            if tid == "all":
                ids.extend(THEOREM_IDS)
            elif tid in THEOREM_IDS:
                ids.append(tid)
            else:
                raise ConfigError(f"unknown theorem id {tid!r}")
    seen: list[str] = []
    for tid in ids:
        if tid not in seen:
            seen.append(tid)
    if not seen:
        raise ConfigError("no theorem ids selected")
    if not ablation:
        return tuple(seen)
    applicable = frozenset().union(*(_FLAG_IDS[f] for f in ablation))
    if len(seen) == len(THEOREM_IDS):
        restricted = tuple(t for t in seen if t in applicable)
        if not restricted:
            raise ConfigError("no theorem supports the requested ablation flags")
        return restricted
    for tid in seen:
        if tid not in applicable:
            raise ConfigError(
                f"ablation flags {sorted(ablation)} do not apply to {tid!r}"
            )
    return tuple(seen)


# ---------------------------------------------------------------------------
# campaign loop


@dataclass
class TheoremStats:
    theorem_id: str
    trials_run: int = 0
    pass_count: int = 0
    fail_count: int = 0
    unreliable_count: int = 0
    min_margin: float | None = None
    worst_trial_seed: int | None = None
    # console-only context (not part of the report schema)
    worst_dim: int | None = None
    genuine_violation: bool = False
    expected_violation: bool = False
    hypothesis_failures: int = 0


@dataclass
class CampaignReport:
    version: str
    config: CampaignConfig
    stats: list[TheoremStats]
    wall_time_ms: float
    exit_code: int


def run_trial(theorem_id: str, seed: int, dim: int, params: TrialParams):
    """One seeded trial; the stream is positioned at the derived seed so any
    campaign trial can be replayed by the demo command."""
    stream = RandomStream(seed & _MASK64)
    return _RUNNERS[theorem_id](stream, dim, params)


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    import time

    cfg.validate()
    start = time.perf_counter()
    resolved = {tid: resolve_params(tid, cfg) for tid in cfg.theorem_ids}
    stats: list[TheoremStats] = []
    total_trials = 0
    total_unreliable = 0
    any_genuine = False
    for tid in cfg.theorem_ids:
        params = resolved[tid]
        ablated = (
            params.drop_commutativity
            or params.drop_positivity
            or not params.check_hypothesis
        )
        st = TheoremStats(theorem_id=tid)
        for dim in cfg.dims:
            for trial in range(cfg.trials):
                seed = derive_trial_seed(cfg.master_seed, dim, trial)
                outcome = run_trial(tid, seed, dim, params)
                st.trials_run += 1
                if not outcome.quad_reliable:
                    st.unreliable_count += 1
                    continue
                margin = float(outcome.min_margin)
                if st.min_margin is None or margin < st.min_margin:
                    st.min_margin = margin
                    st.worst_trial_seed = seed
                    st.worst_dim = dim
                if outcome.passed:
                    st.pass_count += 1
                    continue
                st.fail_count += 1
                if not outcome.hypothesis_ok:
                    st.hypothesis_failures += 1
                if ablated:
                    st.expected_violation = True
                elif outcome.hypothesis_ok:
                    st.genuine_violation = True
        total_trials += st.trials_run
        total_unreliable += st.unreliable_count
        any_genuine = any_genuine or st.genuine_violation
        stats.append(st)
    unreliable_frac = total_unreliable / total_trials if total_trials else 0.0
    if any_genuine:
        exit_code = 1
    elif unreliable_frac > 0.01:
        exit_code = 3
    else:
        exit_code = 0
    wall_ms = (time.perf_counter() - start) * 1000.0
    return CampaignReport(
        version=__version__,
        config=cfg,
        stats=stats,
        wall_time_ms=wall_ms,
        exit_code=exit_code,
    )


# ---------------------------------------------------------------------------
# serialization (deterministic: fixed key order, 17 significant digits,
# no wall-clock content)


def _json_value(v, indent: int) -> str:
    pad = "  " * indent
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    if isinstance(v, str):
        import json as _json

        return _json.dumps(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _json_value(x, indent + 1) for x in v)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        import json as _json

        rows = []
        for k, val in v.items():
            rows.append("  " * (indent + 1) + _json.dumps(k) + ": " + _json_value(val, indent + 1))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"unserializable value {v!r}")


def config_echo(cfg: CampaignConfig) -> dict:
    return {
        "theorem_ids": list(cfg.theorem_ids),
        "trials": cfg.trials,
        "dims": list(cfg.dims),
        "master_seed": cfg.master_seed,
        "rtol": cfg.rtol,
        "atol": cfg.atol,
        "norm": cfg.norm.describe() if cfg.norm is not None else None,
        "nu": cfg.nu,
        "quad_n": cfg.quad_n,
        "function": cfg.function.describe() if cfg.function is not None else None,
        "ablation": sorted(cfg.ablation),
    }


def serialize_report(report: CampaignReport) -> str:
    doc = {
        "version": report.version,
        "config": config_echo(report.config),
        "theorems": {
            st.theorem_id: {
                "trials_run": st.trials_run,
                "pass_count": st.pass_count,
                "fail_count": st.fail_count,
                "unreliable_count": st.unreliable_count,
                "min_margin": st.min_margin,
                "worst_trial_seed": st.worst_trial_seed,
            }
            for st in report.stats
        },
    }
    return _json_value(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# single-trial demo


def outcome_to_dict(outcome) -> dict:
    if isinstance(outcome, ChainReport):
        return {
            "type": "chain",
            "theorem_id": outcome.theorem_id,
            "term_names": list(outcome.term_names),
            "term_values": list(outcome.term_values),
            "margins": list(outcome.margins),
            "passed": outcome.passed,
            "quad_reliable": outcome.quad_reliable,
            "hypothesis_ok": outcome.hypothesis_ok,
        }
    if isinstance(outcome, OrderChainReport):
        return {
            "type": "order_chain",
            "theorem_id": outcome.theorem_id,
            "comparisons": [
                {"lhs": c.lhs_name, "rhs": c.rhs_name, "min_gap": c.min_gap}
                for c in outcome.comparisons
            ],
            "passed": outcome.passed,
            "quad_reliable": outcome.quad_reliable,
            "hypothesis_ok": outcome.hypothesis_ok,
        }
    if isinstance(outcome, InequalityReport):
        return {
            "type": "inequality",
            "theorem_id": outcome.theorem_id,
            "lhs": outcome.lhs,
            "rhs": outcome.rhs,
            "margin": outcome.margin,
            "passed": outcome.passed,
            "quad_reliable": outcome.quad_reliable,
            "hypothesis_ok": outcome.hypothesis_ok,
        }
    if isinstance(outcome, WitnessOutcome):
        return {
            "type": "witness",
            "theorem_id": outcome.theorem_id,
            "holds": outcome.verdict.holds,
            "slack": outcome.verdict.slack,
            "worst_triple": list(outcome.verdict.worst_triple),
            "passed": outcome.passed,
            "quad_reliable": outcome.quad_reliable,
            "hypothesis_ok": outcome.hypothesis_ok,
        }
    raise TypeError(f"unknown outcome {outcome!r}")


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def outcome_to_text(outcome, seed: int, dim: int) -> str:
    lines = [
        f"theorem: {outcome.theorem_id}  (dim={dim}, seed={seed})",
        f"status: passed={'yes' if outcome.passed else 'no'} "
        f"quad_reliable={'yes' if outcome.quad_reliable else 'no'} "
        f"hypothesis_ok={'yes' if outcome.hypothesis_ok else 'no'}",
    ]
    if isinstance(outcome, ChainReport):
        width = max(len(n) for n in outcome.term_names)
        lines.append("terms:")
        for name, val in zip(outcome.term_names, outcome.term_values):
            lines.append(f"  {name:<{width}}  {_fmt(val)}")
        lines.append("margins:")
        for i, m in enumerate(outcome.margins):
            lines.append(
                f"  {outcome.term_names[i]} -> {outcome.term_names[i + 1]}: {_fmt(m)}"
            )
    elif isinstance(outcome, OrderChainReport):
        lines.append("loewner comparisons (min eigenvalue of rhs - lhs):")
        for c in outcome.comparisons:
            lines.append(f"  {c.lhs_name} <= {c.rhs_name}: min_gap {_fmt(c.min_gap)}")
    elif isinstance(outcome, InequalityReport):
        lines.append(f"  lhs    {_fmt(outcome.lhs)}")
        lines.append(f"  rhs    {_fmt(outcome.rhs)}")
        lines.append(f"  margin {_fmt(outcome.margin)}")
    elif isinstance(outcome, WitnessOutcome):
        x, y, lam = outcome.verdict.worst_triple
        lines.append(f"  holds  {'yes' if outcome.verdict.holds else 'no'}")
        lines.append(f"  slack  {_fmt(outcome.verdict.slack)}")
        lines.append(f"  worst triple  x={_fmt(x)} y={_fmt(y)} lambda={_fmt(lam)}")
    return "\n".join(lines)


def demo_trial(
    theorem_id: str,
    seed: int,
    dim: int,
    cfg: CampaignConfig | None = None,
):
    """Replay one trial and return (text, payload, outcome)."""
    base = cfg if cfg is not None else CampaignConfig()
    base = replace(base, theorem_ids=(theorem_id,), dims=(dim,), trials=1)
    base.validate()
    params = resolve_params(theorem_id, base)
    outcome = run_trial(theorem_id, seed, dim, params)
    payload = outcome_to_dict(outcome)
    return outcome_to_text(outcome, seed, dim), payload, outcome


def repro_command(theorem_id: str, st: TheoremStats, cfg: CampaignConfig) -> str:
    parts = [
        "hhverify demo",
        f"--theorem {theorem_id}",
        f"--seed {st.worst_trial_seed}",
        f"--dim {st.worst_dim}",
    ]
    if cfg.function is not None:
        parts.append(f"--fn {cfg.function.describe()}")
    if cfg.norm is not None:
        parts.append(f"--norm {cfg.norm.describe()}")
    parts.append(f"--nu {cfg.nu:g}")
    parts.append(f"--quad-n {cfg.quad_n}")
    if cfg.ablation:
        parts.append(f"--ablation {','.join(sorted(cfg.ablation))}")
    return " ".join(parts)
