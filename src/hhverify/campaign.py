"""Campaign driver: the theorem registry, seeded trial runners, pass/fail
accounting, and deterministic report serialization.

Each theorem id has one row in THEOREMS: its runner, the runners that replace
it under an ablation flag, and its parameter rules. A runner draws its inputs from a trial
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
from typing import Callable

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
    dragomir_operator_chain,
    operator_ag_midpoint_order_chain,
    operator_gg_hh_order_chain,
    operator_norm_gg_chain,
    scalar_hh_chain,
    trace_chain,
    uin_chain,
    HH_NODES,
    HH_TERM_NAMES,
    NORM_POWER_ALPHAS,
    GG_HH_TERM_NAMES,
    AG_MIDPOINT_TERM_NAMES,
    TRACE_SQRT_TERM_NAMES,
    TRACE_SQUARED_TERM_NAMES,
    _advisory_convexity,
    _am_gm_stack,
    _chain_report,
    _det_ag_stack,
    _inequality_report,
    _joint_range,
    _kittaneh_stack,
    _means_stack,
    _norm_power_stack,
    _operator_convex,
    _order_report_from_matrices,
    hh_terms,
)
from .errors import ConfigError, ConvergenceError, DomainViolationError, NonFiniteSampleError
from .functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    ConvexityVerdict,
    FunctionSpec,
    _check_grid_n,
    _scan_fine_grid,
)
from .linalg import (
    CommutingPair,
    MAX_DIM,
    _sym,
    eigh,
    matrix_function,
    power_from_decomp,
)
from .norms import NormSpec
from .quadrature import MAX_NODES, integrate_matrix_checked
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


@dataclass
class TrialParams:
    """Per-theorem resolved knobs handed to the runner for every trial."""

    f: FunctionSpec
    norm: NormSpec
    nu: float
    quad_n: int
    rtol: float
    atol: float
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
    # a trial that cannot be judged: excluded from pass/fail, and never a pass
    return InequalityReport(
        theorem_id, 0.0, 0.0, 0.0, passed=False, quad_reliable=False, hypothesis_ok=False
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
        anchors = _nc_phi(da, db, a, b, p.f, p.norm, np.array(HH_NODES)).tolist()
        if min(anchors) <= 0.0:
            return _unreliable(theorem_id)

        def log_phi(ts: np.ndarray) -> np.ndarray:
            # math.log, not np.log: the two can differ in the last bit
            return np.array(
                [math.log(v) for v in _nc_phi(da, db, a, b, p.f, p.norm, ts).tolist()]
            )

        terms, ok = hh_terms(anchors, log_phi, (0.0, 1.0), p.quad_n)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable(theorem_id)
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

    terms, ok = hh_terms(tuple(tau(u) for u in HH_NODES), log_tau_rows, (0.0, 1.0), p.quad_n)
    if variant is TraceVariant.SQUARED:
        terms = terms[:4] + (float(np.sum(la)) * float(np.sum(lb)),)
        return _chain_report(
            "trace_squared", TRACE_SQUARED_TERM_NAMES, terms, p.rtol, p.atol,
            quad_reliable=ok, hypothesis_ok=False,
        )
    # sqrt(tr AB) <= tr sqrt(AB), the latter as the sum of sqrt eig(AB)
    w = np.linalg.eigvals(a @ b).real
    if (w <= 0.0).any():
        return _unreliable("trace_sqrt")
    terms = (math.sqrt(float(np.trace(a @ b))), float(np.sum(np.sqrt(w)))) + terms[1:]
    return _chain_report(
        "trace_sqrt", TRACE_SQRT_TERM_NAMES, terms, p.rtol, p.atol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _run_phi_operator_nc(stream: RandomStream, dim: int, p: TrialParams):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    _check_grid_n(DEFAULT_GRID_N)
    m = DEFAULT_GRID_N * DEFAULT_GRID_N
    ts = np.arange(m + 1) / m
    try:
        vals = _nc_phi(da, db, a, b, p.f, p.norm, ts)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("phi_operator")
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        return _unreliable("phi_operator")
    verdict = _scan_fine_grid(np.log(vals), ts, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL)
    return WitnessOutcome(
        theorem_id="phi_operator", verdict=verdict, passed=verdict.holds, hypothesis_ok=False
    )


def _run_det_ag_indefinite(stream: RandomStream, dim: int, p: TrialParams):
    a = _sym(random_general(stream, dim, dim))
    b = _sym(random_general(stream, dim, dim))
    la, lb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    lhs = float(np.prod(np.abs(la))) ** p.nu * float(np.prod(np.abs(lb))) ** (1.0 - p.nu)
    rhs = float(np.prod(np.linalg.eigvalsh(p.nu * a + (1.0 - p.nu) * b)))
    return _inequality_report("det_ag", lhs, rhs, p.rtol, p.atol, hypothesis_ok=False)


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
    return _inequality_report("kittaneh", lhs, rhs, p.rtol, p.atol, hypothesis_ok=False)


# ---------------------------------------------------------------------------
# the theorem table
#
# A row calls the chain functions through their module-level names, at call
# time, so that whatever is bound to those names (a tracing wrapper, say) is
# what runs.


def _fn_or_exp(f: FunctionSpec | None) -> FunctionSpec:
    return f if f is not None else FunctionSpec.exp(1.0)


def _exp_only(f: FunctionSpec | None) -> FunctionSpec:
    return FunctionSpec.exp(1.0)  # preset; the id names this exact instance


def _operator_convex_fn(f: FunctionSpec | None) -> FunctionSpec:
    f = f if f is not None else FunctionSpec.power(2.0)
    if not _operator_convex(f):
        raise ConfigError(f"dragomir requires fn power:2 or inverse, got {f.describe()}")
    return f


def _any_nu(theorem_id: str, nu: float) -> float:
    return nu


def _inner_nu(theorem_id: str, nu: float) -> float:
    if not 0.0 < nu < 1.0:
        raise ConfigError(f"{theorem_id} needs nu strictly inside (0, 1), got {nu}")
    return nu


def _symmetric_nu(theorem_id: str, nu: float) -> float:
    if nu == 0.5 or not 0.0 < nu < 1.0:
        raise ConfigError(f"{theorem_id} needs nu in (0, 1) with nu != 1/2, got {nu}")
    return nu


@dataclass(frozen=True)
class Theorem:
    """Everything the campaign knows about one theorem id.

    ``run(stream, dim, params)`` draws the trial inputs and returns the
    report. ``batch(seeds, dim, params)``, where a row has one, runs the
    trials of a 1-d uint64 array of seeds as one stack and returns their
    reports in order; such a row's ``run`` is its batch on a stack of one.
    ``drop_commutativity`` and ``drop_positivity`` are the runners
    that replace it under those ablation flags (None: the flag does not
    apply); ``convexity_guard`` says whether DROP_CONVEXITY_GUARD applies.
    ``fn`` maps the configured function (None when unset) to the one the
    theorem uses, ``schatten2`` makes Schatten-2 the default norm instead of
    the operator norm, and ``nu(theorem_id, nu)`` returns the weight the
    theorem uses; both rules raise ConfigError on a value the theorem cannot
    take.
    """

    run: Callable
    batch: Callable | None = None
    drop_commutativity: Callable | None = None
    drop_positivity: Callable | None = None
    convexity_guard: bool = False
    fn: Callable[[FunctionSpec | None], FunctionSpec] = _fn_or_exp
    schatten2: bool = False
    nu: Callable[[str, float], float] = _any_nu


def _batched(batch: Callable, **kwargs) -> Theorem:
    """A row whose trials run as stacks; one trial is a stack of one."""
    return Theorem(
        lambda s, d, p: batch(np.array([s.seed], dtype=np.uint64), d, p)[0],
        batch=batch,
        **kwargs,
    )


def _scalar_hh(kind: str) -> Theorem:
    return Theorem(
        lambda s, d, p: scalar_hh_chain(
            kind, p.f, *_scalar_interval(s), p.quad_n, p.rtol, p.atol, p.check_hypothesis
        ),
        convexity_guard=True,
    )


def _norm_gg(theorem_id: str, fn) -> Theorem:
    return Theorem(
        lambda s, d, p: operator_norm_gg_chain(
            p.f, _commuting(s, d), p.norm, p.quad_n, p.rtol, p.atol,
            check_hypothesis=p.check_hypothesis, theorem_id=theorem_id,
        ),
        drop_commutativity=lambda s, d, p: _run_norm_gg_nc(theorem_id, s, d, p),
        convexity_guard=True,
        fn=fn,
    )


def _trace(variant: TraceVariant) -> Theorem:
    return Theorem(
        lambda s, d, p: trace_chain(variant, _commuting(s, d), p.quad_n, p.rtol, p.atol),
        drop_commutativity=lambda s, d, p: _run_trace_nc(variant, s, d, p),
    )


def _witness(theorem_id: str, curve, p: TrialParams, hypothesis_ok: bool = True):
    verdict = ag_convexity_witness(curve, p.norm)
    return WitnessOutcome(
        theorem_id=theorem_id, verdict=verdict, passed=verdict.holds, hypothesis_ok=hypothesis_ok
    )


def _run_phi_operator(stream: RandomStream, dim: int, p: TrialParams):
    pair = _commuting(stream, dim)
    hypothesis_ok = _advisory_convexity(p.f, *_joint_range(pair), True, p.check_hypothesis)
    return _witness("phi_operator", PhiOperator(f=p.f, pair=pair), p, hypothesis_ok)


def _uin(variant: UinVariant, nu=_any_nu) -> Theorem:
    return Theorem(
        lambda s, d, p: uin_chain(
            variant, *_spd_pair_with_x(s, d), p.norm, p.nu, p.quad_n, p.rtol, p.atol
        ),
        schatten2=True,
        nu=nu,
    )


THEOREMS = {
    "scalar_ag": _scalar_hh("ag"),
    "scalar_gg": _scalar_hh("gg"),
    "scalar_means": _batched(
        lambda seeds, d, p: _means_stack(
            *_log_uniform(RandomStream(seeds), 2, SPD_LO, SPD_HI).T, p.rtol, p.atol
        )
    ),
    "dragomir": Theorem(
        lambda s, d, p: dragomir_operator_chain(p.f, *_spd_pair(s, d), p.quad_n, p.rtol, p.atol),
        fn=_operator_convex_fn,
    ),
    "op_gg_hh": Theorem(
        lambda s, d, p: operator_gg_hh_order_chain(
            p.f, _commuting(s, d), p.quad_n, p.rtol, check_hypothesis=p.check_hypothesis
        ),
        drop_commutativity=_run_op_gg_hh_nc,
        convexity_guard=True,
    ),
    "op_ag_midpoint": Theorem(
        lambda s, d, p: operator_ag_midpoint_order_chain(
            p.f, _commuting(s, d), p.quad_n, p.rtol, check_hypothesis=p.check_hypothesis
        ),
        drop_commutativity=_run_op_ag_midpoint_nc,
        convexity_guard=True,
    ),
    "op_norm_gg": _norm_gg("op_norm_gg", _fn_or_exp),
    "exp_norm": _norm_gg("exp_norm", _exp_only),
    "trace_sqrt": _trace(TraceVariant.SQRT),
    "trace_squared": _trace(TraceVariant.SQUARED),
    "det_ag": _batched(
        lambda seeds, d, p: _det_ag_stack(
            *_spd_pair(RandomStream(seeds), d), p.nu, p.rtol, p.atol
        ),
        drop_positivity=_run_det_ag_indefinite,
        nu=_inner_nu,
    ),
    "am_gm_loewner": _batched(
        lambda seeds, d, p: _am_gm_stack(*_spd_pair(RandomStream(seeds), d), p.nu, p.rtol)
    ),
    "norm_power": _batched(
        lambda seeds, d, p: _norm_power_stack(
            random_spd(RandomStream(seeds), d, SPD_LO, SPD_HI), NORM_POWER_ALPHAS, p.rtol, p.atol
        )
    ),
    "kittaneh": _batched(
        lambda seeds, d, p: _kittaneh_stack(
            *_spd_pair_with_x(RandomStream(seeds), d), p.nu, p.norm, p.rtol, p.atol
        ),
        drop_positivity=_run_kittaneh_general,
        schatten2=True,
    ),
    "phi_operator": Theorem(
        _run_phi_operator, drop_commutativity=_run_phi_operator_nc, convexity_guard=True
    ),
    "phi_sandwich": Theorem(
        lambda s, d, p: _witness("phi_sandwich", PhiSandwich(*_spd_pair_with_x(s, d)), p),
        schatten2=True,
    ),
    "phi_diagonal": Theorem(
        lambda s, d, p: _witness("phi_diagonal", PhiDiagonal(*_spd_pair_with_x(s, d)), p),
        schatten2=True,
    ),
    "uin_symmetric": _uin(UinVariant.SYMMETRIC, _symmetric_nu),
    "uin_end_left": _uin(UinVariant.END_LEFT, lambda t, nu: min(_inner_nu(t, nu), 1.0 - nu)),
    "uin_end_right": _uin(UinVariant.END_RIGHT, lambda t, nu: max(_inner_nu(t, nu), 1.0 - nu)),
    "uin_full": _uin(UinVariant.FULL),
    "uin_diagonal": _uin(UinVariant.DIAGONAL),
}

THEOREM_IDS = tuple(THEOREMS)

_FLAG_IDS = {
    DROP_COMMUTATIVITY: frozenset(t for t, th in THEOREMS.items() if th.drop_commutativity),
    DROP_POSITIVITY: frozenset(t for t, th in THEOREMS.items() if th.drop_positivity),
    DROP_CONVEXITY_GUARD: frozenset(t for t, th in THEOREMS.items() if th.convexity_guard),
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
        if len(set(self.dims)) != len(self.dims):
            raise ConfigError(f"dimensions must not repeat, got {list(self.dims)}")
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



# ---------------------------------------------------------------------------
# parameter resolution


def resolve_params(theorem_id: str, cfg: CampaignConfig) -> TrialParams:
    """Fill per-theorem defaults and validate per-theorem constraints."""
    th = THEOREMS.get(theorem_id)
    if th is None:
        raise ConfigError(f"unknown theorem id {theorem_id!r}")
    f = th.fn(cfg.function)
    norm_spec = cfg.norm
    if norm_spec is None:
        norm_spec = NormSpec.schatten(2.0) if th.schatten2 else NormSpec.opnorm()
    flags = cfg.ablation
    return TrialParams(
        f=f,
        norm=norm_spec,
        nu=th.nu(theorem_id, cfg.nu),
        quad_n=cfg.quad_n,
        rtol=cfg.rtol,
        atol=cfg.atol,
        check_hypothesis=not (DROP_CONVEXITY_GUARD in flags and th.convexity_guard),
        drop_commutativity=DROP_COMMUTATIVITY in flags and th.drop_commutativity is not None,
        drop_positivity=DROP_POSITIVITY in flags and th.drop_positivity is not None,
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
    th = THEOREMS[theorem_id]
    runner = th.run
    if params.drop_commutativity:
        runner = th.drop_commutativity
    elif params.drop_positivity:
        runner = th.drop_positivity
    try:
        return runner(stream, dim, params)
    except (DomainViolationError, NonFiniteSampleError):
        # the trial's inputs take the function out of its domain or out of
        # the float range (f overflows on the convexity grid, a chain term is
        # not finite): the trial cannot be judged
        return _unreliable(theorem_id)


# matrix entries per input stack of a batched block: the block holds
# _BLOCK_ENTRIES // dim^2 trials (8192 at dim 2, 512 at dim 8, 8 at dim 64)
_BLOCK_ENTRIES = 1 << 15


def _outcomes(theorem_id: str, seeds: list[int], dim: int, params: TrialParams):
    """The outcomes of the trials of seeds, in order.

    A row with a batch runs them in blocks of consecutive seeds; a block
    that raises is run again one trial at a time through run_trial, so its
    trials end (or raise) exactly as they do alone.
    """
    batch = THEOREMS[theorem_id].batch
    if batch is None or params.drop_commutativity or params.drop_positivity:
        for seed in seeds:
            yield run_trial(theorem_id, seed, dim, params)
        return
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    for start in range(0, len(seeds), size):
        block = seeds[start : start + size]
        try:
            outcomes = batch(np.array(block, dtype=np.uint64), dim, params)
        except Exception:
            outcomes = [run_trial(theorem_id, seed, dim, params) for seed in block]
        yield from outcomes


def _theorem_stats(tid: str, params: TrialParams, cfg: CampaignConfig) -> TheoremStats:
    """Fold the outcomes of one theorem's trials, in trial order; the worst
    trial moves only on a strictly smaller margin."""
    ablated = params.drop_commutativity or params.drop_positivity or not params.check_hypothesis
    st = TheoremStats(theorem_id=tid)
    for dim in cfg.dims:
        seeds = [derive_trial_seed(cfg.master_seed, dim, t) for t in range(cfg.trials)]
        for seed, outcome in zip(seeds, _outcomes(tid, seeds, dim, params)):
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
    return st


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    import time

    cfg.validate()
    start = time.perf_counter()
    resolved = {tid: resolve_params(tid, cfg) for tid in cfg.theorem_ids}
    # an extreme function overflows in numpy on its way to an unreliable
    # trial; those warnings say nothing the report does not
    with np.errstate(all="ignore"):
        stats = [_theorem_stats(tid, resolved[tid], cfg) for tid in cfg.theorem_ids]
    total_trials = sum(st.trials_run for st in stats)
    total_unreliable = sum(st.unreliable_count for st in stats)
    any_genuine = any(st.genuine_violation for st in stats)
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
    with np.errstate(all="ignore"):
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
