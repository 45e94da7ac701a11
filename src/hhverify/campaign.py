"""Campaign driver: the theorem registry, seeded trial runners, pass/fail
accounting, and deterministic report serialization.

Each theorem id has one row in THEOREMS: its runner, the runners that replace
it under an ablation flag, and its parameter rules. A campaign runs, for each
dim, blocks of consecutive trial seeds (each splitmix64(master ^ ((dim << 32)
+ trial)), so any trial can be replayed in isolation as a block of one), and
every id runs a block before the next one is drawn. A runner takes the block
(a _Block) and hands the inputs of its trials to a chain of ``chains``, the
ablated chains included, which returns one report per trial carrying passed
/ quad_reliable / hypothesis_ok / min_margin. The seeds do not depend on the
id, so the ids share the block's draws: each kind of input (the scalar log
pair, the commuting spectra, the SPD matrices A and B, each checked and
decomposed, the X drawn after them, the general matrices) is drawn once per
block, read-only, and dropped with the block. Every id's outcomes are folded
in trial order.

Accounting: a trial that cannot be judged (its Gauss-Kronrod check failed, or
run_trial caught one of the errors that mean it) is unreliable: excluded from
pass/fail and counted separately.
Failing trials flip the campaign exit code to 1 only when the hypotheses were
intact and no ablation applies to the theorem; ablation failures are expected
violations and leave the exit code at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import __version__
from .chains import (
    DEFAULT_QUAD_N,
    NORM_POWER_ALPHAS,
    ChainReport,
    InequalityReport,
    OrderChainReport,
    TraceVariant,
    UinVariant,
    _advisory_convexity,
    _Pair,
    _Side,
    _am_gm_stack,
    _commuting_order_stack,
    _det_ag_stack,
    _dragomir_stack,
    _joint_ranges,
    _kittaneh_stack,
    _means_stack,
    _norm_gg_stack,
    _norm_power_stack,
    _operator_convex,
    _phi_operator_verdicts,
    _phi_product_verdicts,
    _scalar_hh_stack,
    _side,
    _trace_stack,
    _two_sided_verdicts,
    _TwoSidedPowers,
    _uin_stack,
    det_ag_indefinite,
    kittaneh_general,
    norm_gg_general,
    op_ag_midpoint_general,
    op_gg_hh_general,
    trace_chain_general,
)
from .errors import ConfigError, ConvergenceError, DomainViolationError, NonFiniteSampleError
from .functions import ConvexityVerdict, FunctionSpec, exact_g
from .linalg import MAX_DIM
from .norms import NormSpec
from .quadrature import MAX_NODES
from .sampler import (
    RandomStream,
    _log_uniform,
    commuting_spectra,
    derive_trial_seed,
    random_general,
    random_spd,
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
# trial inputs: a block of seeds and the draws its runners share


def _scalar_interval(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints a < b of each trial's interval: its row of a (T, 2) log
    pair, sorted."""
    a, b = vals.min(axis=-1), vals.max(axis=-1)
    tie = a == b  # measure zero: b moves up by one ulp
    if tie.any():
        b = np.where(tie, np.nextafter(b, np.inf), b)
    return a, b


def _read_only(value):
    """value, with every array it holds (the items of a tuple, the attributes
    of a _TwoSidedPowers) marked read-only, so that a chain that writes into
    a shared input raises ValueError instead of changing another id's bits."""
    if isinstance(value, _TwoSidedPowers):
        items = vars(value).values()
    else:
        items = value if isinstance(value, tuple) else (value,)
    for item in items:
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return value


class _Block:
    """One block of trial seeds at one dimension, and the inputs that every
    theorem id's runner draws for it.

    A trial's seed does not depend on the theorem id, and every draw is a
    pure function of (seeds, dim), so each kind of input is drawn once, on
    first use, kept read-only while the block runs and handed to every id
    that asks for it. A draw that raises is not kept (a cached_property
    stores only what returns): each runner that needs it draws it again and
    raises as it would alone.
    """

    def __init__(self, seeds: np.ndarray, dim: int):
        self.seeds, self.dim = seeds, dim

    @cached_property
    def log_pair(self) -> np.ndarray:
        """(T, 2) log-uniform values: scalar_means' pair, and sorted, the
        interval of the scalar chains."""
        return _read_only(_log_uniform(RandomStream(self.seeds), 2, SPD_LO, SPD_HI))

    @cached_property
    def interval(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(_scalar_interval(self.log_pair))

    @cached_property
    def commuting(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectra of commuting pairs; no runner reads their basis, so it is not drawn."""
        return _read_only(commuting_spectra(RandomStream(self.seeds), self.dim, SPD_LO, SPD_HI))

    def _spd_side(self, state: np.ndarray) -> tuple[_Side, np.ndarray]:
        """The _Side of a random_spd drawn from the block's stream at state,
        and the state where the stream stopped."""
        stream = RandomStream(state)
        side = _side(random_spd(stream, self.dim, SPD_LO, SPD_HI))
        return _read_only(side), _read_only(stream.state)

    @cached_property
    def a(self) -> tuple[_Side, np.ndarray]:
        """A, the first random_spd of the stream: norm_power reads it alone."""
        return self._spd_side(self.seeds)

    @cached_property
    def b(self) -> tuple[_Side, np.ndarray]:
        """B, the random_spd drawn after A."""
        return self._spd_side(self.a[1])

    @cached_property
    def pair(self) -> _Pair:
        """The checked spectral view of A and B that every SPD runner reads:
        A and B are checked and decomposed once per block."""
        return _Pair(self.a[0], self.b[0])

    @cached_property
    def two_sided(self) -> _TwoSidedPowers:
        """The view and a general X drawn after B, with Qa' X Qb: for
        kittaneh and the two-sided curves, the only runners that read X."""
        x = random_general(RandomStream(self.b[1]), self.dim, self.dim)
        return _read_only(_TwoSidedPowers.of_stacks(self.pair, x))

    @cached_property
    def general(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Three general matrices from one stream, for the DROP_POSITIVITY rows."""
        stream = RandomStream(self.seeds)
        return _read_only(tuple(random_general(stream, self.dim, self.dim) for _ in range(3)))


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

    ``run(block, params)`` takes the inputs of the trials of a _Block from
    the block's shared draws and returns their reports in order; a replay is
    the same runner on a block of one seed. ``drop_commutativity`` and
    ``drop_positivity`` are the runners, of the same form, that replace it
    under those ablation flags (None: the flag does not apply);
    ``convexity_guard`` says whether DROP_CONVEXITY_GUARD applies.
    ``fn`` maps the configured function (None when unset) to the one the
    theorem uses, ``schatten2`` makes Schatten-2 the default norm instead of
    the operator norm, and ``nu(theorem_id, nu)`` returns the weight the
    theorem uses; both rules raise ConfigError on a value the theorem cannot
    take.
    """

    run: Callable
    drop_commutativity: Callable | None = None
    drop_positivity: Callable | None = None
    convexity_guard: bool = False
    fn: Callable[[FunctionSpec | None], FunctionSpec] = _fn_or_exp
    schatten2: bool = False
    nu: Callable[[str, float], float] = _any_nu


def _scalar_hh(kind: str) -> Theorem:
    return Theorem(
        lambda block, p: _scalar_hh_stack(
            kind, p.f, *block.interval, p.quad_n, p.rtol, p.atol, p.check_hypothesis
        ),
        convexity_guard=True,
    )


def _commuting_order(theorem_id: str, general) -> Theorem:
    return Theorem(
        lambda block, p: _commuting_order_stack(
            theorem_id, p.f, *block.commuting, p.quad_n, p.rtol, p.check_hypothesis
        ),
        drop_commutativity=lambda block, p: general(p.f, block.pair, p.quad_n, p.rtol),
        convexity_guard=True,
    )


def _norm_gg(theorem_id: str, fn, convexity_guard: bool = True) -> Theorem:
    return Theorem(
        lambda block, p: _norm_gg_stack(
            theorem_id, p.f, *block.commuting, p.norm, p.quad_n, p.rtol, p.atol,
            p.check_hypothesis,
        ),
        drop_commutativity=lambda block, p: norm_gg_general(
            theorem_id, p.f, block.pair, p.norm, p.quad_n, p.rtol, p.atol
        ),
        convexity_guard=convexity_guard,
        fn=fn,
    )


def _trace(variant: TraceVariant) -> Theorem:
    return Theorem(
        lambda block, p: _trace_stack(variant, *block.commuting, p.quad_n, p.rtol, p.atol),
        drop_commutativity=lambda block, p: trace_chain_general(
            variant, block.pair, p.quad_n, p.rtol, p.atol
        ),
    )


def _witness(theorem_id: str, verdict: ConvexityVerdict, hypothesis_ok: bool = True):
    return WitnessOutcome(
        theorem_id=theorem_id, verdict=verdict, passed=verdict.holds, hypothesis_ok=hypothesis_ok
    )


def _phi_operator_batch(block: _Block, p: TrialParams):
    a, b = block.commuting
    # the witness refuses a joint spectrum outside the domain of f, which the
    # hypothesis scan then may assume
    verdicts = _phi_operator_verdicts(p.f, a, b, p.norm)
    holds = _advisory_convexity(p.f, *_joint_ranges(a, b), True, p.check_hypothesis)
    return [_witness("phi_operator", v, ok) for v, ok in zip(verdicts, holds)]


def _two_sided_witness(theorem_id: str, diagonal: bool) -> Theorem:
    return Theorem(
        lambda block, p: [
            _witness(theorem_id, v)
            for v in _two_sided_verdicts(block.two_sided, diagonal, p.norm)
        ],
        schatten2=True,
    )


def _uin(variant: UinVariant, nu=_any_nu) -> Theorem:
    return Theorem(
        lambda block, p: _uin_stack(
            variant, block.two_sided, p.norm, p.nu, p.quad_n, p.rtol, p.atol
        ),
        schatten2=True,
        nu=nu,
    )


THEOREMS = {
    "scalar_ag": _scalar_hh("ag"),
    "scalar_gg": _scalar_hh("gg"),
    "scalar_means": Theorem(lambda block, p: _means_stack(*block.log_pair.T, p.rtol, p.atol)),
    "dragomir": Theorem(
        lambda block, p: _dragomir_stack(p.f, block.pair, p.rtol),
        fn=_operator_convex_fn,
    ),
    "op_gg_hh": _commuting_order("op_gg_hh", lambda *args: op_gg_hh_general(*args)),
    "op_ag_midpoint": _commuting_order(
        "op_ag_midpoint", lambda *args: op_ag_midpoint_general(*args)
    ),
    "op_norm_gg": _norm_gg("op_norm_gg", _fn_or_exp),
    # exp_norm ignores --fn, so no function can make its guard matter
    "exp_norm": _norm_gg("exp_norm", _exp_only, convexity_guard=False),
    "trace_sqrt": _trace(TraceVariant.SQRT),
    "trace_squared": _trace(TraceVariant.SQUARED),
    "det_ag": Theorem(
        lambda block, p: _det_ag_stack(block.pair, p.nu, p.rtol, p.atol),
        drop_positivity=lambda block, p: det_ag_indefinite(
            *block.general[:2], p.nu, p.rtol, p.atol
        ),
        nu=_inner_nu,
    ),
    "am_gm_loewner": Theorem(lambda block, p: _am_gm_stack(block.pair, p.nu, p.rtol)),
    "norm_power": Theorem(
        lambda block, p: _norm_power_stack(block.a[0], NORM_POWER_ALPHAS, p.rtol, p.atol)
    ),
    "kittaneh": Theorem(
        lambda block, p: _kittaneh_stack(block.two_sided, p.nu, p.norm, p.rtol, p.atol),
        drop_positivity=lambda block, p: kittaneh_general(
            *block.general, p.nu, p.norm, p.rtol, p.atol
        ),
        schatten2=True,
    ),
    "phi_operator": Theorem(
        _phi_operator_batch,
        drop_commutativity=lambda block, p: [
            _witness("phi_operator", v, hypothesis_ok=False)
            for v in _phi_product_verdicts(p.f, block.pair, p.norm)
        ],
        convexity_guard=True,
    ),
    "phi_sandwich": _two_sided_witness("phi_sandwich", diagonal=False),
    "phi_diagonal": _two_sided_witness("phi_diagonal", diagonal=True),
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
    quad_n: int = DEFAULT_QUAD_N
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
        # the Gauss-Kronrod check takes a rule of 2 * quad_n + 1 nodes
        if not 1 <= self.quad_n <= MAX_NODES // 2:
            raise ConfigError(f"quad_n must lie in [1, {MAX_NODES // 2}], got {self.quad_n}")
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


def _runner(theorem_id: str, params: TrialParams) -> Callable:
    """The runner of theorem_id under the ablation flags of params."""
    th = THEOREMS[theorem_id]
    if params.drop_commutativity:
        return th.drop_commutativity
    if params.drop_positivity:
        return th.drop_positivity
    return th.run


def run_trial(theorem_id: str, seed: int, dim: int, params: TrialParams):
    """One seeded trial: the runner on a block of one seed, so any campaign
    trial can be replayed by the demo command."""
    block = _Block(np.array([seed & _MASK64], dtype=np.uint64), dim)
    try:
        return _runner(theorem_id, params)(block, params)[0]
    except (DomainViolationError, NonFiniteSampleError, ConvergenceError, np.linalg.LinAlgError):
        # the trial's inputs take the function out of its domain or out of
        # the float range (f overflows on the convexity grid, a chain term is
        # not finite), or out of what an eigen- or singular-value routine can
        # take: it cannot be judged
        return _unreliable(theorem_id)


# matrix entries per input stack of a block: the block holds
# _BLOCK_ENTRIES // dim^2 trials (8192 at dim 2, 512 at dim 8, 8 at dim 64)
_BLOCK_ENTRIES = 1 << 15


def _blocks(seeds: list[int], dim: int):
    """The blocks of consecutive seeds that a campaign runs at dim."""
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    for start in range(0, len(seeds), size):
        yield _Block(np.array(seeds[start : start + size], dtype=np.uint64), dim)


def _block_outcomes(theorem_id: str, block: _Block, params: TrialParams) -> list:
    """The outcomes of the trials of block, in order. A block that raises is
    run again one trial at a time through run_trial, so its trials end (or
    raise) exactly as they do alone."""
    try:
        return _runner(theorem_id, params)(block, params)
    except Exception:
        return [run_trial(theorem_id, seed, block.dim, params) for seed in block.seeds.tolist()]


def _fold(st: TheoremStats, params: TrialParams, block: _Block, outcomes) -> None:
    """Fold the outcomes of a block's trials into st, in trial order; the
    worst trial moves only on a strictly smaller margin."""
    ablated = params.drop_commutativity or params.drop_positivity or not params.check_hypothesis
    for seed, outcome in zip(block.seeds.tolist(), outcomes):
        st.trials_run += 1
        if not outcome.quad_reliable:
            st.unreliable_count += 1
            continue
        margin = float(outcome.min_margin)
        if st.min_margin is None or margin < st.min_margin:
            st.min_margin = margin
            st.worst_trial_seed = seed
            st.worst_dim = block.dim
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


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    import time

    cfg.validate()
    start = time.perf_counter()
    resolved = {tid: resolve_params(tid, cfg) for tid in cfg.theorem_ids}
    stats = [TheoremStats(theorem_id=tid) for tid in cfg.theorem_ids]
    # an extreme function overflows in numpy on its way to an unreliable
    # trial; those warnings say nothing the report does not
    with np.errstate(all="ignore"):
        for dim in cfg.dims:
            seeds = [derive_trial_seed(cfg.master_seed, dim, t) for t in range(cfg.trials)]
            # every id runs a block before the next block is drawn, so the
            # block's draws are shared by all ids and dropped after them
            for block in _blocks(seeds, dim):
                for st in stats:
                    params = resolved[st.theorem_id]
                    _fold(st, params, block, _block_outcomes(st.theorem_id, block, params))
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
    # a trial that cannot be judged has no verdict, whatever its terms say
    verdict = "n/a" if not outcome.quad_reliable else "yes" if outcome.passed else "no"
    lines = [
        f"theorem: {outcome.theorem_id}  (dim={dim}, seed={seed})",
        f"status: passed={verdict} "
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
    parts.append(f"--nu {exact_g(cfg.nu)}")
    parts.append(f"--quad-n {cfg.quad_n}")
    for name in ("rtol", "atol"):
        if getattr(cfg, name) != getattr(CampaignConfig, name):
            parts.append(f"--{name} {exact_g(getattr(cfg, name))}")
    if cfg.ablation:
        parts.append(f"--ablation {','.join(sorted(cfg.ablation))}")
    return " ".join(parts)
