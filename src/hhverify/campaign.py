"""Campaign driver: the theorem registry, seeded trial runners, pass/fail
accounting, and deterministic report serialization.

Each theorem id has one row in THEOREMS: its runner, the runners that replace
it under an ablation flag, and its parameter rules. A runner takes a block of
trial seeds (each splitmix64(master ^ ((dim << 32) + trial)), so any trial can
be replayed in isolation as a block of one), draws the inputs of every trial
of the block and hands them to a chain of ``chains``, the ablated chains
included, which returns one report per trial carrying passed /
quad_reliable / hypothesis_ok / min_margin. Every runner, the ablated ones
included, evaluates its block as stacks of trials.

Accounting: a trial that cannot be judged (quadrature doubling failed, or
run_trial caught one of the errors that mean it) is unreliable: excluded from
pass/fail and counted separately.
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
    NORM_POWER_ALPHAS,
    ChainReport,
    InequalityReport,
    OrderChainReport,
    TraceVariant,
    UinVariant,
    _advisory_convexity,
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
from .linalg import MAX_DIM, check_commuting_stack
from .norms import NormSpec
from .quadrature import MAX_NODES
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


def _scalar_interval(stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    vals = _log_uniform(stream, 2, SPD_LO, SPD_HI)
    a, b = vals.min(axis=-1), vals.max(axis=-1)
    tie = a == b  # measure zero: b moves up by one ulp
    if tie.any():
        b = np.where(tie, np.nextafter(b, np.inf), b)
    return a, b


def _commuting_spectra(stream: RandomStream, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectra of a block's commuting pairs, checked as CommutingPair
    checks each pair."""
    q, a, b = random_commuting_pair(stream, dim, SPD_LO, SPD_HI)
    check_commuting_stack(q, a, b)
    return a, b


def _spd_pair(stream: RandomStream, dim: int) -> tuple[np.ndarray, np.ndarray]:
    return random_spd(stream, dim, SPD_LO, SPD_HI), random_spd(stream, dim, SPD_LO, SPD_HI)


def _spd_pair_with_x(stream: RandomStream, dim: int):
    a, b = _spd_pair(stream, dim)
    return a, b, random_general(stream, dim, dim)


def _general(stream: RandomStream, dim: int, k: int) -> list[np.ndarray]:
    return [random_general(stream, dim, dim) for _ in range(k)]


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

    ``run(seeds, dim, params)`` draws the inputs of the trials of a 1-d
    uint64 array of seeds and returns their reports in order; a replay is
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
        lambda seeds, d, p: _scalar_hh_stack(
            kind, p.f, *_scalar_interval(RandomStream(seeds)), p.quad_n, p.rtol, p.atol,
            p.check_hypothesis,
        ),
        convexity_guard=True,
    )


def _commuting_order(theorem_id: str, general) -> Theorem:
    return Theorem(
        lambda seeds, d, p: _commuting_order_stack(
            theorem_id, p.f, *_commuting_spectra(RandomStream(seeds), d), p.quad_n, p.rtol,
            p.check_hypothesis,
        ),
        drop_commutativity=lambda seeds, d, p: general(
            p.f, *_spd_pair(RandomStream(seeds), d), p.quad_n, p.rtol
        ),
        convexity_guard=True,
    )


def _norm_gg(theorem_id: str, fn) -> Theorem:
    return Theorem(
        lambda seeds, d, p: _norm_gg_stack(
            theorem_id, p.f, *_commuting_spectra(RandomStream(seeds), d), p.norm, p.quad_n,
            p.rtol, p.atol, p.check_hypothesis,
        ),
        drop_commutativity=lambda seeds, d, p: norm_gg_general(
            theorem_id, p.f, *_spd_pair(RandomStream(seeds), d), p.norm, p.quad_n, p.rtol, p.atol
        ),
        convexity_guard=True,
        fn=fn,
    )


def _trace(variant: TraceVariant) -> Theorem:
    return Theorem(
        lambda seeds, d, p: _trace_stack(
            variant, *_commuting_spectra(RandomStream(seeds), d), p.quad_n, p.rtol, p.atol
        ),
        drop_commutativity=lambda seeds, d, p: trace_chain_general(
            variant, *_spd_pair(RandomStream(seeds), d), p.quad_n, p.rtol, p.atol
        ),
    )


def _witness(theorem_id: str, verdict: ConvexityVerdict, hypothesis_ok: bool = True):
    return WitnessOutcome(
        theorem_id=theorem_id, verdict=verdict, passed=verdict.holds, hypothesis_ok=hypothesis_ok
    )


def _phi_operator_batch(seeds: np.ndarray, dim: int, p: TrialParams):
    a, b = _commuting_spectra(RandomStream(seeds), dim)
    # the witness refuses a joint spectrum outside the domain of f, which the
    # hypothesis scan then may assume
    verdicts = _phi_operator_verdicts(p.f, a, b, p.norm)
    holds = _advisory_convexity(p.f, *_joint_ranges(a, b), True, p.check_hypothesis)
    return [_witness("phi_operator", v, ok) for v, ok in zip(verdicts, holds)]


def _two_sided_witness(theorem_id: str, diagonal: bool) -> Theorem:
    return Theorem(
        lambda seeds, d, p: [
            _witness(theorem_id, v)
            for v in _two_sided_verdicts(
                _TwoSidedPowers.of_stacks(*_spd_pair_with_x(RandomStream(seeds), d)),
                diagonal,
                p.norm,
            )
        ],
        schatten2=True,
    )


def _uin(variant: UinVariant, nu=_any_nu) -> Theorem:
    return Theorem(
        lambda seeds, d, p: _uin_stack(
            variant, _TwoSidedPowers.of_stacks(*_spd_pair_with_x(RandomStream(seeds), d)),
            p.norm, p.nu, p.quad_n, p.rtol, p.atol,
        ),
        schatten2=True,
        nu=nu,
    )


THEOREMS = {
    "scalar_ag": _scalar_hh("ag"),
    "scalar_gg": _scalar_hh("gg"),
    "scalar_means": Theorem(
        lambda seeds, d, p: _means_stack(
            *_log_uniform(RandomStream(seeds), 2, SPD_LO, SPD_HI).T, p.rtol, p.atol
        )
    ),
    "dragomir": Theorem(
        lambda seeds, d, p: _dragomir_stack(
            p.f, *_spd_pair(RandomStream(seeds), d), p.quad_n, p.rtol
        ),
        fn=_operator_convex_fn,
    ),
    "op_gg_hh": _commuting_order("op_gg_hh", lambda *args: op_gg_hh_general(*args)),
    "op_ag_midpoint": _commuting_order(
        "op_ag_midpoint", lambda *args: op_ag_midpoint_general(*args)
    ),
    "op_norm_gg": _norm_gg("op_norm_gg", _fn_or_exp),
    "exp_norm": _norm_gg("exp_norm", _exp_only),
    "trace_sqrt": _trace(TraceVariant.SQRT),
    "trace_squared": _trace(TraceVariant.SQUARED),
    "det_ag": Theorem(
        lambda seeds, d, p: _det_ag_stack(
            *_spd_pair(RandomStream(seeds), d), p.nu, p.rtol, p.atol
        ),
        drop_positivity=lambda seeds, d, p: det_ag_indefinite(
            *_general(RandomStream(seeds), d, 2), p.nu, p.rtol, p.atol
        ),
        nu=_inner_nu,
    ),
    "am_gm_loewner": Theorem(
        lambda seeds, d, p: _am_gm_stack(*_spd_pair(RandomStream(seeds), d), p.nu, p.rtol)
    ),
    "norm_power": Theorem(
        lambda seeds, d, p: _norm_power_stack(
            random_spd(RandomStream(seeds), d, SPD_LO, SPD_HI), NORM_POWER_ALPHAS, p.rtol, p.atol
        )
    ),
    "kittaneh": Theorem(
        lambda seeds, d, p: _kittaneh_stack(
            *_spd_pair_with_x(RandomStream(seeds), d), p.nu, p.norm, p.rtol, p.atol
        ),
        drop_positivity=lambda seeds, d, p: kittaneh_general(
            *_general(RandomStream(seeds), d, 3), p.nu, p.norm, p.rtol, p.atol
        ),
        schatten2=True,
    ),
    "phi_operator": Theorem(
        _phi_operator_batch,
        drop_commutativity=lambda seeds, d, p: [
            _witness("phi_operator", v, hypothesis_ok=False)
            for v in _phi_product_verdicts(p.f, *_spd_pair(RandomStream(seeds), d), p.norm)
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
        # the doubling check integrates again with 2 * quad_n nodes
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
    run, seeds = _runner(theorem_id, params), np.array([seed & _MASK64], dtype=np.uint64)
    try:
        return run(seeds, dim, params)[0]
    except (DomainViolationError, NonFiniteSampleError, ConvergenceError, np.linalg.LinAlgError):
        # the trial's inputs take the function out of its domain or out of
        # the float range (f overflows on the convexity grid, a chain term is
        # not finite), or out of what an eigen- or singular-value routine can
        # take (an ablated product's spectrum is not real): it cannot be judged
        return _unreliable(theorem_id)


# matrix entries per input stack of a block: the block holds
# _BLOCK_ENTRIES // dim^2 trials (8192 at dim 2, 512 at dim 8, 8 at dim 64)
_BLOCK_ENTRIES = 1 << 15


def _outcomes(theorem_id: str, seeds: list[int], dim: int, params: TrialParams):
    """The outcomes of the trials of seeds, in order.

    The runner takes them in blocks of consecutive seeds; a block that
    raises is run again one trial at a time through run_trial, so its
    trials end (or raise) exactly as they do alone.
    """
    run = _runner(theorem_id, params)
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    for start in range(0, len(seeds), size):
        block = seeds[start : start + size]
        try:
            outcomes = run(np.array(block, dtype=np.uint64), dim, params)
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
