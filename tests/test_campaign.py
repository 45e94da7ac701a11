"""Campaign driver: parameter resolution, theorem selection, deterministic
accounting, exit codes, serialization, and single-trial replay."""

import json
import math
import sys
from dataclasses import asdict, replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from hhverify import (
    ABLATION_FLAGS,
    THEOREM_IDS,
    CampaignConfig,
    ConfigError,
    FunctionSpec,
    NormSpec,
    demo_trial,
    run_campaign,
    run_trial,
    select_theorems,
    serialize_report,
)
from hhverify import campaign, chains, functions, quadrature
from hhverify.campaign import (
    DROP_COMMUTATIVITY,
    DROP_CONVEXITY_GUARD,
    DROP_POSITIVITY,
    WitnessOutcome,
    _unreliable,
    outcome_to_dict,
    outcome_to_text,
    repro_command,
    resolve_params,
)
from hhverify.chains import (
    AG_MIDPOINT_TERM_NAMES,
    GG_HH_TERM_NAMES,
    HH_NODES,
    HH_TERM_NAMES,
    TRACE_SQRT_TERM_NAMES,
    TRACE_SQUARED_TERM_NAMES,
    ChainReport,
    InequalityReport,
    UinVariant,
    _chain_reports,
    _inequality_reports,
)
from hhverify.errors import (
    ConvergenceError,
    DomainViolationError,
    NonFiniteSampleError,
    NotPositiveDefiniteError,
)
from hhverify.functions import (
    DEFAULT_CONVEXITY_TOL,
    DEFAULT_GRID_N,
    MEAN_CHAIN_NAMES,
    STACK_ENTRIES,
    ConvexityVerdict,
    _scan_fine_grid,
    parse_function,
    scalar_mean_chain,
)
from hhverify.linalg import (
    CommutingPair,
    _apply_stack,
    _f_of_spectrum,
    _power_stack,
    _spectrum_powers,
    _sym,
    LoewnerOrdering,
    SpectralDecomp,
    check_symmetric,
    det_pd,
    eigh,
    loewner_compare,
    matrix_function,
    operator_norm_sym,
    power_from_decomp,
    weighted_geometric_mean,
)
from hhverify.norms import norm, norms_from_eig_rows, norms_of_stack, parse_norm
from hhverify.quadrature import (
    integrate_matrix_checked,
    integrate_scalar_checked,
    integrate_stack_checked,
)
from hhverify.sampler import (
    RandomStream,
    _log_uniform,
    derive_trial_seed,
    random_commuting_pair,
    random_general,
    random_spd,
)

SMALL = dict(trials=10, dims=(2, 3), master_seed=7)


def _outcomes(tid, seeds, dim, params):
    """The outcomes of one id's trials of seeds, run in the campaign's blocks."""
    return [
        o
        for block in campaign._blocks(seeds, dim)
        for o in campaign._block_outcomes(tid, block, params)
    ]


def _spd_pair(stream, dim):
    """The SPD pair a trial draws: two random_spd from its stream."""
    lo, hi = campaign.SPD_LO, campaign.SPD_HI
    return random_spd(stream, dim, lo, hi), random_spd(stream, dim, lo, hi)


# the report rules of one trial, as Python floats: the reference of the block
# builders chains._chain_reports and chains._inequality_reports


def _chain_report(
    theorem_id, names, values, rtol, atol, quad_reliable=True, hypothesis_ok=True
):
    vals = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in vals):
        raise DomainViolationError(f"{theorem_id}: non-finite chain term in {vals}")
    margins = tuple(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    tol = rtol * max(1.0, max(abs(v) for v in vals)) + atol
    return ChainReport(
        theorem_id=theorem_id,
        term_names=names,
        term_values=vals,
        margins=margins,
        passed=all(m >= -tol for m in margins),
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _inequality_report(theorem_id, lhs, rhs, rtol, atol, quad_reliable=True, hypothesis_ok=True):
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityReport(
        theorem_id=theorem_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=margin >= -(rtol * scale + atol),
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


# ---------------------------------------------------------------------------
# config validation and parameter resolution


def test_config_validation():
    good = CampaignConfig(theorem_ids=("scalar_ag",), **SMALL)
    good.validate()
    cases = (
        dict(trials=0),
        dict(dims=()),
        dict(dims=(0,)),
        dict(dims=(65,)),
        dict(dims=(2, 2)),
        dict(rtol=0.0),
        dict(rtol=math.inf),
        dict(atol=-1.0),
        dict(nu=1.5),
        dict(quad_n=0),
        dict(quad_n=257),
        dict(quad_n=513),
        dict(ablation=frozenset({"DROP_EVERYTHING"})),
        dict(theorem_ids=("nope",)),
    )
    for kw in cases:
        with pytest.raises(ConfigError):
            CampaignConfig(**{**dict(theorem_ids=("scalar_ag",)), **kw}).validate()


def test_resolve_exp_norm_function_is_pinned():
    cfg = CampaignConfig(function=FunctionSpec.power(2.0))
    p = resolve_params("exp_norm", cfg)
    assert p.f.kind == "exp" and p.f.params == (1.0,)


def test_resolve_dragomir_function_gate():
    assert resolve_params("dragomir", CampaignConfig()).f.describe() == "power:2"
    ok = resolve_params("dragomir", CampaignConfig(function=FunctionSpec.inverse()))
    assert ok.f.kind == "inverse"
    with pytest.raises(ConfigError):
        resolve_params("dragomir", CampaignConfig(function=FunctionSpec.exp()))


def test_resolve_norm_defaults():
    cfg = CampaignConfig()
    assert resolve_params("kittaneh", cfg).norm.params == (2.0,)
    assert resolve_params("uin_full", cfg).norm.params == (2.0,)
    assert math.isinf(resolve_params("op_norm_gg", cfg).norm.params[0])
    assert math.isinf(resolve_params("norm_power", cfg).norm.params[0])
    explicit = CampaignConfig(norm=NormSpec.schatten(3.0))
    assert resolve_params("kittaneh", explicit).norm.params == (3.0,)


def test_resolve_nu_constraints_and_folding():
    assert resolve_params("uin_end_left", CampaignConfig(nu=0.7)).nu == pytest.approx(0.3)
    assert resolve_params("uin_end_right", CampaignConfig(nu=0.3)).nu == pytest.approx(0.7)
    with pytest.raises(ConfigError):
        resolve_params("uin_symmetric", CampaignConfig(nu=0.5))
    with pytest.raises(ConfigError):
        resolve_params("uin_end_left", CampaignConfig(nu=0.0))
    with pytest.raises(ConfigError):
        resolve_params("det_ag", CampaignConfig(nu=1.0))
    with pytest.raises(ConfigError):
        resolve_params("made_up", CampaignConfig())


def test_resolve_ablation_flags_scoped_to_applicable_ids():
    cfg = CampaignConfig(ablation=frozenset({DROP_CONVEXITY_GUARD}))
    assert not resolve_params("scalar_ag", cfg).check_hypothesis
    assert resolve_params("trace_sqrt", cfg).check_hypothesis
    cfg = CampaignConfig(ablation=frozenset({DROP_COMMUTATIVITY}))
    assert resolve_params("trace_sqrt", cfg).drop_commutativity
    assert not resolve_params("scalar_ag", cfg).drop_commutativity
    cfg = CampaignConfig(ablation=frozenset({DROP_POSITIVITY}))
    assert resolve_params("det_ag", cfg).drop_positivity
    assert not resolve_params("trace_sqrt", cfg).drop_positivity


def test_theorem_table_order_and_ablation_sets():
    assert THEOREM_IDS == (
        "scalar_ag", "scalar_gg", "scalar_means", "dragomir", "op_gg_hh", "op_ag_midpoint",
        "op_norm_gg", "exp_norm", "trace_sqrt", "trace_squared", "det_ag", "am_gm_loewner",
        "norm_power", "kittaneh", "phi_operator", "phi_sandwich", "phi_diagonal",
        "uin_symmetric", "uin_end_left", "uin_end_right", "uin_full", "uin_diagonal",
    )
    assert campaign._FLAG_IDS == {
        DROP_COMMUTATIVITY: frozenset({
            "op_gg_hh", "op_ag_midpoint", "op_norm_gg", "exp_norm",
            "trace_sqrt", "trace_squared", "phi_operator",
        }),
        DROP_POSITIVITY: frozenset({"det_ag", "kittaneh"}),
        DROP_CONVEXITY_GUARD: frozenset({
            "scalar_ag", "scalar_gg", "op_gg_hh", "op_ag_midpoint", "op_norm_gg", "phi_operator",
        }),
    }


# ---------------------------------------------------------------------------
# theorem selection


def test_select_all_preserves_registry_order():
    assert select_theorems("all", frozenset()) == THEOREM_IDS


def test_select_dedupes_and_keeps_first_position():
    got = select_theorems(["scalar_gg", "scalar_ag,scalar_gg"], frozenset())
    assert got == ("scalar_gg", "scalar_ag")


def test_select_rejects_unknown_and_empty():
    with pytest.raises(ConfigError):
        select_theorems("banana", frozenset())
    with pytest.raises(ConfigError):
        select_theorems("", frozenset())


def test_select_all_under_ablation_restricts():
    got = select_theorems("all", frozenset({DROP_POSITIVITY}))
    assert got == ("det_ag", "kittaneh")
    both = select_theorems("all", frozenset({DROP_POSITIVITY, DROP_COMMUTATIVITY}))
    assert set(both) == {
        "det_ag",
        "kittaneh",
        "op_gg_hh",
        "op_ag_midpoint",
        "op_norm_gg",
        "exp_norm",
        "trace_sqrt",
        "trace_squared",
        "phi_operator",
    }
    assert list(both) == [t for t in THEOREM_IDS if t in set(both)]


def test_drop_convexity_guard_leaves_exp_norm_out():
    # exp_norm ignores --fn and always runs exp:1, so its guard cannot matter
    got = select_theorems("all", frozenset({DROP_CONVEXITY_GUARD}))
    assert "exp_norm" not in got and "op_norm_gg" in got
    with pytest.raises(ConfigError):
        select_theorems("exp_norm", frozenset({DROP_CONVEXITY_GUARD}))


def test_select_explicit_id_must_support_flags():
    with pytest.raises(ConfigError):
        select_theorems("scalar_ag", frozenset({DROP_POSITIVITY}))
    assert select_theorems("det_ag", frozenset({DROP_POSITIVITY})) == ("det_ag",)


# ---------------------------------------------------------------------------
# campaign accounting and determinism


def test_campaign_deterministic_and_clean():
    cfg = CampaignConfig(theorem_ids=("scalar_ag", "kittaneh"), **SMALL)
    r1, r2 = run_campaign(cfg), run_campaign(cfg)
    assert r1.exit_code == 0
    assert serialize_report(r1) == serialize_report(r2)
    for st in r1.stats:
        assert st.trials_run == 20
        assert st.pass_count == 20
        assert st.fail_count == 0 and st.unreliable_count == 0
        # near-equality terms may leave margins a hair below zero; the pass
        # tolerance absorbs that
        assert st.min_margin is not None and st.min_margin > -1e-9


def test_report_schema_and_round_trip():
    cfg = CampaignConfig(theorem_ids=("scalar_means", "am_gm_loewner"), **SMALL)
    report = run_campaign(cfg)
    text = serialize_report(report)
    assert text.endswith("\n") and not text.endswith("\n\n")
    doc = json.loads(text)
    assert list(doc.keys()) == ["version", "config", "theorems"]
    assert list(doc["theorems"].keys()) == ["scalar_means", "am_gm_loewner"]
    for tid, entry in doc["theorems"].items():
        assert list(entry.keys()) == [
            "trials_run",
            "pass_count",
            "fail_count",
            "unreliable_count",
            "min_margin",
            "worst_trial_seed",
        ]
    # 17 significant digits: parsed floats reproduce the in-memory values bit
    # for bit, and the wall clock never reaches the file
    st = report.stats[0]
    assert doc["theorems"]["scalar_means"]["min_margin"] == st.min_margin
    assert doc["theorems"]["scalar_means"]["worst_trial_seed"] == st.worst_trial_seed
    assert "wall_time" not in text
    assert doc["config"]["norm"] is None and doc["config"]["ablation"] == []


def _every_trial(outcome):
    """A block runner whose every trial ends in outcome(), or in what it raises."""
    return lambda block, p: [outcome() for _ in block.seeds.tolist()]


def test_exit_code_one_on_genuine_violation(monkeypatch):
    from hhverify import campaign as mod

    def broken():
        return InequalityReport("scalar_ag", 1.0, 0.0, -1.0, passed=False)

    monkeypatch.setitem(
        mod.THEOREMS, "scalar_ag", replace(mod.THEOREMS["scalar_ag"], run=_every_trial(broken))
    )
    cfg = CampaignConfig(theorem_ids=("scalar_ag",), **SMALL)
    report = run_campaign(cfg)
    assert report.exit_code == 1
    assert report.stats[0].genuine_violation
    assert report.stats[0].fail_count == 20


def test_exit_code_three_on_unreliable_fraction(monkeypatch):
    from hhverify import campaign as mod

    monkeypatch.setitem(
        mod.THEOREMS,
        "scalar_ag",
        replace(mod.THEOREMS["scalar_ag"], run=_every_trial(lambda: _unreliable("scalar_ag"))),
    )
    cfg = CampaignConfig(theorem_ids=("scalar_ag",), **SMALL)
    report = run_campaign(cfg)
    assert report.exit_code == 3
    assert report.stats[0].unreliable_count == 20
    assert report.stats[0].pass_count == 0
    # the sentinel's margin must never enter the accounting
    assert report.stats[0].min_margin is None


@pytest.mark.parametrize("error", [ConvergenceError, np.linalg.LinAlgError])
def test_convergence_and_lapack_errors_make_the_trial_unreliable(error, monkeypatch):
    def broken():
        raise error("planted")

    monkeypatch.setitem(
        campaign.THEOREMS,
        "scalar_ag",
        replace(campaign.THEOREMS["scalar_ag"], run=_every_trial(broken)),
    )
    report = run_campaign(CampaignConfig(theorem_ids=("scalar_ag",), **SMALL))
    assert report.stats[0].unreliable_count == report.stats[0].trials_run == 20
    assert report.exit_code == 3
    _, payload, outcome = demo_trial("scalar_ag", 7, 2)
    assert not outcome.quad_reliable and not payload["passed"]


def test_genuine_violation_outranks_unreliable(monkeypatch):
    from hhverify import campaign as mod

    monkeypatch.setitem(
        mod.THEOREMS,
        "scalar_ag",
        replace(mod.THEOREMS["scalar_ag"], run=_every_trial(lambda: _unreliable("scalar_ag"))),
    )
    monkeypatch.setitem(
        mod.THEOREMS,
        "scalar_gg",
        replace(
            mod.THEOREMS["scalar_gg"],
            run=_every_trial(
                lambda: InequalityReport("scalar_gg", 1.0, 0.0, -1.0, passed=False)
            ),
        ),
    )
    cfg = CampaignConfig(theorem_ids=("scalar_ag", "scalar_gg"), **SMALL)
    assert run_campaign(cfg).exit_code == 1


def test_ablated_failures_are_expected_not_genuine():
    cfg = CampaignConfig(
        theorem_ids=("det_ag",),
        trials=200,
        dims=(3,),
        master_seed=5,
        ablation=frozenset({DROP_POSITIVITY}),
    )
    report = run_campaign(cfg)
    st = report.stats[0]
    assert st.fail_count >= 1
    assert st.expected_violation and not st.genuine_violation
    assert report.exit_code == 0


def test_dropped_convexity_guard_fails_once_the_function_is_not_ag_convex():
    # exp:1 passes every guard, so dropping them induces nothing; power:3 is
    # not log-convex, and both AG chains then fail on every trial
    def run(function):
        return run_campaign(
            CampaignConfig(
                theorem_ids=("scalar_ag", "op_ag_midpoint"),
                trials=10,
                dims=(2, 3),
                function=function,
                ablation=frozenset({DROP_CONVEXITY_GUARD}),
            )
        )

    assert [st.fail_count for st in run(None).stats] == [0, 0]
    report = run(FunctionSpec.power(3.0))
    for st in report.stats:
        assert st.fail_count == st.trials_run == 20
        assert st.expected_violation and not st.genuine_violation
    assert report.exit_code == 0


def test_hypothesis_unmet_failures_do_not_flip_exit_code():
    # power:2 is not AG-convex; the guard flags every trial it breaks
    cfg = CampaignConfig(
        theorem_ids=("scalar_ag",),
        trials=50,
        dims=(2,),
        master_seed=11,
        function=FunctionSpec.power(2.0),
    )
    report = run_campaign(cfg)
    st = report.stats[0]
    assert st.fail_count >= 1
    assert st.hypothesis_failures == st.fail_count
    assert not st.genuine_violation
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# replay and rendering


def test_demo_replays_worst_campaign_trial():
    cfg = CampaignConfig(theorem_ids=("scalar_gg",), trials=30, dims=(2, 3), master_seed=99)
    st = run_campaign(cfg).stats[0]
    text, payload, outcome = demo_trial("scalar_gg", st.worst_trial_seed, st.worst_dim)
    assert outcome.min_margin == st.min_margin
    assert payload["type"] == "chain"
    assert text.startswith("theorem: scalar_gg")


def test_run_trial_is_a_pure_function_of_seed():
    params = resolve_params("kittaneh", CampaignConfig())
    seed = derive_trial_seed(42, 3, 17)
    a = run_trial("kittaneh", seed, 3, params)
    b = run_trial("kittaneh", seed, 3, params)
    assert a.lhs == b.lhs and a.rhs == b.rhs and a.margin == b.margin


def test_outcome_rendering_for_all_report_types():
    cases = (
        ("scalar_ag", "chain"),
        ("dragomir", "order_chain"),
        ("kittaneh", "inequality"),
        ("phi_sandwich", "witness"),
    )
    for tid, kind in cases:
        seed = derive_trial_seed(1, 3, 0)
        text, payload, outcome = demo_trial(tid, seed, 3)
        assert payload["type"] == kind
        assert payload["theorem_id"] == tid
        assert payload["passed"] is True
        assert f"theorem: {tid}" in text
        assert "passed=yes" in text
        json.dumps(payload)  # payload must be plain JSON types


def test_witness_outcome_margin_is_slack():
    v = ConvexityVerdict(holds=True, worst_triple=(0.1, 0.2, 0.5), slack=0.25)
    w = WitnessOutcome("phi_sandwich", v, passed=True)
    assert w.min_margin == 0.25
    d = outcome_to_dict(w)
    assert d["slack"] == 0.25 and d["holds"] is True
    assert "slack" in outcome_to_text(w, seed=1, dim=2)


def test_repro_command_round_trip():
    cfg = CampaignConfig(theorem_ids=("scalar_ag",), **SMALL)
    st = run_campaign(cfg).stats[0]
    cmd = repro_command("scalar_ag", st, cfg)
    assert cmd == (
        f"hhverify demo --theorem scalar_ag --seed {st.worst_trial_seed} "
        f"--dim {st.worst_dim} --nu 0.3 --quad-n 64"
    )
    abl = CampaignConfig(
        theorem_ids=("det_ag",),
        ablation=frozenset({DROP_POSITIVITY}),
        function=FunctionSpec.inverse(),
        norm=NormSpec.schatten(1.0),
    )
    st2 = run_campaign(
        CampaignConfig(theorem_ids=("det_ag",), trials=5, dims=(2,), master_seed=1)
    ).stats[0]
    cmd2 = repro_command("det_ag", st2, abl)
    assert "--fn inverse" in cmd2
    assert "--norm tracenorm" in cmd2
    assert "--ablation DROP_POSITIVITY" in cmd2


# ---------------------------------------------------------------------------
# DROP_COMMUTATIVITY: stacked runners against the per-node loop they replace


def _ref_f_of_product(xl, xq, y, fn):
    """fn(XY) for X = xq diag(xl) xq^T and a symmetric positive Y, restated
    on one matrix or one trial's stack: X^(1/2) fn(S) X^(-1/2) with S the
    symmetric part of X^(1/2) Y X^(1/2), which is similar to XY."""
    if not (xl > 0.0).all():
        raise DomainViolationError("X is not positive definite")
    root = np.sqrt(xl)[..., None, :]
    half = (xq * root) @ np.swapaxes(xq, -1, -2)
    inv_half = (xq / root) @ np.swapaxes(xq, -1, -2)
    s = half @ y @ half
    mu, v = np.linalg.eigh(0.5 * (s + np.swapaxes(s, -1, -2)))
    if not (mu > 0.0).all():
        raise DomainViolationError("the spectrum of XY is not positive")
    return ((half @ v) * fn(mu)[..., None, :]) @ (np.swapaxes(v, -1, -2) @ inv_half)


def _ref_power_products(a, b, ss, rs, fn):
    """Qa' fn(A^s B^r) Qa at each exponent pair (s, r) of the 1-d arrays ss
    and rs, for one pair A, B restated from eigh of each: A^s B^r is similar
    to A^(s/2) B^r A^(s/2) = Qa G G' Qa' with G = diag(la^(s/2)) Qa'Qb
    diag(lb^(r/2)), so it is diag(la^(s/2)) W diag(fn(mu)) W' diag(la^(-s/2))
    in A's basis, with (mu, W) from eigh of G G'."""
    (la, qa), (lb, qb) = (np.linalg.eigh(check_symmetric(m)) for m in (a, b))
    half = _spectrum_powers(la, 0.5 * ss)
    g = (qa.T @ qb) * half[:, :, None] * _spectrum_powers(lb, 0.5 * rs)[:, None, :]
    mu, w = np.linalg.eigh(g @ np.swapaxes(g, 1, 2))
    if not ((half > 0.0).all() and (mu > 0.0).all()):
        raise DomainViolationError("A^s, or the spectrum of A^s B^r, is not positive")
    return (w * half[:, :, None] * fn(mu)[:, None, :]) @ (np.swapaxes(w, 1, 2) / half[:, None, :])


def _ref_mean_of_logs(a, b, log_f):
    """(log f(A) + log f(B))/2 in the eigenbasis of A, from eigh of each."""
    (la, qa), (lb, qb) = (np.linalg.eigh(check_symmetric(m)) for m in (a, b))
    c = qa.T @ qb
    return 0.5 * (np.diag(log_f(la)) + _ref_sym((c * log_f(lb)) @ c.T))


# what a per-node reference makes an unreliable trial
_REF_UNRELIABLE = (np.linalg.LinAlgError, DomainViolationError, NonFiniteSampleError)


def _ref_sym(m):
    return 0.5 * (m + m.T)


def _ref_order_report_from_matrices(
    theorem_id, names, mats, rtol, quad_reliable=True, hypothesis_ok=True
):
    """The Loewner chain of the per-trial code: loewner_compare on each link."""
    comps = []
    passed = True
    for k in range(len(mats) - 1):
        verdict = loewner_compare(mats[k], mats[k + 1], tol=rtol)
        comps.append(chains.Comparison(names[k], names[k + 1], verdict.min_gap))
        passed = passed and verdict.ordering in (
            LoewnerOrdering.LESS_EQUAL,
            LoewnerOrdering.EQUAL,
        )
    return chains.OrderChainReport(
        theorem_id=theorem_id,
        comparisons=tuple(comps),
        passed=passed,
        quad_reliable=quad_reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _ref_integrate_checked(node, n):
    """The [0, 1] integral of node(t), sampled one node at a time, and its
    Gauss-Kronrod flag."""
    return integrate_stack_checked(lambda ts: np.stack([node(float(t)) for t in ts]), 0.0, 1.0, n)


def _ref_phi(a, b, f, spec, t):
    """||f(A^t B^(1-t))|| at one node t, normed in A's basis."""
    m = _ref_power_products(a, b, np.array([t]), np.array([1.0 - t]), f.eval_array)[0]
    return float(norms_of_stack(m, spec))


def _ref_op_gg_hh(stream, dim, p):
    """The op_gg_hh chain of one trial, one node at a time, in A's basis."""
    a, b = _spd_pair(stream, dim)

    def log_f(w):
        return np.log(p.f.eval_array(w))

    one = np.ones(1)
    try:
        t1 = _ref_sym(_ref_power_products(a, b, one, one, lambda w: log_f(np.sqrt(w)))[0])

        def node(t):
            ss, rs = np.array([t]), np.array([1.0 - t])
            return _ref_sym(_ref_power_products(a, b, ss, rs, log_f)[0])

        t2, ok = _ref_integrate_checked(node, p.quad_n)
    except _REF_UNRELIABLE:
        return _unreliable("op_gg_hh")
    t3 = _ref_mean_of_logs(a, b, log_f)
    return _ref_order_report_from_matrices(
        "op_gg_hh", GG_HH_TERM_NAMES, (t1, t2, t3), p.rtol, quad_reliable=ok, hypothesis_ok=False
    )


def _ref_op_ag_midpoint(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    fa, fb = matrix_function(da, p.f), matrix_function(db, p.f)
    t1 = matrix_function(eigh(0.5 * (a + b)), p.f)
    try:

        def node(al):
            lam, q = np.linalg.eigh(_ref_sym(al * a + (1.0 - al) * b))
            fq = matrix_function(eigh((1.0 - al) * a + al * b), p.f)
            return _ref_sym(_ref_f_of_product(_f_of_spectrum(p.f, lam), q, fq, np.sqrt))

        t2, ok = _ref_integrate_checked(node, p.quad_n)
        t3 = _ref_sym(_ref_f_of_product(_f_of_spectrum(p.f, da.eigenvalues), da.q, fb, np.sqrt))
    except _REF_UNRELIABLE:
        return _unreliable("op_ag_midpoint")
    return _ref_order_report_from_matrices(
        "op_ag_midpoint", AG_MIDPOINT_TERM_NAMES, (t1, t2, t3), p.rtol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _ref_norm_gg(theorem_id, stream, dim, p):
    a, b = _spd_pair(stream, dim)
    try:
        anchors = [_ref_phi(a, b, p.f, p.norm, u) for u in (0.0, 0.25, 0.5, 0.75, 1.0)]
        if min(anchors) <= 0.0:
            return _unreliable(theorem_id)

        def g(ts):
            return np.array([math.log(_ref_phi(a, b, p.f, p.norm, float(t))) for t in ts])

        integral, ok = integrate_scalar_checked(g, 0.0, 1.0, p.quad_n)
    except _REF_UNRELIABLE:
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
        theorem_id, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=ok, hypothesis_ok=False
    )


def _ref_phi_operator(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    m = DEFAULT_GRID_N * DEFAULT_GRID_N
    ts = np.arange(m + 1) / m
    try:
        vals = np.array([_ref_phi(a, b, p.f, p.norm, float(t)) for t in ts])
    except _REF_UNRELIABLE:
        return _unreliable("phi_operator")
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        return _unreliable("phi_operator")
    verdict = _scan_fine_grid(np.log(vals), ts, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL)
    return WitnessOutcome(
        theorem_id="phi_operator", verdict=verdict, passed=verdict.holds, hypothesis_ok=False
    )


_PER_NODE_CASES = (
    ("op_gg_hh", _ref_op_gg_hh, ("opnorm",)),
    ("op_ag_midpoint", _ref_op_ag_midpoint, ("opnorm",)),
    (
        "op_norm_gg",
        lambda s, d, p: _ref_norm_gg("op_norm_gg", s, d, p),
        ("opnorm", "schatten:2", "kyfan:2", "schatten:3"),
    ),
    (
        "exp_norm",
        lambda s, d, p: _ref_norm_gg("exp_norm", s, d, p),
        ("opnorm", "kyfan:2"),
    ),
    ("phi_operator", _ref_phi_operator, ("opnorm", "schatten:2", "kyfan:2")),
)


@pytest.mark.parametrize(
    "tid, reference, norms", _PER_NODE_CASES, ids=[c[0] for c in _PER_NODE_CASES]
)
def test_stacked_nc_runners_match_per_node_loop(tid, reference, norms):
    for norm_text in norms:
        for fn, quad_n in ((None, 64), (FunctionSpec.power(3.0), 33)):
            cfg = CampaignConfig(
                norm=parse_norm(norm_text), function=fn, quad_n=quad_n,
                ablation=frozenset({DROP_COMMUTATIVITY}),
            )
            params = resolve_params(tid, cfg)
            assert params.drop_commutativity
            for dim in (2, 3, 5, 8):
                for trial in range(2):
                    seed = derive_trial_seed(2015, dim, trial)
                    want = outcome_to_dict(reference(RandomStream(seed), dim, params))
                    got = outcome_to_dict(run_trial(tid, seed, dim, params))
                    assert got == want, (tid, norm_text, fn, dim, seed)


def test_f_of_product_refuses_any_bad_matrix_in_a_stack():
    x = np.array([[2.0, 0.5], [0.5, 1.0]])
    y = np.array([[1.0, 0.3], [0.3, 2.0]])
    xl, xq = np.linalg.eigh(x)
    stack = np.stack([y, y, y])
    root = chains._f_of_product(xl, xq, stack, np.sqrt)
    np.testing.assert_array_equal(root[1], chains._f_of_product(xl, xq, y, np.sqrt))
    np.testing.assert_allclose(root[1] @ root[1], x @ y, rtol=1e-14)
    indefinite = stack.copy()
    indefinite[1] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1, in the middle of the stack
    with pytest.raises(DomainViolationError):
        chains._f_of_product(xl, xq, indefinite, np.sqrt)
    infinite = stack.copy()
    infinite[2, 0, 0] = np.inf  # eigh, unlike eig, takes it
    unreliable = (DomainViolationError, np.linalg.LinAlgError)
    with np.errstate(invalid="ignore"), pytest.raises(unreliable):
        chains._f_of_product(xl, xq, infinite, np.sqrt)
    # a singular X: S has a zero row and column, yet eigh can round all of its
    # spectrum positive, and X^(-1/2) is not finite
    singular, y4 = np.array([1.0, 0.0, 3.0, 4.0]), np.ones((4, 4)) + np.eye(4)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(DomainViolationError):
        chains._f_of_product(singular, np.eye(4), y4, np.sqrt)


def test_power_products_are_f_of_the_product_in_a_basis():
    stream = RandomStream(derive_trial_seed(21, 4, 0))
    a, b = (np.stack([random_spd(stream, 4) for _ in range(3)]) for _ in range(2))
    pair = chains._pair(a, b)
    ss, rs = np.array([0.0, 0.3, 1.0, 1.0]), np.array([1.0, 0.7, 0.0, 1.0])
    got = chains._f_of_power_product(pair, slice(None), ss, rs, np.sqrt)
    for t in range(3):
        qa = pair.a.q[t]
        want = _eig_power_products(a[t], b[t], ss, rs, np.sqrt)
        np.testing.assert_allclose(qa @ got[t] @ qa.T, want, rtol=0.0, atol=1e-12)
    # the trials of an index array have their bits in the whole stack
    rows = np.array([2, 0])
    assert _same_bits((chains._f_of_power_product(pair, rows, ss, rs, np.sqrt),), (got[rows],))
    # A^s that is not positive in one trial of the stack
    bad = chains._pair(np.stack((a[0], -a[1], a[2])), b)
    with pytest.raises(DomainViolationError, match="X, or the spectrum of XY, is not positive"):
        chains._f_of_power_product(bad, slice(None), np.array([2.0]), np.array([1.0]), np.sqrt)


def test_eig_function_gives_each_matrix_of_a_stack_its_bits_alone():
    # eigenvalues 2 +- 1e-10i make eig return the whole stack as complex, and
    # the principal powers of the ablated kittaneh then take the matrices
    # with real spectra again
    near_real = np.array([[2.0, 1e-10], [-1e-10, 2.0]])

    def power(w):
        return np.power(w.astype(np.complex128), 0.3)

    for trial in range(200):
        stream = RandomStream(derive_trial_seed(14, 2, trial))
        ab = random_spd(stream, 2) @ random_spd(stream, 2)
        got = chains._eig_function(np.stack([ab, near_real]), power)[0]
        assert got.tobytes() == chains._eig_function(ab, power).tobytes(), trial


@pytest.mark.parametrize("tid", ["op_gg_hh", "op_ag_midpoint", "op_norm_gg", "phi_operator"])
def test_one_bad_node_makes_the_nc_trial_unreliable(tid, monkeypatch):
    real_f_of_product, real_power_product = chains._f_of_product, chains._f_of_power_product

    def one_bad_node(xl, xq, y, fn):
        if y.ndim == 4:  # the points of a curve, not an end term
            y = y.copy()
            y[:, min(3, y.shape[1] - 1)] *= -1.0  # a negative definite Y at one point
        return real_f_of_product(xl, xq, y, fn)

    def one_bad_power(pair, rows, ss, rs, fn):
        if ss.size > 1:  # the points of a curve, not an end term
            ss = ss.copy()
            ss[min(3, ss.size - 1)] = np.nan  # A^s is not positive at one point
        return real_power_product(pair, rows, ss, rs, fn)

    monkeypatch.setattr(chains, "_f_of_product", one_bad_node)
    monkeypatch.setattr(chains, "_f_of_power_product", one_bad_power)
    params = resolve_params(tid, CampaignConfig(ablation=frozenset({DROP_COMMUTATIVITY})))
    outcome = run_trial(tid, derive_trial_seed(3, 3, 0), 3, params)
    assert not outcome.quad_reliable


def test_drop_commutativity_campaign_shows_expected_violations():
    flags = frozenset({DROP_COMMUTATIVITY})
    cfg = CampaignConfig(
        theorem_ids=select_theorems("all", flags), trials=4, dims=(3, 5), master_seed=0,
        ablation=flags,
    )
    report = run_campaign(cfg)
    stats = {st.theorem_id: st for st in report.stats}
    assert set(stats) == {
        "op_gg_hh", "op_ag_midpoint", "op_norm_gg", "exp_norm",
        "trace_sqrt", "trace_squared", "phi_operator",
    }
    for tid in ("op_gg_hh", "op_ag_midpoint"):
        assert stats[tid].fail_count >= 1, tid
        assert stats[tid].expected_violation, tid
    assert not any(st.genuine_violation for st in report.stats)
    # README exit codes: ablation violations leave 0, more than 1% unreliable gives 3
    total = sum(st.trials_run for st in report.stats)
    unreliable = sum(st.unreliable_count for st in report.stats)
    assert report.exit_code == (3 if unreliable / total > 0.01 else 0)


# ---------------------------------------------------------------------------
# the ablated rows as stacks of trials: the per-trial chains they replace,
# which evaluated one trial's nodes in blocks of whole nodes. They take f of
# a product of two positives by a route: the similarity route of the chains
# (bit for bit), or the eig route the chains took before, kept as an oracle


def _pt_over_nodes(fn, ts, node_entries):
    return np.concatenate([fn(ts[sl]) for sl in functions._blocks(ts.shape[0], node_entries)])


def _pt_general_apply(m, fn):
    """fn on the spectrum of each product of positives of a stack, through
    np.linalg.eig and inv; a stack that eig makes complex is taken again one
    matrix at a time."""
    w, v = np.linalg.eig(m)
    wr = w.real
    if not np.isfinite(wr).all() or (wr <= 0.0).any():
        raise ConvergenceError("not positive")
    if (np.max(np.abs(w.imag), axis=-1) > 1e-8 * (1.0 + np.max(np.abs(wr), axis=-1))).any():
        raise ConvergenceError("not real")
    if w.ndim == 2 and np.iscomplexobj(w):
        return np.stack([_pt_general_apply(x, fn) for x in m])
    return np.real((v * fn(wr)[..., None, :]) @ np.linalg.inv(v))


class _Route(NamedTuple):
    # fn(XY) from the spectrum xl and basis xq of X, and Y
    product: Callable
    # fn(A^s B^r) from A and B at each (s, r) of two 1-d arrays, in the
    # route's basis
    power_products: Callable
    # (log f(A) + log f(B))/2 from A, B and log f, in the route's basis
    mean_of_logs: Callable
    # the checked integral of a matrix curve on [0, 1]
    integrate: Callable
    # the spectrum of AB from eigh(A), A and B
    ab_spectrum: Callable


def _similar_ab_spectrum(da, a, b):
    half = (da.q * np.sqrt(da.eigenvalues)) @ da.q.T
    return np.linalg.eigvalsh(_ref_sym(half @ b @ half))


def _eig_power_products(a, b, ss, rs, fn):
    da, db = eigh(a), eigh(b)
    xy = _apply_stack(da.q, _spectrum_powers(da.eigenvalues, ss)) @ _power_stack(
        db.eigenvalues, db.q, rs, b
    )
    return _pt_general_apply(xy, fn)


def _eig_mean_of_logs(a, b, log_f):
    da, db = eigh(a), eigh(b)
    return 0.5 * (da.apply(log_f(da.eigenvalues)) + db.apply(log_f(db.eigenvalues)))


# the chains' routes in A's eigenbasis (bit for bit), and the eig route in the
# standard basis
_SIMILAR = _Route(
    _ref_f_of_product, _ref_power_products, _ref_mean_of_logs, integrate_stack_checked,
    _similar_ab_spectrum,
)
_EIG = _Route(
    lambda xl, xq, y, fn: _pt_general_apply(_apply_stack(xq, xl) @ y, fn),
    _eig_power_products,
    _eig_mean_of_logs,
    integrate_matrix_checked,
    lambda da, a, b: np.linalg.eigvals(a @ b).real,
)


def _pt_phi(a, b, f, spec, ts, route):
    def block(t):
        return norms_of_stack(route.power_products(a, b, t, 1.0 - t, f.eval_array), spec)

    return _pt_over_nodes(block, ts, b.size)


def _pt_order_chain(tid, names, t1, nodes, t3, p, route):
    t2, ok = route.integrate(lambda ts: _pt_over_nodes(nodes, ts, t1.size), 0.0, 1.0, p.quad_n)
    return chains._order_report_from_matrices(
        tid, names, (t1, t2, t3), p.rtol, quad_reliable=ok, hypothesis_ok=False
    )


def _pt_op_gg_hh(tid, stream, dim, p, route=_SIMILAR):
    a, b = _spd_pair(stream, dim)

    def log_f(w):
        return np.log(p.f.eval_array(w))

    one = np.ones(1)
    t1 = _ref_sym(route.power_products(a, b, one, one, lambda w: log_f(np.sqrt(w)))[0])

    def nodes(ts):
        return _sym(route.power_products(a, b, ts, 1.0 - ts, log_f))

    t3 = route.mean_of_logs(a, b, log_f)
    return _pt_order_chain(tid, GG_HH_TERM_NAMES, t1, nodes, t3, p, route)


def _pt_op_ag_midpoint(tid, stream, dim, p, route=_SIMILAR):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    fb = matrix_function(db, p.f)
    t1 = matrix_function(eigh(0.5 * (a + b)), p.f)

    def segment(x, y, ts):
        lam, q = np.linalg.eigh(_sym(ts[:, None, None] * x + (1.0 - ts)[:, None, None] * y))
        return _f_of_spectrum(p.f, lam), q

    def nodes(als):
        fq = _apply_stack(*segment(b, a, als)[::-1])
        return _sym(route.product(*segment(a, b, als), fq, np.sqrt))

    t3 = _sym(route.product(_f_of_spectrum(p.f, da.eigenvalues), da.q, fb, np.sqrt))
    return _pt_order_chain(tid, AG_MIDPOINT_TERM_NAMES, t1, nodes, t3, p, route)


def _pt_norm_gg(tid, stream, dim, p, route=_SIMILAR):
    a, b = _spd_pair(stream, dim)

    def log_phi(ts):
        return np.array([math.log(v) for v in _pt_phi(a, b, p.f, p.norm, ts, route).tolist()])

    anchors = _pt_phi(a, b, p.f, p.norm, np.array(HH_NODES), route).tolist()
    if (np.asarray(anchors) <= 0.0).any():
        raise DomainViolationError("norm curve is not strictly positive")
    pieces = [integrate_stack_checked(log_phi, 0.0, 1.0, p.quad_n)]
    terms, reliable = _ref_hh(anchors, pieces, 1.0)
    return _chain_report(
        tid, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=reliable, hypothesis_ok=False
    )


def _pt_phi_operator(tid, stream, dim, p, route=_SIMILAR):
    a, b = _spd_pair(stream, dim)
    vals = _pt_phi(a, b, p.f, p.norm, _REF_TS, route)
    return _ref_witness(tid, vals, _REF_TS, hypothesis_ok=False)


def _pt_trace(tid, stream, dim, p, route=_SIMILAR):
    a, b = _spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    la, lb = da.eigenvalues, db.eigenvalues
    overlap = (da.q.T @ db.q) ** 2
    pw = 2.0 if tid == "trace_squared" else 1.0

    def tau(u):
        return float(np.power(la, pw * u) @ overlap @ np.power(lb, pw * (1.0 - u)))

    def log_tau(ts):
        pa = np.power(la[None, :], pw * ts[:, None])
        pb = np.power(lb[None, :], pw * (1.0 - ts)[:, None])
        return np.log(np.einsum("ti,ij,tj->t", pa, overlap, pb))

    if tid == "trace_sqrt":
        w = route.ab_spectrum(da, a, b)
        if not (w > 0.0).all():
            raise DomainViolationError("the spectrum of AB is not positive")
        ends = (math.sqrt(float(np.trace(a @ b))), float(np.sum(np.sqrt(w))))
    pieces = [integrate_stack_checked(log_tau, 0.0, 1.0, p.quad_n)]
    terms, reliable = _ref_hh(tuple(tau(u) for u in HH_NODES), pieces, 1.0)
    if tid == "trace_sqrt":
        names, terms = TRACE_SQRT_TERM_NAMES, ends + terms[1:]
    else:
        names = TRACE_SQUARED_TERM_NAMES
        terms = terms[:4] + (float(np.sum(la)) * float(np.sum(lb)),)
    return _chain_report(
        tid, names, terms, p.rtol, p.atol, quad_reliable=reliable, hypothesis_ok=False
    )


def _pt_det_ag(tid, stream, dim, p):
    a = _ref_sym(random_general(stream, dim, dim))
    b = _ref_sym(random_general(stream, dim, dim))
    la, lb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    lhs = float(np.prod(np.abs(la))) ** p.nu * float(np.prod(np.abs(lb))) ** (1.0 - p.nu)
    rhs = float(np.prod(np.linalg.eigvalsh(p.nu * a + (1.0 - p.nu) * b)))
    return _inequality_report("det_ag", lhs, rhs, p.rtol, p.atol, hypothesis_ok=False)


def _pt_kittaneh(tid, stream, dim, p):
    a, b, x = (random_general(stream, dim, dim) for _ in range(3))

    def power(m, t):
        w, v = np.linalg.eig(m)
        return (v * np.power(w.astype(np.complex128), t)) @ np.linalg.inv(v)

    lhs = float(norms_of_stack(power(a, p.nu) @ x @ power(b, 1.0 - p.nu), p.norm))
    if not math.isfinite(lhs):
        raise DomainViolationError("the left side is not finite")
    ax, xb = (float(norms_of_stack(m, p.norm)) for m in (a @ x, x @ b))
    rhs = ax**p.nu * xb ** (1.0 - p.nu)
    return _inequality_report("kittaneh", lhs, rhs, p.rtol, p.atol, hypothesis_ok=False)


_POWER3_Q33 = dict(function=FunctionSpec.power(3.0), quad_n=33)
# every ablated row: its flag, its per-trial reference and the norms,
# functions, node counts and weights it is run under
_NC_CASES = (
    ("op_gg_hh", DROP_COMMUTATIVITY, _pt_op_gg_hh, [{}, _POWER3_Q33]),
    ("op_ag_midpoint", DROP_COMMUTATIVITY, _pt_op_ag_midpoint, [{}, _POWER3_Q33]),
    (
        "op_norm_gg",
        DROP_COMMUTATIVITY,
        _pt_norm_gg,
        [dict(norm=parse_norm(t)) for t in ("opnorm", "schatten:2", "kyfan:2", "schatten:3")]
        + [_POWER3_Q33],
    ),
    (
        "exp_norm",
        DROP_COMMUTATIVITY,
        _pt_norm_gg,
        [dict(norm=parse_norm(t)) for t in ("opnorm", "kyfan:2")] + [_POWER3_Q33],
    ),
    (
        "phi_operator",
        DROP_COMMUTATIVITY,
        _pt_phi_operator,
        [dict(norm=parse_norm(t)) for t in ("opnorm", "schatten:2", "kyfan:2")] + [_POWER3_Q33],
    ),
    ("trace_sqrt", DROP_COMMUTATIVITY, _pt_trace, [{}, dict(quad_n=33)]),
    ("trace_squared", DROP_COMMUTATIVITY, _pt_trace, [{}, dict(quad_n=33)]),
    ("det_ag", DROP_POSITIVITY, _pt_det_ag, [{}, dict(nu=0.7)]),
    (
        "kittaneh",
        DROP_POSITIVITY,
        _pt_kittaneh,
        [{}, dict(nu=0.7)] + [dict(norm=parse_norm(t)) for t in ("opnorm", "schatten:3", "kyfan:2")],
    ),
)


@pytest.mark.parametrize(
    "tid, flag, reference, variants", _NC_CASES, ids=[c[0] for c in _NC_CASES]
)
def test_ablated_rows_match_the_per_trial_code(tid, flag, reference, variants):
    # every ablated row has a per-trial reference
    assert {(c[0], c[1]) for c in _NC_CASES} == {
        (t, f) for f in (DROP_COMMUTATIVITY, DROP_POSITIVITY) for t in campaign._FLAG_IDS[f]
    }
    for kwargs in variants:
        params = resolve_params(tid, CampaignConfig(ablation=frozenset({flag}), **kwargs))
        with np.errstate(all="ignore"):
            for dim in (1, 2, 3, 5, 8):
                seeds = [derive_trial_seed(2019, dim, t) for t in range(40)]
                want = [
                    outcome_to_dict(_ref_trial(tid, reference, RandomStream(s), dim, params))
                    for s in seeds
                ]
                # the campaign's blocks, and one trial alone as demo replays it
                got = [outcome_to_dict(o) for o in _outcomes(tid, seeds, dim, params)]
                assert got == want, (tid, kwargs, dim)
                for k in (0, 17, 39):
                    assert outcome_to_dict(run_trial(tid, seeds[k], dim, params)) == want[k]


# the largest deviation of the similarity route from the eig oracle: order
# chain terms over max(1, the largest spectral radius of the trial's terms),
# norm and trace terms relative, the witness slack absolute
_EIG_ORACLE_BOUNDS = {
    "op_gg_hh": 1e-10, "op_ag_midpoint": 1e-10, "op_norm_gg": 1e-12, "trace_sqrt": 1e-13,
    "phi_operator": 1e-12,
}


def _eig_oracle_errors(fn, trials_per_dim, monkeypatch):
    """The largest deviation of each DROP_COMMUTATIVITY row that takes f of a
    product from its eig-route oracle, on trials_per_dim trials at each of
    dims 2, 3, 5 and 8. Every trial has the oracle's passed and
    quad_reliable."""
    terms = []
    real_reports = chains._matrix_order_reports

    def reports(tid, names, mats, *args):
        terms.append(mats[:, 0])
        return real_reports(tid, names, mats, *args)

    monkeypatch.setattr(chains, "_matrix_order_reports", reports)
    references = {c[0]: c[2] for c in _NC_CASES}
    config = CampaignConfig(function=parse_function(fn), ablation=frozenset({DROP_COMMUTATIVITY}))
    worst = dict.fromkeys(_EIG_ORACLE_BOUNDS, 0.0)
    for tid in _EIG_ORACLE_BOUNDS:
        params = resolve_params(tid, config)

        def oracle(*args):
            return references[tid](*args, route=_EIG)

        for dim in (2, 3, 5, 8):
            for t in range(trials_per_dim):
                seed = derive_trial_seed(2018, dim, t)
                terms.clear()
                got = run_trial(tid, seed, dim, params)
                want = _ref_trial(tid, oracle, RandomStream(seed), dim, params)
                flags = (got.passed, got.quad_reliable)
                assert flags == (want.passed, want.quad_reliable), (tid, dim, seed)
                if tid == "phi_operator":
                    error = abs(got.verdict.slack - want.verdict.slack)
                elif tid in ("op_gg_hh", "op_ag_midpoint"):
                    new, old = terms
                    if tid == "op_gg_hh":
                        # the chain's terms are in A's eigenbasis
                        a = _spd_pair(RandomStream(seed), dim)[0]
                        qa = np.linalg.eigh(check_symmetric(a))[1]
                        new = qa @ new @ qa.T
                    radius = np.abs(np.linalg.eigvalsh(old)).max()
                    error = np.abs(new - old).max() / max(1.0, radius)
                else:
                    pairs = zip(got.term_values, want.term_values)
                    error = max(abs(x - y) / abs(y) for x, y in pairs)
                worst[tid] = max(worst[tid], error)
    return worst


@pytest.mark.parametrize("fn", ["exp:1", "power:3"])
def test_similar_route_matches_the_eig_oracle(fn, monkeypatch):
    worst = _eig_oracle_errors(fn, 50, monkeypatch)
    assert all(worst[tid] <= bound for tid, bound in _EIG_ORACLE_BOUNDS.items()), worst


@pytest.mark.slow
@pytest.mark.parametrize("fn", ["exp:1", "power:3"])
def test_similar_route_matches_the_eig_oracle_on_2000_trials(fn, monkeypatch):
    worst = _eig_oracle_errors(fn, 500, monkeypatch)
    assert all(worst[tid] <= bound for tid, bound in _EIG_ORACLE_BOUNDS.items()), worst


# ---------------------------------------------------------------------------
# trial-batched closed-form rows against the per-trial code they replace


def _ref_scalar_means(stream, dim, p):
    a, b = (float(v) for v in _log_uniform(stream, 2, campaign.SPD_LO, campaign.SPD_HI))
    return _chain_report("scalar_means", MEAN_CHAIN_NAMES, scalar_mean_chain(a, b), p.rtol, p.atol)


def _ref_det_ag(stream, dim, p):
    ma, mb = (check_symmetric(m) for m in _spd_pair(stream, dim))
    lhs = det_pd(ma) ** p.nu * det_pd(mb) ** (1.0 - p.nu)
    rhs = det_pd(p.nu * ma + (1.0 - p.nu) * mb)
    return _inequality_report("det_ag", lhs, rhs, p.rtol, p.atol)


def _ref_am_gm_loewner(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    gm = weighted_geometric_mean(a, b, p.nu)
    am = (1.0 - p.nu) * check_symmetric(a) + p.nu * check_symmetric(b)
    names = ("weighted_geometric_mean", "weighted_arithmetic_mean")
    return _ref_order_report_from_matrices("am_gm_loewner", names, (gm, am), p.rtol)


def _ref_norm_power(stream, dim, p):
    mt = check_symmetric(campaign.random_spd(stream, dim, campaign.SPD_LO, campaign.SPD_HI))
    d = eigh(mt)
    base = operator_norm_sym(mt)
    worst = (math.inf, 0.0, 0.0)
    for alpha in np.linspace(0.0, 1.0, 11):
        lhs = operator_norm_sym(power_from_decomp(d, float(alpha), original=mt))
        rhs = base ** float(alpha)
        if rhs - lhs < worst[0]:
            worst = (rhs - lhs, lhs, rhs)
    return _inequality_report("norm_power", worst[1], worst[2], p.rtol, p.atol)


def _ref_kittaneh(stream, dim, p):
    a, b = _spd_pair(stream, dim)
    x = random_general(stream, dim, dim)
    ma, mb = check_symmetric(a), check_symmetric(b)
    da, db = eigh(ma), eigh(mb)
    left = power_from_decomp(da, p.nu, original=ma) @ x @ power_from_decomp(
        db, 1.0 - p.nu, original=mb
    )
    lhs = norm(left, p.norm)
    rhs = norm(ma @ x, p.norm) ** p.nu * norm(x @ mb, p.norm) ** (1.0 - p.nu)
    return _inequality_report("kittaneh", lhs, rhs, p.rtol, p.atol)


def _ref_dragomir(f, ma, mb, quad_n):
    """The quadrature oracle of one dragomir trial: its six terms, f of each
    anchor through eigh and matrix_function and each segment integral by
    Gauss-Legendre quadrature through its own integrate_stack_checked
    call, and whether both integrals passed the Gauss-Kronrod check."""
    ma, mb = check_symmetric(ma), check_symmetric(mb)

    def f_of(m):
        return matrix_function(eigh(m), f)

    def segment(ts):
        combos = ts[:, None, None] * ma + (1.0 - ts)[:, None, None] * mb
        lam, q = np.linalg.eigh(combos)
        if not f.defined_at(lam).all():
            raise DomainViolationError("undefined on the segment")
        return (q * f.eval_array(lam)[:, None, :]) @ np.swapaxes(q, 1, 2)

    fa, fb, f_mid = f_of(ma), f_of(mb), f_of(0.5 * (ma + mb))
    d3 = 0.5 * (f_of(0.25 * (3.0 * ma + mb)) + f_of(0.25 * (ma + 3.0 * mb)))
    central, ok2 = integrate_stack_checked(segment, 0.25, 0.75, quad_n)
    full, ok4 = integrate_stack_checked(segment, 0.0, 1.0, quad_n)
    terms = (f_mid, 2.0 * central, d3, full, 0.5 * f_mid + 0.25 * (fa + fb), 0.5 * (fa + fb))
    return np.array(terms), ok2 and ok4


def _dragomir_oracle_errors(f, trials_per_dim):
    """The largest error of the closed-form central_integral and
    full_integral against the 256-node oracle, max-entry error over the max
    entry, on trials_per_dim sampled trials at each of dims 2, 3, 5 and 8.
    The anchor terms match the oracle's exactly."""
    worst = 0.0
    for dim in (2, 3, 5, 8):
        seeds = [derive_trial_seed(2015, dim, t) for t in range(trials_per_dim)]
        a, b = _spd_pair(RandomStream(np.array(seeds, dtype=np.uint64)), dim)
        got = chains._dragomir_terms(f, chains._pair(a, b))
        for t in range(trials_per_dim):
            want, ok = _ref_dragomir(f, a[t], b[t], 256)
            assert ok, (f.describe(), dim, t)
            for k in (0, 2, 4, 5):
                np.testing.assert_array_equal(got[k, t], want[k])
            for k in (1, 3):
                worst = max(worst, np.abs(got[k, t] - want[k]).max() / np.abs(want[k]).max())
    return worst


@pytest.mark.parametrize("fn", ["power:2", "inverse"])
def test_dragomir_closed_forms_match_the_quadrature_oracle(fn):
    assert _dragomir_oracle_errors(parse_function(fn), 50) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("fn", ["power:2", "inverse"])
def test_dragomir_closed_forms_match_the_quadrature_oracle_on_4000_trials(fn):
    assert _dragomir_oracle_errors(parse_function(fn), 1000) <= 1e-12


def _one_dragomir(stream, dim, p):
    """One dragomir trial alone: the chain on a stack of one pair, which
    reads no quad_n."""
    return chains.dragomir_operator_chain(p.f, *_spd_pair(stream, dim), rtol=p.rtol)


_NUS = (0.3, 0.5, 0.7)
_BATCH_CASES = (
    (
        "dragomir",
        _one_dragomir,
        [
            {},
            dict(function=FunctionSpec.inverse()),
            # the segment integrals are exact: quad_n changes nothing
            dict(quad_n=17),
            dict(function=FunctionSpec.inverse(), quad_n=17),
        ],
    ),
    ("scalar_means", _ref_scalar_means, [{}]),
    ("det_ag", _ref_det_ag, [dict(nu=nu) for nu in _NUS]),
    ("am_gm_loewner", _ref_am_gm_loewner, [dict(nu=nu) for nu in _NUS + (0.0, 1.0)]),
    ("norm_power", _ref_norm_power, [{}]),
    (
        "kittaneh",
        _ref_kittaneh,
        [dict(nu=nu) for nu in _NUS + (0.0, 1.0)]
        + [dict(norm=parse_norm(t)) for t in ("opnorm", "tracenorm", "schatten:3", "kyfan:2")],
    ),
    # the convexity-scan rows: their references follow
    ("scalar_ag", lambda s, d, p: _ref_trial("scalar_ag", _ref_scalar_hh, s, d, p), [{}]),
    ("scalar_gg", lambda s, d, p: _ref_trial("scalar_gg", _ref_scalar_hh, s, d, p), [{}]),
    ("op_gg_hh", lambda s, d, p: _ref_trial("op_gg_hh", _ref_commuting_order, s, d, p), [{}]),
    (
        "op_ag_midpoint",
        lambda s, d, p: _ref_trial("op_ag_midpoint", _ref_commuting_order, s, d, p),
        [{}],
    ),
    (
        "phi_operator",
        lambda s, d, p: _ref_trial("phi_operator", _ref_phi_operator_commuting, s, d, p),
        [{}],
    ),
    ("phi_sandwich", lambda s, d, p: _ref_trial("phi_sandwich", _ref_two_sided, s, d, p), [{}]),
    ("phi_diagonal", lambda s, d, p: _ref_trial("phi_diagonal", _ref_two_sided, s, d, p), [{}]),
    # the norm-curve and trace rows: their references follow the scan rows'
    ("op_norm_gg", lambda s, d, p: _ref_trial("op_norm_gg", _ref_norm_gg_commuting, s, d, p), [{}]),
    ("exp_norm", lambda s, d, p: _ref_trial("exp_norm", _ref_norm_gg_commuting, s, d, p), [{}]),
    ("trace_sqrt", lambda s, d, p: _ref_trial("trace_sqrt", _ref_trace, s, d, p), [{}]),
    ("trace_squared", lambda s, d, p: _ref_trial("trace_squared", _ref_trace, s, d, p), [{}]),
    ("uin_symmetric", lambda s, d, p: _ref_trial("uin_symmetric", _ref_uin, s, d, p), [{}]),
    ("uin_end_left", lambda s, d, p: _ref_trial("uin_end_left", _ref_uin, s, d, p), [{}]),
    ("uin_end_right", lambda s, d, p: _ref_trial("uin_end_right", _ref_uin, s, d, p), [{}]),
    ("uin_full", lambda s, d, p: _ref_trial("uin_full", _ref_uin, s, d, p), [{}]),
    ("uin_diagonal", lambda s, d, p: _ref_trial("uin_diagonal", _ref_uin, s, d, p), [{}]),
)


@pytest.mark.parametrize("tid, reference, variants", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_batched_rows_match_the_per_trial_code(tid, reference, variants):
    # every id has a per-trial reference
    assert {c[0] for c in _BATCH_CASES} == set(campaign.THEOREM_IDS)
    for kwargs in variants:
        params = resolve_params(tid, CampaignConfig(**kwargs))
        for dim in (1, 2, 3, 5, 8, 17):
            seeds = [derive_trial_seed(2015, dim, t) for t in range(100)]
            want = [outcome_to_dict(reference(RandomStream(s), dim, params)) for s in seeds]
            # the campaign's blocks, and one trial alone as demo replays it
            got = [outcome_to_dict(o) for o in _outcomes(tid, seeds, dim, params)]
            assert got == want, (tid, kwargs, dim)
            for k in (0, 37, 99):
                assert outcome_to_dict(run_trial(tid, seeds[k], dim, params)) == want[k]


def _plant_in_det_ag(seed, error):
    """The det_ag stack, raising error on the block that holds the trial of seed."""
    planted = campaign.random_spd(RandomStream(seed), 3, campaign.SPD_LO, campaign.SPD_HI)
    real = campaign._det_ag_stack

    def run(pair, *args):
        if any(np.array_equal(m, planted) for m in pair.a.m):
            raise error("planted")
        return real(pair, *args)

    return "_det_ag_stack", run


def _plant_in_op_gg_hh_general(seed, error):
    """The ablated op_gg_hh stack, raising error on the block that holds the trial of seed."""
    planted = _spd_pair(RandomStream(seed), 3)[0]
    real = campaign.op_gg_hh_general

    def run(f, pair, *args):
        if any(np.array_equal(m, planted) for m in pair.a.m):
            raise error("planted")
        return real(f, pair, *args)

    return "op_gg_hh_general", run


# a stacked row, and an ablated stacked row: the config, the planter, the
# error planted in trial 7, the pass, fail and unreliable counts of a
# 20-trial campaign at master seed 3 and dim 3, and an id that shares the
# row's draws
_RAISING_ROWS = {
    "det_ag": (
        CampaignConfig(), _plant_in_det_ag, DomainViolationError, (19, 0, 1), "am_gm_loewner"
    ),
    "op_gg_hh": (
        CampaignConfig(ablation=frozenset({DROP_COMMUTATIVITY})),
        _plant_in_op_gg_hh_general,
        ConvergenceError,
        (7, 12, 1),
        "trace_sqrt",
    ),
}


@pytest.mark.parametrize("tid", list(_RAISING_ROWS))
def test_a_raising_block_is_rerun_one_trial_at_a_time(tid, monkeypatch):
    cfg, plant, error, counts, other = _RAISING_ROWS[tid]
    params = resolve_params(tid, cfg)
    seeds = [derive_trial_seed(3, 3, t) for t in range(20)]
    want = [outcome_to_dict(run_trial(tid, s, 3, params)) for s in seeds]
    other_params = resolve_params(other, cfg)
    other_want = [outcome_to_dict(o) for o in _outcomes(other, seeds, 3, other_params)]
    cfg = replace(cfg, trials=20, dims=(3,), master_seed=3)
    other_alone = run_campaign(replace(cfg, theorem_ids=(other,))).stats[0]
    monkeypatch.setattr(campaign, *plant(seeds[7], error))
    got = _outcomes(tid, seeds, 3, params)
    assert [o.quad_reliable for o in got] == [t != 7 for t in range(20)]
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    st = run_campaign(replace(cfg, theorem_ids=(tid,))).stats[0]
    assert (st.pass_count, st.fail_count, st.unreliable_count) == counts
    # on a block both ids share, the planted id alone runs one trial at a
    # time, and the other id's outcomes stay what they are without it
    (block,) = campaign._blocks(seeds, 3)
    rerun = []
    real_run_trial = campaign.run_trial
    monkeypatch.setattr(
        campaign, "run_trial", lambda t, *args: rerun.append(t) or real_run_trial(t, *args)
    )
    got = campaign._block_outcomes(tid, block, params)
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    assert [outcome_to_dict(o) for o in campaign._block_outcomes(other, block, other_params)] == (
        other_want
    )
    assert rerun == [tid] * 20
    rerun.clear()
    stats = run_campaign(replace(cfg, theorem_ids=(tid, other))).stats
    assert rerun == [tid] * 20
    assert (stats[0].pass_count, stats[0].fail_count, stats[0].unreliable_count) == counts
    assert asdict(stats[0]) == asdict(st) and asdict(stats[1]) == asdict(other_alone)
    # an error the trial alone does not catch still ends the campaign
    monkeypatch.setattr(campaign, *plant(seeds[7], NotPositiveDefiniteError))
    with pytest.raises(NotPositiveDefiniteError):
        _outcomes(tid, seeds, 3, params)


# ---------------------------------------------------------------------------
# the draws a block shares between theorem ids


# --theorem all under each of these: the flags, function, norm and weight
_SHARED_CONFIGS = {
    "defaults": dict(),
    "drop_commutativity": dict(ablation=frozenset({DROP_COMMUTATIVITY})),
    "drop_positivity_and_guard": dict(
        ablation=frozenset({DROP_POSITIVITY, DROP_CONVEXITY_GUARD}),
        function=parse_function("power:-0.5"),
    ),
    "kyfan_nu": dict(norm=parse_norm("kyfan:2"), nu=0.7),
}


@pytest.mark.parametrize("name", list(_SHARED_CONFIGS))
def test_every_id_gets_the_stats_it_gets_alone(name):
    """Sharing a block's draws between ids leaves each id's stats as they
    are in a campaign of that id alone."""
    kwargs = _SHARED_CONFIGS[name]
    ids = select_theorems("all", kwargs.get("ablation", frozenset()))
    cfg = CampaignConfig(theorem_ids=ids, trials=7, dims=(1, 2, 3, 5, 8), master_seed=19, **kwargs)
    together = run_campaign(cfg).stats
    assert [st.theorem_id for st in together] == list(ids)
    for st in together:
        (alone,) = run_campaign(replace(cfg, theorem_ids=(st.theorem_id,))).stats
        assert asdict(st) == asdict(alone), st.theorem_id


def _same_bits(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_each_shared_kind_is_what_its_runner_drew_alone(dim):
    seeds = np.array([derive_trial_seed(6, dim, t) for t in range(5)], dtype=np.uint64)
    lo, hi = campaign.SPD_LO, campaign.SPD_HI

    def stream():
        return RandomStream(seeds)

    # the SPD pair, then X, as one stream; A drawn alone is its first
    s = stream()
    pair = _spd_pair(s, dim)
    x = random_general(s, dim, dim)
    assert _same_bits((campaign._Block(seeds, dim).a[0].m,), pair[:1])
    assert _same_bits([side.m for side in campaign._Block(seeds, dim).pair], pair)
    assert _same_bits((campaign._Block(seeds, dim).two_sided.mx,), (x,))
    # the checked spectral view of A and B, and the view with X; each matrix
    # of the view has the bits of its trial's A or B checked and decomposed alone
    block = campaign._Block(seeds, dim)
    view = chains._pair(*pair)
    assert block.pair.a is block.a[0]
    assert _same_bits([*block.pair.a, *block.pair.b], [*view.a, *view.b])
    for t in range(len(seeds)):
        alone = (*chains._side(pair[0][t : t + 1]), *chains._side(pair[1][t : t + 1]))
        assert _same_bits([m[t : t + 1] for m in (*view.a, *view.b)], alone)
    tp, ref = block.two_sided, chains._TwoSidedPowers.of_stacks(view, x)
    assert tp.pair is block.pair
    assert _same_bits((tp.mx, tp.core, tp.core2), (ref.mx, ref.core, ref.core2))
    # the scalar chains' interval is the sorted log pair of scalar_means
    block = campaign._Block(seeds, dim)
    pair = _log_uniform(stream(), 2, lo, hi)
    assert np.array_equal(block.log_pair, pair)
    assert _same_bits(block.interval, tuple(np.sort(pair, axis=1).T))
    _, ca, cb = random_commuting_pair(stream(), dim, lo, hi)
    assert _same_bits(block.commuting, (ca, cb))
    # DROP_POSITIVITY's general matrices: det_ag reads kittaneh's first two
    s = stream()
    general = [random_general(s, dim, dim) for _ in range(3)]
    assert _same_bits(campaign._Block(seeds, dim).general, general)


def test_a_shared_input_refuses_an_in_place_write():
    seeds = np.array([derive_trial_seed(6, 3, t) for t in range(4)], dtype=np.uint64)
    block = campaign._Block(seeds, 3)
    tp = block.two_sided
    arrays = [
        block.log_pair, *block.interval, *block.commuting, *block.general, *block.pair.a,
        *block.pair.b, block.a[1], block.b[1], tp.mx, tp.core, tp.core2,
    ]
    for m in arrays:
        with pytest.raises(ValueError):
            m[0] += 1.0
    with pytest.raises(ValueError):
        block.a[0].m.sort(axis=0)


def _count_draws(monkeypatch, names, failures=0):
    """Make each campaign draw of names count its calls, and raise on the
    first failures of them; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def draw(*args):
            calls[name] += 1
            if calls[name] <= failures:
                raise DomainViolationError("planted")
            return real(*args)

        return draw

    for name in names:
        monkeypatch.setattr(campaign, name, counted(name, getattr(campaign, name)))
    return calls


def test_a_draw_that_raises_is_not_kept(monkeypatch):
    seeds = np.array([derive_trial_seed(6, 3, t) for t in range(4)], dtype=np.uint64)
    fresh = campaign._Block(seeds, 3)
    want_commuting, want_x = fresh.commuting, fresh.two_sided.mx
    calls = _count_draws(monkeypatch, ("commuting_spectra", "random_general"), failures=1)
    block = campaign._Block(seeds, 3)
    with pytest.raises(DomainViolationError):
        block.commuting
    assert _same_bits(block.commuting, want_commuting)
    block.commuting  # kept now: no third draw
    assert calls["commuting_spectra"] == 2
    # the pair stays kept when the X after it raises, and X is drawn again
    pair = block.pair
    with pytest.raises(DomainViolationError):
        block.two_sided
    assert block.two_sided.pair is pair and np.array_equal(block.two_sided.mx, want_x)
    assert calls["random_general"] == 2


def test_a_campaign_draws_each_kind_once_per_block(monkeypatch):
    counts = _count_draws(monkeypatch, ("_log_uniform", "commuting_spectra", "random_spd"))
    of_stacks = []
    real_two_sided = chains._TwoSidedPowers.of_stacks.__func__
    monkeypatch.setattr(
        chains._TwoSidedPowers, "of_stacks",
        classmethod(lambda cls, *args: of_stacks.append(1) or real_two_sided(cls, *args)),
    )
    report = run_campaign(CampaignConfig(trials=5, dims=(2, 3), master_seed=8))
    assert report.exit_code == 0
    # one block per dim; random_spd draws A and B
    assert counts == {"_log_uniform": 2, "commuting_spectra": 2, "random_spd": 4}
    assert len(of_stacks) == 2


@pytest.mark.parametrize(
    "ablation", [frozenset(), frozenset({DROP_COMMUTATIVITY})], ids=["none", "nc"]
)
def test_a_campaign_checks_and_decomposes_each_drawn_pair_once_per_block(ablation, monkeypatch):
    # each matrix of every drawn A and B, as drawn and symmetrized
    drawn = []
    real_spd = campaign.random_spd

    def spd(*args):
        m = real_spd(*args)
        both = np.concatenate((m, 0.5 * (m + np.swapaxes(m, 1, 2))))
        drawn.append(("AB"[len(drawn) % 2], {x.tobytes() for x in both}))
        return m

    # the calls of check_symmetric_stack and _eigh that take A or B
    calls = dict.fromkeys([(kind, name) for kind in ("check", "eigh") for name in "AB"], 0)

    def counted(kind, real):
        def run(m):
            m3 = np.asarray(m)
            keys = {x.tobytes() for x in m3.reshape((-1,) + m3.shape[-2:])}
            for name in {name for name, mats in drawn if keys & mats}:
                calls[kind, name] += 1
            return real(m)

        return run

    monkeypatch.setattr(campaign, "random_spd", spd)
    for name, kind in (("check_symmetric_stack", "check"), ("_eigh", "eigh")):
        monkeypatch.setattr(chains, name, counted(kind, getattr(chains, name)))
    ids = select_theorems("all", ablation)
    cfg = CampaignConfig(theorem_ids=ids, trials=5, dims=(2, 3), master_seed=8, ablation=ablation)
    run_campaign(cfg)
    # one block per dim: the view checks and decomposes A and B once each
    assert len(drawn) == 4
    assert calls == dict.fromkeys(calls, 2)


# ---------------------------------------------------------------------------
# trial-batched convexity-scan rows: the per-trial code they replace


def _ref_trial(tid, reference, stream, dim, p):
    """What run_trial made of the per-trial reference."""
    try:
        return reference(tid, stream, dim, p)
    except (DomainViolationError, NonFiniteSampleError, ConvergenceError, np.linalg.LinAlgError):
        return _unreliable(tid)


def _ref_positive_logs(f, xs):
    vals = f.eval_array(xs)
    if not (np.isfinite(vals) & (vals > 0.0)).all():
        raise DomainViolationError("not strictly positive")
    return np.log(vals)


def _ref_verdict(f, a, b, gg):
    """is_gg_convex (gg) or is_ag_convex at the default grid, checks made."""
    m = DEFAULT_GRID_N * DEFAULT_GRID_N
    if gg:
        la, lb = math.log(a), math.log(b)
        fine = np.exp(la + (lb - la) * np.arange(m + 1) / m)
    else:
        fine = a + (b - a) * np.arange(m + 1) / m
    logs = _ref_positive_logs(f, fine)
    return _scan_fine_grid(logs, fine, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL)


def _ref_scalar_hh(tid, stream, dim, p):
    vals = campaign._log_uniform(stream, 2, campaign.SPD_LO, campaign.SPD_HI)
    a, b = float(min(vals)), float(max(vals))
    if a == b:
        b = float(np.nextafter(b, np.inf))
    if not p.f.contains_interval(a, b):
        raise DomainViolationError("outside the domain")
    gg = tid == "scalar_gg"
    hypothesis_ok = _ref_verdict(p.f, a, b, gg).holds if p.check_hypothesis else True
    if gg:
        la, lb = math.log(a), math.log(b)
        q1 = math.exp(0.25 * (3 * la + lb))
        mid = math.exp(0.5 * (la + lb))
        q2 = math.exp(0.25 * (la + 3 * lb))
        log_f, span = (lambda ts: _ref_positive_logs(p.f, ts) / ts), lb - la
    else:
        q1, mid, q2 = 0.25 * (3 * a + b), 0.5 * (a + b), 0.25 * (a + 3 * b)
        log_f, span = (lambda ts: _ref_positive_logs(p.f, ts)), b - a
    v_lo, v_q1, v_mid, v_q2, v_hi = (p.f(x) for x in (a, q1, mid, q2, b))
    piece, reliable = integrate_stack_checked(log_f, a, b, p.quad_n)
    terms = (
        v_mid,
        math.sqrt(v_q1 * v_q2),
        math.exp((0.0 + float(piece)) / span),
        math.sqrt(v_mid) * v_lo**0.25 * v_hi**0.25,
        math.sqrt(v_lo * v_hi),
    )
    return _chain_report(
        tid, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _ref_pair(stream, dim, p):
    q, av, bv = random_commuting_pair(stream, dim, campaign.SPD_LO, campaign.SPD_HI)
    CommutingPair(q=q, a=av, b=bv)
    lo = float(min(np.min(av), np.min(bv)))
    hi = float(max(np.max(av), np.max(bv)))
    if not p.f.contains_interval(lo, hi):
        raise DomainViolationError("joint spectrum outside the domain")
    return av, bv, lo, hi


def _ref_commuting_order(tid, stream, dim, p):
    av, bv, lo, hi = _ref_pair(stream, dim, p)
    gg, f = tid == "op_gg_hh", p.f
    hypothesis_ok = True
    if p.check_hypothesis and lo < hi:
        hypothesis_ok = _ref_verdict(f, lo, hi, gg).holds
    if gg:
        v1 = _ref_positive_logs(f, np.sqrt(av * bv))

        def rows(ts):
            grid = np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])
            return _ref_positive_logs(f, grid)

    else:
        v1 = f.eval_array(0.5 * (av + bv))

        def rows(ts):
            fwd = f.eval_array(ts[:, None] * av[None, :] + (1.0 - ts)[:, None] * bv[None, :])
            rev = f.eval_array((1.0 - ts)[:, None] * av[None, :] + ts[:, None] * bv[None, :])
            return np.sqrt(fwd * rev)

    v2, reliable = integrate_stack_checked(rows, 0.0, 1.0, p.quad_n)
    if gg:
        v3 = 0.5 * (_ref_positive_logs(f, av) + _ref_positive_logs(f, bv))
    else:
        v3 = np.sqrt(f.eval_array(av) * f.eval_array(bv))
    names = GG_HH_TERM_NAMES if gg else AG_MIDPOINT_TERM_NAMES
    rows, comps, passed = (v1, v2, v3), [], True
    for k in range(2):
        lo_row, hi_row = rows[k], rows[k + 1]
        gap = float(np.min(hi_row - lo_row))
        scale = max(1.0, float(np.max(np.abs(lo_row))), float(np.max(np.abs(hi_row))))
        comps.append(chains.Comparison(names[k], names[k + 1], gap))
        passed = passed and gap >= -p.rtol * scale
    return chains.OrderChainReport(
        tid, tuple(comps), passed, quad_reliable=reliable, hypothesis_ok=hypothesis_ok
    )


def _ref_witness(tid, vals, ts, hypothesis_ok=True):
    if not (np.isfinite(vals).all() and (vals > 0.0).all()):
        raise DomainViolationError("norm curve is not strictly positive")
    verdict = _scan_fine_grid(np.log(vals), ts, DEFAULT_GRID_N, DEFAULT_CONVEXITY_TOL)
    return WitnessOutcome(tid, verdict, passed=verdict.holds, hypothesis_ok=hypothesis_ok)


_REF_TS = np.arange(DEFAULT_GRID_N**2 + 1) / DEFAULT_GRID_N**2


def _ref_phi_operator_commuting(tid, stream, dim, p):
    av, bv, lo, hi = _ref_pair(stream, dim, p)
    hypothesis_ok = True
    if p.check_hypothesis and lo < hi:
        hypothesis_ok = _ref_verdict(p.f, lo, hi, True).holds
    ts = _REF_TS
    grid = np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])
    vals = norms_from_eig_rows(p.f.eval_array(grid), p.norm)
    return _ref_witness(tid, vals, ts, hypothesis_ok)


def _ref_signed_eigh(m):
    lam, q = np.linalg.eigh(check_symmetric(m))
    signs = np.sign(q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[0])])
    signs[signs == 0.0] = 1.0
    return lam, q * signs


def _ref_curve_norms(la, lb, core, ts, second, spec):
    """|||diag(la^t) core diag(lb^s)||| at the points t of ts and s of second,
    as one trial alone: Schatten-2 as sum_ij la_i^(2t) core_ij^2 lb_j^(2s), in
    the point blocks of chains._curve_stack (all points when they fit in
    STACK_ENTRIES entries at m k per point, else STACK_ENTRIES // (m k) at a
    time), and every other norm from the materialized products."""
    left, right = np.power(la[None, :], ts[:, None]), np.power(lb[None, :], second[:, None])
    if not spec.is_frobenius:
        return norms_of_stack(left[:, :, None] * core * right[:, None, :], spec)
    m, k = core.shape
    size = ts.size if ts.size * m * k <= STACK_ENTRIES else max(1, STACK_ENTRIES // (m * k))
    core2 = core * core
    return np.concatenate([
        np.sqrt((((lp * lp) @ core2) * (rp * rp)).sum(axis=-1))
        for lp, rp in ((left[i : i + size], right[i : i + size]) for i in range(0, ts.size, size))
    ])


def _ref_two_sided(tid, stream, dim, p):
    a, b = _spd_pair(stream, dim)
    x = random_general(stream, dim, dim)
    (la, qa), (lb, qb) = _ref_signed_eigh(check_symmetric(a)), _ref_signed_eigh(check_symmetric(b))
    core = qa.T @ x @ qb
    ts = _REF_TS
    second = ts if tid == "phi_diagonal" else 1.0 - ts
    return _ref_witness(tid, _ref_curve_norms(la, lb, core, ts, second, p.norm), ts)


# ---------------------------------------------------------------------------
# trial-batched norm-curve and trace rows: the per-trial code they replace


def _ref_hh(anchors, pieces, span):
    """The five hh_terms from the anchors and the checked integrals of the
    pieces, summed left to right, and whether every piece was reliable."""
    integral, reliable = 0.0, True
    for piece, ok in pieces:
        integral += float(piece)
        reliable = reliable and ok
    v_lo, v_q1, v_mid, v_q2, v_hi = anchors
    terms = (
        v_mid,
        math.sqrt(v_q1 * v_q2),
        math.exp(integral / span),
        math.sqrt(v_mid) * v_lo**0.25 * v_hi**0.25,
        math.sqrt(v_lo * v_hi),
    )
    return terms, reliable


def _ref_kinks(f, spec, av, bv):
    """The crossings of one trial's eigenvalue curves, pair by pair, where
    the branches spec reads from f (the top spec.top_k of |f|, ties to the
    lower index) differ between the midpoints of the pieces on either side."""
    la, lb = np.log(av), np.log(bv)
    slopes = la - lb
    crossings = set()
    for i in range(av.size):
        for j in range(i + 1, av.size):
            if slopes[i] != slopes[j]:
                u = (lb[j] - lb[i]) / (slopes[i] - slopes[j])
                if 1e-12 < u < 1.0 - 1e-12:
                    crossings.add(float(u))
    edges = [0.0, *sorted(crossings), 1.0]
    mids = np.array([0.5 * (x + y) for x, y in zip(edges[:-1], edges[1:])])
    vals = np.abs(f.eval_array(
        np.power(av[None, :], mids[:, None]) * np.power(bv[None, :], (1.0 - mids)[:, None])
    ))
    reads = [sorted(sorted(range(av.size), key=lambda k: -v[k])[: spec.top_k]) for v in vals]
    return [u for u, left, right in zip(edges[1:-1], reads[:-1], reads[1:]) if left != right]


def _ref_norm_gg_commuting(tid, stream, dim, p):
    av, bv, lo, hi = _ref_pair(stream, dim, p)
    hypothesis_ok = True
    if p.check_hypothesis and lo < hi:
        hypothesis_ok = _ref_verdict(p.f, lo, hi, True).holds

    def phi(u):
        eigs = np.power(av, u) * np.power(bv, 1.0 - u) if 0.0 < u < 1.0 else (
            av if u == 1.0 else bv
        )
        return norms_from_eig_rows(p.f.eval_array(eigs)[None, :], p.norm)[0]

    def log_phi(ts):
        grid = np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])
        vals = norms_from_eig_rows(p.f.eval_array(grid), p.norm)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError("norm curve is not strictly positive")
        return np.log(vals)

    anchors = tuple(phi(u) for u in HH_NODES)
    if min(anchors) <= 0.0:
        raise DomainViolationError("norm curve is not strictly positive")
    edges = [0.0, 1.0]
    if p.norm.is_max_type:
        edges[1:1] = _ref_kinks(p.f, p.norm, av, bv)
    pieces = [
        integrate_stack_checked(log_phi, float(x), float(y), p.quad_n)
        for x, y in zip(edges[:-1], edges[1:])
    ]
    terms, reliable = _ref_hh(anchors, pieces, 1.0)
    return _chain_report(
        tid, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=reliable,
        hypothesis_ok=hypothesis_ok,
    )


def _ref_trace(tid, stream, dim, p):
    q, av, bv = random_commuting_pair(stream, dim, campaign.SPD_LO, campaign.SPD_HI)
    CommutingPair(q=q, a=av, b=bv)
    pw = 2.0 if tid == "trace_squared" else 1.0

    def tau(u):
        return float(np.sum(np.power(av, pw * u) * np.power(bv, pw * (1.0 - u))))

    def log_tau(ts):
        grid = np.power(av[None, :], pw * ts[:, None]) * np.power(
            bv[None, :], pw * (1.0 - ts)[:, None]
        )
        return np.log(np.sum(grid, axis=1))

    pieces = [integrate_stack_checked(log_tau, 0.0, 1.0, p.quad_n)]
    terms, reliable = _ref_hh(tuple(tau(u) for u in HH_NODES), pieces, 1.0)
    if tid == "trace_sqrt":
        names = TRACE_SQRT_TERM_NAMES
        terms = (math.sqrt(float(np.sum(av * bv))), tau(0.5)) + terms[1:]
    else:
        names = TRACE_SQUARED_TERM_NAMES
        terms = terms[:4] + (float(np.sum(av)) * float(np.sum(bv)),)
    return _chain_report(tid, names, terms, p.rtol, p.atol, quad_reliable=reliable)


def _ref_uin(tid, stream, dim, p):
    a, b = _spd_pair(stream, dim)
    x = random_general(stream, dim, dim)
    ma, mb = check_symmetric(a), check_symmetric(b)
    (la, qa), (lb, qb) = _ref_signed_eigh(ma), _ref_signed_eigh(mb)
    if la[0] <= 0.0 or lb[0] <= 0.0:
        raise NotPositiveDefiniteError("fractional power base must be positive definite")
    da, db = SpectralDecomp(q=qa, eigenvalues=la), SpectralDecomp(q=qb, eigenvalues=lb)
    core = qa.T @ x @ qb
    lo, hi = chains._uin_interval(UinVariant(tid[len("uin_"):]), p.nu)

    def second(t):
        return t if tid == "uin_diagonal" else 1.0 - t

    def direct(sa, sb):
        mx = x
        if sa != 0.0:
            mx = power_from_decomp(da, sa, original=ma) @ mx
        if sb == 0.0:
            return mx
        return mx @ power_from_decomp(db, sb, original=mb)

    def log_curve(ts):
        vals = _ref_curve_norms(la, lb, core, ts, second(ts), p.norm)
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise DomainViolationError("norm curve is not strictly positive")
        return np.log(vals)

    points = (lo, 0.25 * (3.0 * lo + hi), 0.5 * (lo + hi), 0.25 * (lo + 3.0 * hi), hi)
    anchors = tuple(norm(direct(t, second(t)), p.norm) for t in points)
    if min(anchors) <= 0.0:
        raise DomainViolationError("norm curve is not strictly positive")
    pieces = [integrate_stack_checked(log_curve, lo, hi, p.quad_n)]
    terms, reliable = _ref_hh(anchors, pieces, hi - lo)
    return _chain_report(tid, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=reliable)


_SCAN_IDS = (
    "scalar_ag", "scalar_gg", "op_gg_hh", "op_ag_midpoint",
    "phi_operator", "phi_sandwich", "phi_diagonal",
)
_SCAN_REFS = dict((c[0], c[1]) for c in _BATCH_CASES if c[0] in _SCAN_IDS)
_WITNESS_NORMS = ("opnorm", "kyfan:2", "schatten:3", "tracenorm")
_SCAN_FNS = ("power:3", "inverse", "power:-0.5", "exp:100")


def _scan_variants(tid):
    th = campaign.THEOREMS[tid]
    out = []
    if tid.startswith("phi_"):
        out += [dict(norm=parse_norm(t)) for t in _WITNESS_NORMS]
    if not tid.startswith("phi_") or tid == "phi_operator":
        out += [dict(function=parse_function(t)) for t in _SCAN_FNS]
    if th.convexity_guard:
        guard = frozenset({DROP_CONVEXITY_GUARD})
        out += [dict(ablation=guard), dict(ablation=guard, function=parse_function("power:3"))]
    return out


@pytest.mark.parametrize("tid", _SCAN_IDS)
def test_scan_rows_match_the_per_trial_code_under_every_variant(tid):
    """The norms the witnesses take, the functions the scan ids take, and
    DROP_CONVEXITY_GUARD, on blocks and on single trials."""
    for kwargs in _scan_variants(tid):
        params = resolve_params(tid, CampaignConfig(**kwargs))
        # exp:100 overflows on its way to an unreliable trial: the campaign and
        # the demo run under the same errstate
        with np.errstate(all="ignore"):
            for dim in (1, 2, 3, 5, 8):
                seeds = [derive_trial_seed(2016, dim, t) for t in range(16)]
                want = [
                    outcome_to_dict(_SCAN_REFS[tid](RandomStream(s), dim, params)) for s in seeds
                ]
                got = [outcome_to_dict(o) for o in _outcomes(tid, seeds, dim, params)]
                assert got == want, (tid, kwargs, dim)
                assert outcome_to_dict(run_trial(tid, seeds[5], dim, params)) == want[5]


_CURVE_IDS = (
    "op_norm_gg", "exp_norm", "trace_sqrt", "trace_squared",
    "uin_symmetric", "uin_end_left", "uin_end_right", "uin_full", "uin_diagonal",
)
_CURVE_REFS = dict((c[0], c[1]) for c in _BATCH_CASES if c[0] in _CURVE_IDS)


def _curve_variants(tid):
    out = [dict(quad_n=17)]
    if not tid.startswith("trace_"):
        out += [dict(norm=parse_norm(t)) for t in _WITNESS_NORMS]
    if tid == "op_norm_gg":
        out += [dict(function=parse_function("power:3"))]
        # a decreasing f reads the lower envelope of the eigenvalue curves
        out += [dict(function=parse_function("inverse"), norm=parse_norm("opnorm"))]
    if tid in ("uin_symmetric", "uin_end_right"):
        out += [dict(nu=0.7)]
    if campaign.THEOREMS[tid].convexity_guard:
        out += [dict(ablation=frozenset({DROP_CONVEXITY_GUARD}))]
    return out


@pytest.mark.parametrize("tid", _CURVE_IDS)
def test_curve_rows_match_the_per_trial_code_under_every_variant(tid):
    """The norms, weights, function and node count the nine ids take, on
    blocks and on single trials."""
    for kwargs in _curve_variants(tid):
        params = resolve_params(tid, CampaignConfig(**kwargs))
        for dim in (1, 2, 3, 5, 8):
            seeds = [derive_trial_seed(2018, dim, t) for t in range(16)]
            want = [outcome_to_dict(_CURVE_REFS[tid](RandomStream(s), dim, params)) for s in seeds]
            got = [outcome_to_dict(o) for o in _outcomes(tid, seeds, dim, params)]
            assert got == want, (tid, kwargs, dim)
            assert outcome_to_dict(run_trial(tid, seeds[5], dim, params)) == want[5]


@pytest.mark.parametrize("tid", ["phi_sandwich", "uin_full"])
def test_a_one_point_block_replays_bit_for_bit(tid):
    """At dim 41 a block holds STACK_ENTRIES // 41^2 = 9 points, so the 1,090
    points of the scan and the 64 nodes of the quadrature each end in a
    block of one point, whose Schatten-2 matmul takes another BLAS route
    (gemv) than the blocks of nine: a trial replays with the same blocks."""
    dim = 41
    per_block = STACK_ENTRIES // dim**2
    assert per_block == 9
    params = resolve_params(tid, CampaignConfig())
    assert (DEFAULT_GRID_N**2 + 1) % per_block == 1 and params.quad_n % per_block == 1
    assert params.norm == parse_norm("schatten:2")
    seeds = [derive_trial_seed(2020, dim, t) for t in range(3)]
    got = [outcome_to_dict(o) for o in _outcomes(tid, seeds, dim, params)]
    assert got == [outcome_to_dict(run_trial(tid, s, dim, params)) for s in seeds]


@pytest.mark.parametrize("tid", _SCAN_IDS + _CURVE_IDS)
def test_a_trial_that_raises_in_a_scan_block_ends_unreliable(tid, monkeypatch):
    if tid in ("scalar_ag", "scalar_gg"):
        draw = "_log_uniform"
    elif tid.startswith(("phi_s", "phi_d", "uin_")):
        draw = "random_spd"
    else:
        draw = "commuting_spectra"
    params = resolve_params(tid, CampaignConfig())
    seeds = [derive_trial_seed(4, 3, t) for t in range(12)]
    want = [outcome_to_dict(o) for o in _outcomes(tid, seeds, 3, params)]
    real_draw = getattr(campaign, draw)

    def planted(stream, *args):
        if seeds[7] in np.atleast_1d(stream.seed).tolist():
            raise DomainViolationError("planted in trial 7")
        return real_draw(stream, *args)

    monkeypatch.setattr(campaign, draw, planted)
    got = list(_outcomes(tid, seeds, 3, params))
    assert [o.quad_reliable for o in got] == [t != 7 for t in range(12)]
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    assert outcome_to_dict(got[7]) == outcome_to_dict(_unreliable(tid))


@pytest.mark.parametrize("tid", ["scalar_ag", "scalar_gg"])
def test_an_endpoint_tie_moves_the_upper_end_by_one_ulp(tid, monkeypatch):
    real = campaign._log_uniform

    def tied(stream, k, lo, hi):
        vals = real(stream, k, lo, hi)
        vals[..., 1] = vals[..., 0]
        return vals

    monkeypatch.setattr(campaign, "_log_uniform", tied)
    params = resolve_params(tid, CampaignConfig())
    seeds = [derive_trial_seed(5, 2, t) for t in range(20)]

    def reference(seed):
        # a tie can leave log b - log a at zero, where the gg chain's mean of
        # log f is not defined: the trial cannot be judged
        try:
            return outcome_to_dict(_SCAN_REFS[tid](RandomStream(seed), 2, params))
        except ZeroDivisionError:
            return outcome_to_dict(_unreliable(tid))

    want = [reference(s) for s in seeds]
    assert [outcome_to_dict(run_trial(tid, s, 2, params)) for s in seeds] == want
    assert [outcome_to_dict(o) for o in _outcomes(tid, seeds, 2, params)] == want
    assert (outcome_to_dict(_unreliable(tid)) in want) == (tid == "scalar_gg")
    with pytest.raises(DomainViolationError):
        chains.scalar_hh_chain("gg", FunctionSpec.exp(1.0), 9.9, math.nextafter(9.9, math.inf))


@pytest.mark.parametrize(
    "tid", [t for t in _SCAN_IDS + _CURVE_IDS if campaign.THEOREMS[t].convexity_guard]
)
def test_drop_convexity_guard_skips_the_hypothesis_scan(tid, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the hypothesis scan ran")

    monkeypatch.setattr(chains, "convexity_holds", no_scan)
    cfg = CampaignConfig(ablation=frozenset({DROP_CONVEXITY_GUARD}))
    params = resolve_params(tid, cfg)
    seeds = [derive_trial_seed(6, 3, t) for t in range(10)]
    outcomes = list(_outcomes(tid, seeds, 3, params))
    assert all(o.hypothesis_ok and o.quad_reliable for o in outcomes)


def test_certified_hypothesis_skips_the_grid_scan(monkeypatch):
    # under exp:1 every advisory interval is certified without a scan, and
    # the strictly log-convex dim-3 witness curves are settled from their
    # trivial triples; at dim 1 the witness log curve is affine, so each
    # trial still takes the full scan
    scans = []
    real_scan = functions._scan_fine_grid

    def counted(*args):
        scans.append(1)
        return real_scan(*args)

    monkeypatch.setattr(functions, "_scan_fine_grid", counted)
    for tid, dim, want in (("scalar_ag", 3, 0), ("phi_sandwich", 3, 0), ("phi_sandwich", 1, 10)):
        seeds = [derive_trial_seed(6, dim, t) for t in range(10)]
        params = resolve_params(tid, CampaignConfig(function=FunctionSpec.exp(1.0)))
        scans.clear()
        outcomes = list(_outcomes(tid, seeds, dim, params))
        assert len(scans) == want, (tid, dim)
        assert all(o.hypothesis_ok for o in outcomes)


def test_no_curve_block_exceeds_the_entry_budget(monkeypatch):
    sizes = []
    real_stack, real_rows = chains.norms_of_stack, chains.norms_from_eig_rows

    def stack(m, spec):
        # not the uin anchors: the five matrices of each trial of a block that
        # _TwoSidedPowers.direct materializes, not a curve block
        if sys._getframe(1).f_code.co_name != "_uin_stack":
            sizes.append(m.size)
        return real_stack(m, spec)

    def rows(r, spec):
        sizes.append(r.size)
        return real_rows(r, spec)

    monkeypatch.setattr(chains, "norms_of_stack", stack)
    monkeypatch.setattr(chains, "norms_from_eig_rows", rows)
    for tid in ("phi_operator", "phi_sandwich", "phi_diagonal"):
        for dim in (2, 8, 40):
            params = resolve_params(tid, CampaignConfig())
            seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
            list(_outcomes(tid, seeds, dim, params))
    params = resolve_params("uin_full", CampaignConfig())
    run_trial("uin_full", derive_trial_seed(8, 40, 0), 40, params)
    seeds = [derive_trial_seed(8, 40, t) for t in range(3)]
    list(_outcomes("uin_full", seeds, 40, params))
    assert sizes and max(sizes) <= STACK_ENTRIES
    # a block holds more than one trial where they fit
    assert max(sizes) > (DEFAULT_GRID_N**2 + 1) * 2 * 2
    # op_norm_gg under the operator norm: a block of kink pieces of many trials
    sizes.clear()
    params = resolve_params("op_norm_gg", CampaignConfig(norm=NormSpec.opnorm()))
    for dim in (8, 40):
        seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
        list(_outcomes("op_norm_gg", seeds, dim, params))
    assert sizes and max(sizes) <= STACK_ENTRIES
    # a block holds more than one piece where they fit
    assert max(sizes) > 2 * params.quad_n * 8
    # the quadrature sample blocks, which integrate_trials_checked cuts
    blocks = []
    real_samples = quadrature._samples

    def samples(g, a, b, n):
        ws, out = real_samples(g, a, b, n)
        blocks.append((out.shape[0], out.size))
        return ws, out

    monkeypatch.setattr(quadrature, "_samples", samples)
    for tid in ("scalar_ag", "op_gg_hh", "op_norm_gg"):
        params = resolve_params(tid, CampaignConfig())
        for dim in (2, 8, 40):
            blocks.clear()
            seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
            list(_outcomes(tid, seeds, dim, params))
            assert blocks and max(size for _, size in blocks) <= STACK_ENTRIES, (tid, dim)
            # a block holds more than one trial (or kink piece) where they fit
            assert max(rows for rows, _ in blocks) > 1, (tid, dim)
    # dragomir integrates nothing: its segment integrals are exact
    for f in (FunctionSpec.power(2.0), FunctionSpec.inverse()):
        params = resolve_params("dragomir", CampaignConfig(function=f))
        for dim in (2, 8, 40):
            blocks.clear()
            seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
            list(_outcomes("dragomir", seeds, dim, params))
            assert not blocks, (f.describe(), dim)
    # the ablated phi_operator and op_gg_hh: every stack of f of products of
    # A^t B^(1-t) is under the budget, and op_gg_hh integrates (R, N, n, n)
    # blocks of R whole trials (one trial alone at dim 40)
    applied = []
    real_power_product = chains._f_of_power_product

    def f_of_power_product(pair, rows, ss, rs, fn):
        out = real_power_product(pair, rows, ss, rs, fn)
        if ss.size > 1:  # the points of a curve, not an end term
            applied.append(out.size)
        return out

    monkeypatch.setattr(chains, "_f_of_power_product", f_of_power_product)
    shapes = []

    def matrix_samples(g, a, b, n):
        ws, out = real_samples(g, a, b, n)
        shapes.append(out.shape)
        return ws, out

    monkeypatch.setattr(quadrature, "_samples", matrix_samples)
    for tid in ("phi_operator", "op_gg_hh"):
        params = resolve_params(tid, CampaignConfig(ablation=frozenset({DROP_COMMUTATIVITY})))
        for dim in (8, 40):
            applied.clear()
            shapes.clear()
            seeds = [derive_trial_seed(8, dim, t) for t in range(3)]
            list(_outcomes(tid, seeds, dim, params))
            assert applied and max(applied) <= STACK_ENTRIES, (tid, dim)
            if tid == "op_gg_hh":
                assert {shape[2:] for shape in shapes} == {(dim, dim)}, dim
                rows = [shape[0] for shape in shapes]
                sizes = [math.prod(shape) for shape in shapes]
                assert all(r == 1 or size <= STACK_ENTRIES for r, size in zip(rows, sizes))
                assert (max(rows) > 1) == (dim == 8), dim


# ---------------------------------------------------------------------------
# the block-wide report rules against the per-trial rules they replace


def _chain_rows(trials):
    """(trials, 5) chain rows: a random walk of log-uniform terms of both
    signs, with tied neighbours, and flags."""
    rng = np.random.default_rng(27)
    steps = rng.choice([-1.0, 1.0], (trials, 5)) * 10.0 ** rng.uniform(-14, 3, (trials, 5))
    rows = np.cumsum(steps, axis=1)
    rows[::3, 2] = rows[::3, 1]
    rows[::4] = rows[::4, :1]
    return rows, rng.random(trials) < 0.7, rng.random(trials) < 0.5


def _assert_python_scalars(report):
    for value in (
        *getattr(report, "term_values", ()), *getattr(report, "margins", ()),
        *(getattr(report, side) for side in ("lhs", "rhs", "margin") if hasattr(report, side)),
    ):
        assert type(value) is float
    assert all(type(b) is bool for b in (report.passed, report.quad_reliable, report.hypothesis_ok))


def test_chain_reports_give_each_trial_its_per_trial_report():
    rows, reliable, holds = _chain_rows(40)
    reliable, holds = reliable.tolist(), holds.tolist()
    block = _chain_reports("x", HH_TERM_NAMES, rows, 1e-8, 1e-12, reliable, holds)
    assert len(block) == 40 and not all(r.passed for r in block) and any(r.passed for r in block)
    for t, report in enumerate(block):
        alone = _chain_reports(
            "x", HH_TERM_NAMES, rows[t : t + 1], 1e-8, 1e-12, reliable[t : t + 1], holds[t : t + 1]
        )
        ref = _chain_report(
            "x", HH_TERM_NAMES, rows[t].tolist(), 1e-8, 1e-12, quad_reliable=reliable[t],
            hypothesis_ok=holds[t],
        )
        assert alone == [report] and report == ref
        _assert_python_scalars(report)
    # no flags: every trial reliable and its hypothesis intact
    flags = _chain_reports("x", HH_TERM_NAMES, rows, 1e-8, 1e-12)
    assert [r.quad_reliable and r.hypothesis_ok for r in flags] == [True] * 40


def test_chain_reports_at_the_tolerance_and_with_tied_margins():
    # rtol = atol = 1/4: a term of 2 gives the tolerance 3/4 exactly
    below = float(np.nextafter(1.25, 0.0))
    rows = [
        (2.0, 1.25, 0.5), (2.0, below, 0.5), (3.0, 3.0, 3.0), (2.0, 2.0, 1.25), (0.5, 0.5, below)
    ]
    got = _chain_reports("x", ("p", "q", "r"), rows, 0.25, 0.25)
    assert [r.passed for r in got] == [True, False, True, True, True]
    assert got[0].margins == (-0.75, -0.75) and got[2].margins == (0.0, 0.0)
    assert got == [_chain_report("x", ("p", "q", "r"), row, 0.25, 0.25) for row in rows]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_chain_reports_refuse_a_block_with_a_non_finite_term(bad):
    rows, _, _ = _chain_rows(40)
    rows[17, 3] = bad
    with pytest.raises(DomainViolationError, match="non-finite chain term"):
        _chain_reports("x", HH_TERM_NAMES, rows, 1e-8, 1e-12)
    with pytest.raises(DomainViolationError) as alone:
        _chain_reports("x", HH_TERM_NAMES, rows[17:18], 1e-8, 1e-12)
    with pytest.raises(DomainViolationError) as ref:
        _chain_report("x", HH_TERM_NAMES, rows[17].tolist(), 1e-8, 1e-12)
    assert str(alone.value) == str(ref.value)


def test_inequality_reports_give_each_trial_its_per_trial_report():
    sides = [-math.inf, -3.0, -1.0, -0.0, 0.0, 1e-13, 1.0, 1.25, 2.0, 1e300, math.inf, math.nan]
    lhs, rhs = (list(x) for x in zip(*[(x, y) for x in sides for y in sides]))
    for rtol, atol, hyp in ((1e-8, 1e-12, True), (0.25, 0.25, False)):
        block = _inequality_reports("x", lhs, rhs, rtol, atol, hypothesis_ok=hyp)
        assert len(block) == len(lhs)
        for x, y, report in zip(lhs, rhs, block):
            ref = _inequality_report("x", x, y, rtol, atol, hypothesis_ok=hyp)
            assert repr(_inequality_reports("x", [x], [y], rtol, atol, hyp)) == repr([report])
            assert repr(report) == repr(ref)
            _assert_python_scalars(report)
            if math.isnan(x) or math.isnan(y):
                assert not report.passed
    # the margin exactly at the tolerance passes, one ulp below it fails
    below = float(np.nextafter(1.25, 0.0))
    edge = _inequality_reports("x", [2.0, 2.0], [1.25, below], 0.25, 0.25)
    assert [r.passed for r in edge] == [True, False]


def test_a_non_finite_chain_term_in_a_block_leaves_only_its_trial_unreliable(monkeypatch):
    params = resolve_params("scalar_ag", CampaignConfig())
    seeds = [derive_trial_seed(5, 3, t) for t in range(12)]
    want = [outcome_to_dict(o) for o in _outcomes("scalar_ag", seeds, 3, params)]
    planted_lo = campaign._Block(np.array(seeds, dtype=np.uint64), 3).interval[0][7]
    real_hh_stack = chains._hh_stack
    blocks = []

    def hh_stack(anchors, log_curve, lo, hi, *args, **kwargs):
        terms, reliable = real_hh_stack(anchors, log_curve, lo, hi, *args, **kwargs)
        blocks.append(len(terms))
        terms = [(math.inf, *v[1:]) if x == planted_lo else v for v, x in zip(terms, lo.tolist())]
        return terms, reliable

    monkeypatch.setattr(chains, "_hh_stack", hh_stack)
    got = _outcomes("scalar_ag", seeds, 3, params)
    # the block raises, and its trials run again one at a time
    assert blocks == [12] + [1] * 12
    assert [o.quad_reliable for o in got] == [t != 7 for t in range(12)]
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    assert outcome_to_dict(got[7]) == outcome_to_dict(_unreliable("scalar_ag"))
