"""Campaign driver: parameter resolution, theorem selection, deterministic
accounting, exit codes, serialization, and single-trial replay."""

import json
import math
from dataclasses import replace

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
    InequalityReport,
    UinVariant,
    _chain_report,
    _inequality_report,
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
    DOUBLING_TOL,
    MAX_NODES,
    _mapped_nodes,
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
            "scalar_ag", "scalar_gg", "op_gg_hh", "op_ag_midpoint",
            "op_norm_gg", "exp_norm", "phi_operator",
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
    return lambda seeds, dim, p: [outcome() for _ in seeds.tolist()]


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


def _ref_general_apply(m, fn):
    w, v = np.linalg.eig(m)
    wr = w.real
    if not np.isfinite(wr).all() or (wr <= 0.0).any():
        raise ConvergenceError("not positive")
    if float(np.max(np.abs(w.imag))) > 1e-8 * (1.0 + float(np.max(np.abs(wr)))):
        raise ConvergenceError("not real")
    return np.real((v * fn(wr)) @ np.linalg.inv(v))


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


def _ref_integrate_matrix(g, n):
    xs, ws = _mapped_nodes(0.0, 1.0, n)
    total = None
    for t, w in zip(xs, ws):
        sample = np.asarray(g(float(t)), dtype=float)
        if total is None:
            total = np.zeros(sample.shape)
        if not np.isfinite(sample).all():
            raise NonFiniteSampleError(f"non-finite at t={t!r}")
        total += w * sample
    return total


def _ref_integrate_matrix_checked(g, n):
    v1 = _ref_integrate_matrix(g, n)
    v2 = _ref_integrate_matrix(g, min(2 * n, MAX_NODES))
    resid = float(np.linalg.norm(v1 - v2))
    return v1, resid <= DOUBLING_TOL * (1.0 + float(np.linalg.norm(v1)))


def _ref_phi(da, db, a, b, f, spec, t):
    m = power_from_decomp(da, t, a) @ power_from_decomp(db, 1.0 - t, b)
    s = np.linalg.svd(_ref_general_apply(m, f.eval_array), compute_uv=False)
    return float(spec.of_singular_values(np.maximum(s, 0.0)))


def _ref_log_f_of_sym(d, f):
    return d.apply(np.log(f.eval_array(d.eigenvalues)))


def _ref_op_gg_hh(stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    try:
        t1 = _ref_sym(_ref_general_apply(a @ b, lambda w: np.log(p.f.eval_array(np.sqrt(w)))))

        def node(t):
            m = power_from_decomp(da, t, a) @ power_from_decomp(db, 1.0 - t, b)
            return _ref_sym(_ref_general_apply(m, lambda w: np.log(p.f.eval_array(w))))

        t2, ok = _ref_integrate_matrix_checked(node, p.quad_n)
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("op_gg_hh")
    t3 = 0.5 * (_ref_log_f_of_sym(da, p.f) + _ref_log_f_of_sym(db, p.f))
    return _ref_order_report_from_matrices(
        "op_gg_hh", GG_HH_TERM_NAMES, (t1, t2, t3), p.rtol, quad_reliable=ok, hypothesis_ok=False
    )


def _ref_op_ag_midpoint(stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    fa, fb = matrix_function(da, p.f), matrix_function(db, p.f)
    t1 = matrix_function(eigh(0.5 * (a + b)), p.f)
    try:

        def node(al):
            fp = matrix_function(eigh(al * a + (1.0 - al) * b), p.f)
            fq = matrix_function(eigh((1.0 - al) * a + al * b), p.f)
            return _ref_sym(_ref_general_apply(fp @ fq, np.sqrt))

        t2, ok = _ref_integrate_matrix_checked(node, p.quad_n)
        t3 = _ref_sym(_ref_general_apply(fa @ fb, np.sqrt))
    except (np.linalg.LinAlgError, ConvergenceError):
        return _unreliable("op_ag_midpoint")
    return _ref_order_report_from_matrices(
        "op_ag_midpoint", AG_MIDPOINT_TERM_NAMES, (t1, t2, t3), p.rtol,
        quad_reliable=ok, hypothesis_ok=False,
    )


def _ref_norm_gg(theorem_id, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    try:
        anchors = [_ref_phi(da, db, a, b, p.f, p.norm, u) for u in (0.0, 0.25, 0.5, 0.75, 1.0)]
        if min(anchors) <= 0.0:
            return _unreliable(theorem_id)

        def g(ts):
            return np.array([math.log(_ref_phi(da, db, a, b, p.f, p.norm, float(t))) for t in ts])

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
        theorem_id, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=ok, hypothesis_ok=False
    )


def _ref_phi_operator(stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    m = DEFAULT_GRID_N * DEFAULT_GRID_N
    ts = np.arange(m + 1) / m
    try:
        vals = np.array([_ref_phi(da, db, a, b, p.f, p.norm, float(t)) for t in ts])
    except (np.linalg.LinAlgError, ConvergenceError):
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


def test_general_apply_refuses_any_bad_matrix_in_a_stack():
    good = np.array([[2.0, 0.5], [0.3, 1.0]])
    stack = np.stack([good, good, good])
    np.testing.assert_array_equal(
        chains._general_apply(stack, np.sqrt)[1], _ref_general_apply(good, np.sqrt)
    )
    negative = stack.copy()
    negative[1] = -good  # one non-positive spectrum in the middle of the stack
    with pytest.raises(ConvergenceError):
        chains._general_apply(negative, np.sqrt)
    rotation = stack.copy()
    rotation[2] = [[1.0, -2.0], [2.0, 1.0]]  # eigenvalues 1 +- 2i
    with pytest.raises(ConvergenceError):
        chains._general_apply(rotation, np.sqrt)


def test_general_apply_gives_each_matrix_of_a_stack_its_bits_alone():
    # eigenvalues 2 +- 1e-10i pass the realness tolerance, and eig then
    # returns the whole stack as complex
    near_real = np.array([[2.0, 1e-10], [-1e-10, 2.0]])
    for trial in range(200):
        stream = RandomStream(derive_trial_seed(14, 2, trial))
        ab = random_spd(stream, 2) @ random_spd(stream, 2)
        got = chains._general_apply(np.stack([ab, near_real]), np.log)[0]
        assert got.tobytes() == chains._general_apply(ab, np.log).tobytes(), trial


@pytest.mark.parametrize("tid", ["op_gg_hh", "phi_operator"])
def test_one_bad_node_makes_the_nc_trial_unreliable(tid, monkeypatch):
    real_products = chains._weighted_products

    def one_bad_node(pair, ts):
        out = real_products(pair, ts)
        out[:, min(3, ts.shape[0] - 1)] *= -1.0  # a negative spectrum at one node
        return out

    monkeypatch.setattr(chains, "_weighted_products", one_bad_node)
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
# which evaluated one trial's nodes in blocks of whole nodes


def _pt_over_nodes(fn, ts, node_entries):
    return np.concatenate([fn(ts[sl]) for sl in functions._blocks(ts.shape[0], node_entries)])


def _pt_general_apply(m, fn):
    """The per-trial _general_apply: a stack that eig makes complex is taken
    again one matrix at a time."""
    w, v = np.linalg.eig(m)
    wr = w.real
    if not np.isfinite(wr).all() or (wr <= 0.0).any():
        raise ConvergenceError("not positive")
    if (np.max(np.abs(w.imag), axis=-1) > 1e-8 * (1.0 + np.max(np.abs(wr), axis=-1))).any():
        raise ConvergenceError("not real")
    if w.ndim == 2 and np.iscomplexobj(w):
        return np.stack([_pt_general_apply(x, fn) for x in m])
    return np.real((v * fn(wr)[..., None, :]) @ np.linalg.inv(v))


def _pt_products(da, db, a, b, ts):
    return _power_stack(da.eigenvalues, da.q, ts, a) @ _power_stack(db.eigenvalues, db.q, 1.0 - ts, b)


def _pt_sv_norm(m, spec):
    return spec.of_singular_values(np.maximum(np.linalg.svd(m, compute_uv=False), 0.0))


def _pt_phi(da, db, a, b, f, spec, ts):
    def block(t):
        return _pt_sv_norm(_pt_general_apply(_pt_products(da, db, a, b, t), f.eval_array), spec)

    return _pt_over_nodes(block, ts, a.size)


def _pt_order_chain(tid, names, t1, nodes, t3, quad_n, rtol):
    t2, ok = integrate_matrix_checked(
        lambda ts: _pt_over_nodes(nodes, ts, t1.size), 0.0, 1.0, quad_n
    )
    return chains._order_report_from_matrices(
        tid, names, (t1, t2, t3), rtol, quad_reliable=ok, hypothesis_ok=False
    )


def _pt_op_gg_hh(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    t1 = _ref_sym(_pt_general_apply(a @ b, lambda w: np.log(p.f.eval_array(np.sqrt(w)))))

    def nodes(ts):
        m = _pt_products(da, db, a, b, ts)
        return _sym(_pt_general_apply(m, lambda w: np.log(p.f.eval_array(w))))

    t3 = 0.5 * (_ref_log_f_of_sym(da, p.f) + _ref_log_f_of_sym(db, p.f))
    return _pt_order_chain(tid, GG_HH_TERM_NAMES, t1, nodes, t3, p.quad_n, p.rtol)


def _pt_op_ag_midpoint(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)
    fa, fb = matrix_function(da, p.f), matrix_function(db, p.f)
    t1 = matrix_function(eigh(0.5 * (a + b)), p.f)

    def segment(x, y, ts):
        lam, q = np.linalg.eigh(_sym(ts[:, None, None] * x + (1.0 - ts)[:, None, None] * y))
        return _apply_stack(q, _f_of_spectrum(p.f, lam))

    def nodes(als):
        return _sym(_pt_general_apply(segment(a, b, als) @ segment(b, a, als), np.sqrt))

    t3 = _sym(_pt_general_apply(fa @ fb, np.sqrt))
    return _pt_order_chain(tid, AG_MIDPOINT_TERM_NAMES, t1, nodes, t3, p.quad_n, p.rtol)


def _pt_norm_gg(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    da, db = eigh(a), eigh(b)

    def log_phi(ts):
        return np.array([math.log(v) for v in _pt_phi(da, db, a, b, p.f, p.norm, ts).tolist()])

    anchors = _pt_phi(da, db, a, b, p.f, p.norm, np.array(HH_NODES)).tolist()
    if (np.asarray(anchors) <= 0.0).any():
        raise DomainViolationError("norm curve is not strictly positive")
    pieces = [integrate_stack_checked(log_phi, 0.0, 1.0, p.quad_n)]
    terms, reliable = _ref_hh(anchors, pieces, 1.0)
    return _chain_report(
        tid, HH_TERM_NAMES, terms, p.rtol, p.atol, quad_reliable=reliable, hypothesis_ok=False
    )


def _pt_phi_operator(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    vals = _pt_phi(eigh(a), eigh(b), a, b, p.f, p.norm, _REF_TS)
    return _ref_witness(tid, vals, _REF_TS, hypothesis_ok=False)


def _pt_trace(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
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
        w = np.linalg.eigvals(a @ b).real
        if (w <= 0.0).any():
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

    lhs = _pt_sv_norm(power(a, p.nu) @ x @ power(b, 1.0 - p.nu), p.norm)
    if not math.isfinite(lhs):
        raise DomainViolationError("the left side is not finite")
    rhs = _pt_sv_norm(a @ x, p.norm) ** p.nu * _pt_sv_norm(x @ b, p.norm) ** (1.0 - p.nu)
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
                got = [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, dim, params)]
                assert got == want, (tid, kwargs, dim)
                for k in (0, 17, 39):
                    assert outcome_to_dict(run_trial(tid, seeds[k], dim, params)) == want[k]


# ---------------------------------------------------------------------------
# trial-batched closed-form rows against the per-trial code they replace


def _ref_scalar_means(stream, dim, p):
    a, b = (float(v) for v in _log_uniform(stream, 2, campaign.SPD_LO, campaign.SPD_HI))
    return _chain_report("scalar_means", MEAN_CHAIN_NAMES, scalar_mean_chain(a, b), p.rtol, p.atol)


def _ref_det_ag(stream, dim, p):
    ma, mb = (check_symmetric(m) for m in campaign._spd_pair(stream, dim))
    lhs = det_pd(ma) ** p.nu * det_pd(mb) ** (1.0 - p.nu)
    rhs = det_pd(p.nu * ma + (1.0 - p.nu) * mb)
    return _inequality_report("det_ag", lhs, rhs, p.rtol, p.atol)


def _ref_am_gm_loewner(stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
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
    a, b = campaign._spd_pair(stream, dim)
    x = random_general(stream, dim, dim)
    ma, mb = check_symmetric(a), check_symmetric(b)
    da, db = eigh(ma), eigh(mb)
    left = power_from_decomp(da, p.nu, original=ma) @ x @ power_from_decomp(
        db, 1.0 - p.nu, original=mb
    )
    lhs = norm(left, p.norm)
    rhs = norm(ma @ x, p.norm) ** p.nu * norm(x @ mb, p.norm) ** (1.0 - p.nu)
    return _inequality_report("kittaneh", lhs, rhs, p.rtol, p.atol)


def _ref_dragomir(stream, dim, p):
    """The per-trial dragomir chain: f of each anchor through eigh and
    matrix_function, and each segment integral through its own
    integrate_stack_checked call."""
    ma, mb = (check_symmetric(m) for m in campaign._spd_pair(stream, dim))
    if p.f.kind == "inverse":
        for m in (ma, mb):
            if float(np.linalg.eigvalsh(m)[0]) <= 0.0:
                raise NotPositiveDefiniteError("inverse needs a positive definite pair")

    def f_of(m):
        return matrix_function(eigh(m), p.f)

    def segment(ts):
        combos = ts[:, None, None] * ma + (1.0 - ts)[:, None, None] * mb
        lam, q = np.linalg.eigh(combos)
        if not p.f.defined_at(lam).all():
            raise DomainViolationError("undefined on the segment")
        return (q * p.f.eval_array(lam)[:, None, :]) @ np.swapaxes(q, 1, 2)

    fa, fb, f_mid = f_of(ma), f_of(mb), f_of(0.5 * (ma + mb))
    d3 = 0.5 * (f_of(0.25 * (3.0 * ma + mb)) + f_of(0.25 * (ma + 3.0 * mb)))
    central, ok2 = integrate_stack_checked(segment, 0.25, 0.75, p.quad_n)
    full, ok4 = integrate_stack_checked(segment, 0.0, 1.0, p.quad_n)
    terms = (f_mid, 2.0 * central, d3, full, 0.5 * f_mid + 0.25 * (fa + fb), 0.5 * (fa + fb))
    return _ref_order_report_from_matrices(
        "dragomir", chains.DRAGOMIR_TERM_NAMES, terms, p.rtol, quad_reliable=ok2 and ok4
    )


_NUS = (0.3, 0.5, 0.7)
_BATCH_CASES = (
    (
        "dragomir",
        _ref_dragomir,
        [
            {},
            dict(function=FunctionSpec.inverse()),
            dict(quad_n=17),
            # inverse at 17 nodes fails the doubling check on some trials
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
            got = [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, dim, params)]
            assert got == want, (tid, kwargs, dim)
            for k in (0, 37, 99):
                assert outcome_to_dict(run_trial(tid, seeds[k], dim, params)) == want[k]


def _plant_in_det_ag(seed, error):
    """The det_ag stack, raising error on the block that holds the trial of seed."""
    planted = campaign.random_spd(RandomStream(seed), 3, campaign.SPD_LO, campaign.SPD_HI)
    real = campaign._det_ag_stack

    def run(a, b, *args):
        if any(np.array_equal(m, planted) for m in a):
            raise error("planted")
        return real(a, b, *args)

    return "_det_ag_stack", run


def _plant_in_op_gg_hh_general(seed, error):
    """The ablated op_gg_hh stack, raising error on the block that holds the trial of seed."""
    planted = campaign._spd_pair(RandomStream(seed), 3)[0]
    real = campaign.op_gg_hh_general

    def run(f, a, b, *args):
        if any(np.array_equal(m, planted) for m in a):
            raise error("planted")
        return real(f, a, b, *args)

    return "op_gg_hh_general", run


# a stacked row, and an ablated stacked row: the config, the planter, the
# error planted in trial 7, and the pass, fail and unreliable counts of a
# 20-trial campaign at master seed 3 and dim 3
_RAISING_ROWS = {
    "det_ag": (CampaignConfig(), _plant_in_det_ag, DomainViolationError, (19, 0, 1)),
    "op_gg_hh": (
        CampaignConfig(ablation=frozenset({DROP_COMMUTATIVITY})),
        _plant_in_op_gg_hh_general,
        ConvergenceError,
        (7, 12, 1),
    ),
}


@pytest.mark.parametrize("tid", list(_RAISING_ROWS))
def test_a_raising_block_is_rerun_one_trial_at_a_time(tid, monkeypatch):
    cfg, plant, error, counts = _RAISING_ROWS[tid]
    params = resolve_params(tid, cfg)
    seeds = [derive_trial_seed(3, 3, t) for t in range(20)]
    want = [outcome_to_dict(run_trial(tid, s, 3, params)) for s in seeds]
    monkeypatch.setattr(campaign, *plant(seeds[7], error))
    got = list(campaign._outcomes(tid, seeds, 3, params))
    assert [o.quad_reliable for o in got] == [t != 7 for t in range(20)]
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    cfg = replace(cfg, theorem_ids=(tid,), trials=20, dims=(3,), master_seed=3)
    st = run_campaign(cfg).stats[0]
    assert (st.pass_count, st.fail_count, st.unreliable_count) == counts
    # an error the trial alone does not catch still ends the campaign
    monkeypatch.setattr(campaign, *plant(seeds[7], NotPositiveDefiniteError))
    with pytest.raises(NotPositiveDefiniteError):
        list(campaign._outcomes(tid, seeds, 3, params))


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


def _ref_two_sided(tid, stream, dim, p):
    a, b = campaign._spd_pair(stream, dim)
    x = random_general(stream, dim, dim)
    (la, qa), (lb, qb) = _ref_signed_eigh(check_symmetric(a)), _ref_signed_eigh(check_symmetric(b))
    core = qa.T @ x @ qb
    ts = _REF_TS
    second = ts if tid == "phi_diagonal" else 1.0 - ts
    left, right = np.power(la[None, :], ts[:, None]), np.power(lb[None, :], second[:, None])
    vals = norms_of_stack(left[:, :, None] * core * right[:, None, :], p.norm)
    return _ref_witness(tid, vals, ts)


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
    if p.norm.kind == "kyfan" or p.norm.params[0] == math.inf:
        edges[1:1] = chains._eig_crossings(av, bv)
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
    a, b = campaign._spd_pair(stream, dim)
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
        left, right = np.power(la[None, :], ts[:, None]), np.power(lb[None, :], second(ts)[:, None])
        vals = norms_of_stack(left[:, :, None] * core * right[:, None, :], p.norm)
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
                got = [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, dim, params)]
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
            got = [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, dim, params)]
            assert got == want, (tid, kwargs, dim)
            assert outcome_to_dict(run_trial(tid, seeds[5], dim, params)) == want[5]


@pytest.mark.parametrize("tid", _SCAN_IDS + _CURVE_IDS)
def test_a_trial_that_raises_in_a_scan_block_ends_unreliable(tid, monkeypatch):
    if tid in ("scalar_ag", "scalar_gg"):
        draw = "_scalar_interval"
    elif tid.startswith(("phi_s", "phi_d", "uin_")):
        draw = "_spd_pair_with_x"
    else:
        draw = "_commuting_spectra"
    params = resolve_params(tid, CampaignConfig())
    seeds = [derive_trial_seed(4, 3, t) for t in range(12)]
    want = [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, 3, params)]
    real_draw = getattr(campaign, draw)

    def planted(stream, *args):
        if seeds[7] in np.atleast_1d(stream.seed).tolist():
            raise DomainViolationError("planted in trial 7")
        return real_draw(stream, *args)

    monkeypatch.setattr(campaign, draw, planted)
    got = list(campaign._outcomes(tid, seeds, 3, params))
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
    assert [outcome_to_dict(o) for o in campaign._outcomes(tid, seeds, 2, params)] == want
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
    outcomes = list(campaign._outcomes(tid, seeds, 3, params))
    assert all(o.hypothesis_ok and o.quad_reliable for o in outcomes)


def test_certified_hypothesis_skips_the_grid_scan(monkeypatch):
    # under exp:1 every advisory interval is certified without a scan, while
    # a witness scan still runs once per trial
    scans = []
    real_scan = functions._scan_fine_grid

    def counted(*args):
        scans.append(1)
        return real_scan(*args)

    monkeypatch.setattr(functions, "_scan_fine_grid", counted)
    monkeypatch.setattr(chains, "_scan_fine_grid", counted)
    seeds = [derive_trial_seed(6, 3, t) for t in range(10)]
    for tid, want in (("scalar_ag", 0), ("phi_sandwich", len(seeds))):
        params = resolve_params(tid, CampaignConfig(function=FunctionSpec.exp(1.0)))
        scans.clear()
        outcomes = list(campaign._outcomes(tid, seeds, 3, params))
        assert len(scans) == want, tid
        assert all(o.hypothesis_ok for o in outcomes)


def test_no_curve_block_exceeds_the_entry_budget(monkeypatch):
    sizes = []
    real_stack, real_rows = chains.norms_of_stack, chains.norms_from_eig_rows

    def stack(m, spec):
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
            list(campaign._outcomes(tid, seeds, dim, params))
    params = resolve_params("uin_full", CampaignConfig())
    run_trial("uin_full", derive_trial_seed(8, 40, 0), 40, params)
    seeds = [derive_trial_seed(8, 40, t) for t in range(3)]
    list(campaign._outcomes("uin_full", seeds, 40, params))
    assert sizes and max(sizes) <= STACK_ENTRIES
    # a block holds more than one trial where they fit
    assert max(sizes) > (DEFAULT_GRID_N**2 + 1) * 2 * 2
    # op_norm_gg under the operator norm: a block of kink pieces of many trials
    sizes.clear()
    params = resolve_params("op_norm_gg", CampaignConfig(norm=NormSpec.opnorm()))
    for dim in (8, 40):
        seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
        list(campaign._outcomes("op_norm_gg", seeds, dim, params))
    assert sizes and max(sizes) <= STACK_ENTRIES
    # a block holds more than one piece at 2 * quad_n nodes where they fit
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
            list(campaign._outcomes(tid, seeds, dim, params))
            assert blocks and max(size for _, size in blocks) <= STACK_ENTRIES, (tid, dim)
            # a block holds more than one trial (or kink piece) where they fit
            assert max(rows for rows, _ in blocks) > 1, (tid, dim)
    # dragomir's segment rows: one row alone, when it holds more than
    # STACK_ENTRIES entries at 2n nodes (dim 40), and more than one where they fit
    params = resolve_params("dragomir", CampaignConfig())
    for dim in (2, 8, 40):
        blocks.clear()
        seeds = [derive_trial_seed(8, dim, t) for t in range(6)]
        list(campaign._outcomes("dragomir", seeds, dim, params))
        assert blocks and all(rows == 1 or size <= STACK_ENTRIES for rows, size in blocks), dim
        fits = 2 * 2 * params.quad_n * dim * dim <= STACK_ENTRIES
        assert (max(rows for rows, _ in blocks) > 1) == fits, dim
    # the ablated phi_operator and op_gg_hh: every stack of products of A^t
    # B^(1-t) is under the budget, and op_gg_hh integrates blocks of whole
    # trials, node axis first (one trial alone at dim 40)
    applied = []
    real_apply = chains._general_apply

    def general_apply(m, fn):
        applied.append(m.size)
        return real_apply(m, fn)

    monkeypatch.setattr(chains, "_general_apply", general_apply)
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
            list(campaign._outcomes(tid, seeds, dim, params))
            assert applied and max(applied) <= STACK_ENTRIES, (tid, dim)
            if tid == "op_gg_hh":
                trials = [shape[1] for shape in shapes]
                sizes = [math.prod(shape) for shape in shapes]
                assert all(t == 1 or size <= STACK_ENTRIES for t, size in zip(trials, sizes))
                assert (max(trials) > 1) == (dim == 8), dim
