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
from hhverify import campaign
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
    HH_TERM_NAMES,
    InequalityReport,
    _chain_report,
    _inequality_report,
    _order_report_from_matrices,
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
    ConvexityVerdict,
    _scan_fine_grid,
    scalar_mean_chain,
)
from hhverify.linalg import (
    check_symmetric,
    det_pd,
    eigh,
    matrix_function,
    operator_norm_sym,
    power_from_decomp,
    weighted_geometric_mean,
)
from hhverify.norms import norm, parse_norm
from hhverify.quadrature import DOUBLING_TOL, MAX_NODES, _mapped_nodes, integrate_scalar_checked
from hhverify.sampler import RandomStream, _log_uniform, derive_trial_seed, random_general

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


def test_exit_code_one_on_genuine_violation(monkeypatch):
    from hhverify import campaign as mod

    def broken(stream, dim, p):
        return InequalityReport("scalar_ag", 1.0, 0.0, -1.0, passed=False)

    monkeypatch.setitem(mod.THEOREMS, "scalar_ag", replace(mod.THEOREMS["scalar_ag"], run=broken))
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
        replace(mod.THEOREMS["scalar_ag"], run=lambda s, d, p: _unreliable("scalar_ag")),
    )
    cfg = CampaignConfig(theorem_ids=("scalar_ag",), **SMALL)
    report = run_campaign(cfg)
    assert report.exit_code == 3
    assert report.stats[0].unreliable_count == 20
    assert report.stats[0].pass_count == 0
    # the sentinel's margin must never enter the accounting
    assert report.stats[0].min_margin is None


def test_genuine_violation_outranks_unreliable(monkeypatch):
    from hhverify import campaign as mod

    monkeypatch.setitem(
        mod.THEOREMS,
        "scalar_ag",
        replace(mod.THEOREMS["scalar_ag"], run=lambda s, d, p: _unreliable("scalar_ag")),
    )
    monkeypatch.setitem(
        mod.THEOREMS,
        "scalar_gg",
        replace(
            mod.THEOREMS["scalar_gg"],
            run=lambda s, d, p: InequalityReport("scalar_gg", 1.0, 0.0, -1.0, passed=False),
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
    t3 = 0.5 * (campaign._log_f_of_sym(da, p.f) + campaign._log_f_of_sym(db, p.f))
    return _order_report_from_matrices(
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
    return _order_report_from_matrices(
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


_NC_CASES = (
    ("op_gg_hh", campaign._run_op_gg_hh_nc, _ref_op_gg_hh, ("opnorm",)),
    ("op_ag_midpoint", campaign._run_op_ag_midpoint_nc, _ref_op_ag_midpoint, ("opnorm",)),
    (
        "op_norm_gg",
        lambda s, d, p: campaign._run_norm_gg_nc("op_norm_gg", s, d, p),
        lambda s, d, p: _ref_norm_gg("op_norm_gg", s, d, p),
        ("opnorm", "schatten:2", "kyfan:2", "schatten:3"),
    ),
    (
        "exp_norm",
        lambda s, d, p: campaign._run_norm_gg_nc("exp_norm", s, d, p),
        lambda s, d, p: _ref_norm_gg("exp_norm", s, d, p),
        ("opnorm", "kyfan:2"),
    ),
    (
        "phi_operator",
        campaign._run_phi_operator_nc,
        _ref_phi_operator,
        ("opnorm", "schatten:2", "kyfan:2"),
    ),
)


@pytest.mark.parametrize("tid, stacked, reference, norms", _NC_CASES, ids=[c[0] for c in _NC_CASES])
def test_stacked_nc_runners_match_per_node_loop(tid, stacked, reference, norms):
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
                    got = outcome_to_dict(stacked(RandomStream(seed), dim, params))
                    assert got == want, (tid, norm_text, fn, dim, seed)


def test_general_apply_refuses_any_bad_matrix_in_a_stack():
    good = np.array([[2.0, 0.5], [0.3, 1.0]])
    stack = np.stack([good, good, good])
    np.testing.assert_array_equal(
        campaign._general_apply(stack, np.sqrt)[1], _ref_general_apply(good, np.sqrt)
    )
    negative = stack.copy()
    negative[1] = -good  # one non-positive spectrum in the middle of the stack
    with pytest.raises(ConvergenceError):
        campaign._general_apply(negative, np.sqrt)
    rotation = stack.copy()
    rotation[2] = [[1.0, -2.0], [2.0, 1.0]]  # eigenvalues 1 +- 2i
    with pytest.raises(ConvergenceError):
        campaign._general_apply(rotation, np.sqrt)


@pytest.mark.parametrize("tid", ["op_gg_hh", "phi_operator"])
def test_one_bad_node_makes_the_nc_trial_unreliable(tid, monkeypatch):
    real_products = campaign._weighted_products

    def one_bad_node(da, db, a, b, ts):
        out = real_products(da, db, a, b, ts)
        out[min(3, ts.shape[0] - 1)] *= -1.0  # a negative spectrum at one node
        return out

    monkeypatch.setattr(campaign, "_weighted_products", one_bad_node)
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
    return _order_report_from_matrices("am_gm_loewner", names, (gm, am), p.rtol)


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


_NUS = (0.3, 0.5, 0.7)
_BATCH_CASES = (
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
)


@pytest.mark.parametrize("tid, reference, variants", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_batched_rows_match_the_per_trial_code(tid, reference, variants):
    batched = {t for t, th in campaign.THEOREMS.items() if th.batch is not None}
    assert batched == {c[0] for c in _BATCH_CASES}
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


def test_a_raising_block_is_rerun_one_trial_at_a_time(monkeypatch):
    params = resolve_params("det_ag", CampaignConfig())
    seeds = [derive_trial_seed(3, 3, t) for t in range(20)]
    want = [outcome_to_dict(run_trial("det_ag", s, 3, params)) for s in seeds]
    planted = campaign.random_spd(RandomStream(seeds[7]), 3, campaign.SPD_LO, campaign.SPD_HI)
    real_kernel = campaign._det_ag_stack

    def kernel(error):
        def run(a, b, alpha, rtol, atol):
            if any(np.array_equal(m, planted) for m in a):
                raise error("planted in trial 7")
            return real_kernel(a, b, alpha, rtol, atol)

        return run

    monkeypatch.setattr(campaign, "_det_ag_stack", kernel(DomainViolationError))
    got = list(campaign._outcomes("det_ag", seeds, 3, params))
    assert [o.quad_reliable for o in got] == [t != 7 for t in range(20)]
    assert [outcome_to_dict(o) for k, o in enumerate(got) if k != 7] == want[:7] + want[8:]
    cfg = CampaignConfig(theorem_ids=("det_ag",), trials=20, dims=(3,), master_seed=3)
    st = run_campaign(cfg).stats[0]
    assert (st.pass_count, st.unreliable_count) == (19, 1)
    # an error the trial alone does not catch still ends the campaign
    monkeypatch.setattr(campaign, "_det_ag_stack", kernel(NotPositiveDefiniteError))
    with pytest.raises(NotPositiveDefiniteError):
        list(campaign._outcomes("det_ag", seeds, 3, params))
