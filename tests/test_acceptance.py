"""Acceptance gate: eight system-level properties, one test per criterion.

Each test prints a single CRITERION line on success; `pytest -v` therefore
shows one pass/fail line per criterion. Tolerances are pinned here and are
not derived from the library defaults.
"""

import json
import math

import numpy as np
import pytest

from hhverify import (
    CampaignConfig,
    CommutingPair,
    FunctionSpec,
    NormSpec,
    PhiDiagonal,
    PhiOperator,
    PhiSandwich,
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
    run_campaign,
    run_trial,
    scalar_hh_chain,
    scalar_mean_chain_report,
    trace_chain,
    uin_chain,
)
from hhverify.campaign import DROP_POSITIVITY, resolve_params, select_theorems
from hhverify.chains import TraceVariant
from hhverify.cli import main
from hhverify.linalg import eigh
from hhverify.norms import norm
from hhverify.sampler import (
    RandomStream,
    derive_trial_seed,
    random_commuting_pair,
    random_general,
    random_orthogonal,
    random_spd,
)

EXP = FunctionSpec.exp(1.0)
S2 = NormSpec.schatten(2.0)


def _rel_spread(values) -> float:
    vals = [float(v) for v in values]
    scale = max(1.0, max(abs(v) for v in vals))
    return (max(vals) - min(vals)) / scale


def _gaps_to_terms(first: float, report) -> list[float]:
    """1x1 Loewner chains: min_gap is the exact scalar difference."""
    vals = [first]
    for c in report.comparisons:
        vals.append(vals[-1] + c.min_gap)
    return vals


# ---------------------------------------------------------------------------
# criterion 1: zero violations across the full grid


@pytest.mark.slow
def test_criterion_1_chain_monotonicity_full_grid():
    cfg = CampaignConfig()  # all 22 ids, 1000 trials, dims 2/3/5/8, seed 0
    report = run_campaign(cfg)
    assert report.wall_time_ms < 300_000.0, f"took {report.wall_time_ms:.0f} ms"
    assert report.exit_code == 0
    for st in report.stats:
        assert st.trials_run == 4000, st.theorem_id
        assert st.fail_count == 0, (st.theorem_id, st.min_margin, st.worst_trial_seed)
        assert not st.genuine_violation
    print(
        "CRITERION 1: PASS - 22 ids x 1000 trials x dims {2,3,5,8}, zero "
        f"violations, wall {report.wall_time_ms / 1000.0:.1f} s"
    )


# ---------------------------------------------------------------------------
# criterion 2: equality collapse at A = B


def test_criterion_2_equality_collapse():
    tol = 1e-9
    stream = RandomStream(20_202)
    spd = random_spd(stream, 3, 0.5, 2.0)
    x = np.asarray(stream.gaussian(9)).reshape(3, 3)
    eye = np.eye(3)
    spectrum = np.asarray([0.7, 1.8, 4.1])
    q = random_orthogonal(stream, 3)
    equal_pair = CommutingPair(q, spectrum, spectrum)
    one_dim = CommutingPair(np.eye(1), np.asarray([2.3]), np.asarray([2.3]))

    spreads = {}

    # scalar chains cannot take a == b; the tightest legal interval stands in
    a = 1.7
    spreads["scalar_ag"] = _rel_spread(scalar_hh_chain("ag", EXP, a, a + 1e-10).term_values)
    spreads["scalar_gg"] = _rel_spread(
        scalar_hh_chain("gg", EXP, a, a * (1.0 + 1e-10)).term_values
    )
    spreads["scalar_means"] = _rel_spread(scalar_mean_chain_report(a, a).term_values)

    drag = dragomir_operator_chain(FunctionSpec.power(2.0), spd, spd)
    drag_scale = max(1.0, float(np.linalg.norm(spd @ spd, 2)))
    spreads["dragomir"] = max(abs(c.min_gap) for c in drag.comparisons) / drag_scale

    for tid, rep in (
        ("op_gg_hh", operator_gg_hh_order_chain(EXP, equal_pair)),
        ("op_ag_midpoint", operator_ag_midpoint_order_chain(EXP, equal_pair)),
        ("am_gm_loewner", am_gm_loewner_check(spd, spd, 0.3)),
    ):
        scale = max(1.0, float(np.max(spectrum)) if tid.startswith("op") else float(np.linalg.norm(spd, 2)))
        spreads[tid] = max(abs(c.min_gap) for c in rep.comparisons) / scale

    spreads["op_norm_gg"] = _rel_spread(
        operator_norm_gg_chain(EXP, equal_pair, NormSpec.opnorm()).term_values
    )
    spreads["exp_norm"] = _rel_spread(
        operator_norm_gg_chain(
            EXP, equal_pair, NormSpec.opnorm(), theorem_id="exp_norm"
        ).term_values
    )
    # the sqrt-trace head term only joins the rest of the chain at dim 1
    spreads["trace_sqrt"] = _rel_spread(trace_chain(TraceVariant.SQRT, one_dim).term_values)
    spreads["trace_squared"] = _rel_spread(
        trace_chain(TraceVariant.SQUARED, one_dim).term_values
    )

    det = det_ag_concavity_check(spd, spd, 0.3)
    spreads["det_ag"] = abs(det.margin) / max(1.0, det.rhs)
    npw = norm_power_check(2.0 * eye)
    spreads["norm_power"] = abs(npw.margin) / max(1.0, npw.rhs)
    kit = kittaneh_check(eye, eye, x, 0.3, S2)
    spreads["kittaneh"] = abs(kit.margin) / max(1.0, kit.rhs)

    spreads["phi_operator"] = abs(
        ag_convexity_witness(PhiOperator(EXP, equal_pair), NormSpec.opnorm()).slack
    )
    spreads["phi_sandwich"] = abs(ag_convexity_witness(PhiSandwich(eye, eye, x), S2).slack)
    spreads["phi_diagonal"] = abs(ag_convexity_witness(PhiDiagonal(eye, eye, x), S2).slack)

    for variant, nu in (
        (UinVariant.SYMMETRIC, 0.3),
        (UinVariant.END_LEFT, 0.3),
        (UinVariant.END_RIGHT, 0.7),
        (UinVariant.FULL, 0.3),
        (UinVariant.DIAGONAL, 0.3),
    ):
        rep = uin_chain(variant, eye, eye, x, S2, nu=nu)
        spreads[rep.theorem_id] = _rel_spread(rep.term_values)

    assert len(spreads) == 22
    for tid, spread in spreads.items():
        assert spread <= tol, (tid, spread)
    print(f"CRITERION 2: PASS - equal-input collapse <= 1e-9 relative on all {len(spreads)} ids")


# ---------------------------------------------------------------------------
# criterion 3: analytic fixtures


def test_criterion_3_analytic_fixtures():
    rep = scalar_hh_chain("ag", EXP, 0.0, 2.0)
    for v in rep.term_values:
        assert abs(v - math.e) < 1e-10

    drag = dragomir_operator_chain(
        FunctionSpec.power(2.0), np.array([[0.0]]), np.array([[1.0]])
    )
    got = _gaps_to_terms(0.25, drag)
    # hand integrals: 2 int_{1/4}^{3/4} (1-t)^2 dt = 13/48, int_0^1 (1-t)^2 dt = 1/3
    want = (0.25, 13.0 / 48.0, 0.3125, 1.0 / 3.0, 0.375, 0.5)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12, (g, w)

    stream = RandomStream(303)
    x = np.asarray(stream.gaussian(9)).reshape(3, 3)
    uin = uin_chain(UinVariant.FULL, 4.0 * np.eye(3), 9.0 * np.eye(3), x, S2)
    want_norm = 6.0 * norm(x, S2)
    for v in uin.term_values:
        assert abs(v - want_norm) < 1e-10 * want_norm
    print(
        "CRITERION 3: PASS - scalar_ag=e (1e-10), dragomir 1x1 hand integrals "
        "(1e-12), uin_full constant 6|||X||| (1e-10)"
    )


# ---------------------------------------------------------------------------
# criterion 4: refinement of the nu = 1/2 product bound


def test_criterion_4_refinement_of_endpoint_bounds():
    stream = RandomStream(404)
    for spec in (S2, NormSpec.opnorm(), NormSpec.tracenorm()):
        for _ in range(25):
            a = random_spd(stream, 3, 0.1, 10.0)
            b = random_spd(stream, 3, 0.1, 10.0)
            x = np.asarray(stream.gaussian(9)).reshape(3, 3)

            full = uin_chain(UinVariant.FULL, a, b, x, spec)
            kit = kittaneh_check(a, b, x, 0.5, spec)
            t5 = full.term_values[-1]
            assert abs(t5 - kit.rhs) <= 1e-12 * max(1.0, kit.rhs)
            for v in full.term_values:
                assert v <= t5 * (1.0 + 1e-9)

            diag = uin_chain(UinVariant.DIAGONAL, a, b, x, spec)
            want = math.sqrt(norm(x, spec) * norm(a @ x @ b, spec))
            assert abs(diag.term_values[-1] - want) <= 1e-12 * max(1.0, want)
    print("CRITERION 4: PASS - uin_full T5 = kittaneh nu=1/2 bound and uin_diagonal T5 (1e-12)")


# ---------------------------------------------------------------------------
# criterion 5: integral terms against a dense Riemann oracle


_RIEMANN_N = 100_000


def _riemann_mean(fn, lo: float, hi: float) -> np.ndarray:
    ts = lo + (hi - lo) * (np.arange(_RIEMANN_N) + 0.5) / _RIEMANN_N
    return np.mean(fn(ts), axis=0)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_criterion_5_riemann_oracle_equivalence():
    stream = RandomStream(505)
    checked = set()

    for trial in range(20):
        a = float(np.exp(stream.uniform(1)[0] * 2.0 - 1.0))
        b = a * (1.3 + 2.0 * float(stream.uniform(1)[0]))

        rep = scalar_hh_chain("ag", EXP, a, b)
        want = math.exp(_riemann_mean(lambda t: np.log(EXP.eval_array(t)), a, b))
        assert _close(rep.term_values[2], want), ("scalar_ag", trial)
        checked.add("scalar_ag")

        rep = scalar_hh_chain("gg", EXP, a, b)
        mean = _riemann_mean(lambda t: np.log(EXP.eval_array(t)) / t, a, b)
        want = math.exp(mean * (b - a) / (math.log(b) - math.log(a)))
        assert _close(rep.term_values[2], want), ("scalar_gg", trial)
        checked.add("scalar_gg")

        # 1x1 operator chains expose their integral terms through exact gaps
        f = FunctionSpec.power(2.0) if trial % 2 == 0 else FunctionSpec.inverse()
        drag = dragomir_operator_chain(f, np.array([[a]]), np.array([[b]]))
        seg = lambda t: f.eval_array(t * a + (1.0 - t) * b)
        terms = _gaps_to_terms(f(0.5 * (a + b)), drag)
        assert _close(terms[1], 2.0 * 0.5 * _riemann_mean(seg, 0.25, 0.75)), ("dragomir", trial)
        assert _close(terms[3], _riemann_mean(seg, 0.0, 1.0)), ("dragomir", trial)
        checked.add("dragomir")

        one = CommutingPair(np.eye(1), np.asarray([a]), np.asarray([b]))
        gg = operator_gg_hh_order_chain(EXP, one)
        v1 = math.log(EXP(math.sqrt(a * b)))
        want = _riemann_mean(
            lambda t: np.log(EXP.eval_array(np.power(a, t) * np.power(b, 1.0 - t))), 0.0, 1.0
        )
        assert _close(v1 + gg.comparisons[0].min_gap, want), ("op_gg_hh", trial)
        checked.add("op_gg_hh")

        ag = operator_ag_midpoint_order_chain(EXP, one)
        want = _riemann_mean(
            lambda t: np.sqrt(
                EXP.eval_array(t * a + (1.0 - t) * b) * EXP.eval_array((1.0 - t) * a + t * b)
            ),
            0.0,
            1.0,
        )
        assert _close(EXP(0.5 * (a + b)) + ag.comparisons[0].min_gap, want), ("op_ag_midpoint", trial)
        checked.add("op_ag_midpoint")

    for trial in range(20):
        dim = (2, 3, 5, 4)[trial % 4]
        pair = CommutingPair(*random_commuting_pair(stream, dim, 0.1, 10.0))
        av, bv = pair.a, pair.b

        def curve(ts):
            return np.power(av[None, :], ts[:, None]) * np.power(bv[None, :], (1.0 - ts)[:, None])

        for tid, rep in (
            ("op_norm_gg", operator_norm_gg_chain(EXP, pair, NormSpec.opnorm())),
            (
                "exp_norm",
                operator_norm_gg_chain(EXP, pair, NormSpec.opnorm(), theorem_id="exp_norm"),
            ),
        ):
            want = math.exp(
                _riemann_mean(lambda ts: np.log(np.max(EXP.eval_array(curve(ts)), axis=1)), 0.0, 1.0)
            )
            assert _close(rep.term_values[2], want), (tid, trial)
            checked.add(tid)

        sq = trace_chain(TraceVariant.SQRT, pair)
        want = math.exp(_riemann_mean(lambda ts: np.log(np.sum(curve(ts), axis=1)), 0.0, 1.0))
        assert _close(sq.term_values[3], want), ("trace_sqrt", trial)
        checked.add("trace_sqrt")

        def curve2(ts):
            return np.power(av[None, :], 2.0 * ts[:, None]) * np.power(
                bv[None, :], 2.0 * (1.0 - ts)[:, None]
            )

        tq = trace_chain(TraceVariant.SQUARED, pair)
        want = math.exp(_riemann_mean(lambda ts: np.log(np.sum(curve2(ts), axis=1)), 0.0, 1.0))
        assert _close(tq.term_values[2], want), ("trace_squared", trial)
        checked.add("trace_squared")

    spans = {
        UinVariant.SYMMETRIC: (0.3, 0.7),
        UinVariant.END_LEFT: (0.0, 0.3),
        UinVariant.END_RIGHT: (0.7, 1.0),
        UinVariant.FULL: (0.0, 1.0),
        UinVariant.DIAGONAL: (0.0, 1.0),
    }
    for variant, (lo, hi) in spans.items():
        nu = 0.7 if variant is UinVariant.END_RIGHT else 0.3
        for trial in range(20):
            a = random_spd(stream, 3, 0.1, 10.0)
            b = random_spd(stream, 3, 0.1, 10.0)
            x = np.asarray(stream.gaussian(9)).reshape(3, 3)
            rep = uin_chain(variant, a, b, x, S2, nu=nu)
            wa, qa = np.linalg.eigh(a)
            wb, qb = np.linalg.eigh(b)
            core = qa.T @ x @ qb

            def log_phi(ts):
                second = ts if variant is UinVariant.DIAGONAL else 1.0 - ts
                out = np.empty(ts.size)
                for i in range(0, ts.size, 4000):
                    sa, sb = ts[i : i + 4000], second[i : i + 4000]
                    stack = (
                        np.power(wa[None, :, None], sa[:, None, None])
                        * core[None, :, :]
                        * np.power(wb[None, None, :], sb[:, None, None])
                    )
                    out[i : i + 4000] = np.log(np.linalg.norm(stack, axis=(1, 2)))
                return out

            want = math.exp(_riemann_mean(log_phi, lo, hi))
            assert _close(rep.term_values[2], want), (variant, trial)
            checked.add(rep.theorem_id)

    assert len(checked) == 14  # every id with an integral term
    print("CRITERION 5: PASS - T3-type integrals match 1e5-point Riemann oracle (1e-6 rel, 20 trials/id)")


# ---------------------------------------------------------------------------
# criterion 6: numerical kernels


def test_criterion_6_numerical_kernels():
    stream = RandomStream(606)
    # eigendecomposition reconstruction on 10^4 random symmetric matrices
    for i in range(10_000):
        dim = (2, 3, 5, 8)[i % 4]
        scale = 10.0 ** float(stream.uniform(1)[0] * 4.0 - 2.0)
        g = random_general(stream, dim, dim, scale)
        m = 0.5 * (g + g.T)
        d = eigh(m)
        resid = float(np.linalg.norm(d.reconstruct() - m))
        assert resid <= 1e-10 * max(1.0, float(np.linalg.norm(m)))

    # every chain integrand passes the Gauss-Kronrod check
    cfg = CampaignConfig()
    integral_ids = (
        "scalar_ag",
        "scalar_gg",
        "dragomir",
        "op_gg_hh",
        "op_ag_midpoint",
        "op_norm_gg",
        "exp_norm",
        "trace_sqrt",
        "trace_squared",
        "uin_symmetric",
        "uin_end_left",
        "uin_end_right",
        "uin_full",
        "uin_diagonal",
    )
    for tid in integral_ids:
        params = resolve_params(tid, cfg)
        for dim in (2, 5):
            for trial in range(10):
                outcome = run_trial(tid, derive_trial_seed(606, dim, trial), dim, params)
                assert outcome.quad_reliable, (tid, dim, trial)

    # unitary invariance of the whole norm family
    specs = (
        NormSpec.tracenorm(),
        S2,
        NormSpec.schatten(3.0),
        NormSpec.opnorm(),
        NormSpec.kyfan(1),
        NormSpec.kyfan(2),
        NormSpec.kyfan(3),
    )
    for _ in range(200):
        m = random_general(stream, 4, 4, 1.0)
        u = random_orthogonal(stream, 4)
        v = random_orthogonal(stream, 4)
        for spec in specs:
            base = norm(m, spec)
            assert abs(norm(u @ m @ v.T, spec) - base) <= 1e-10 * max(1.0, base)
            assert abs(norm(u @ m @ u.T, spec) - base) <= 1e-10 * max(1.0, base)
    print(
        "CRITERION 6: PASS - eigh residual <= 1e-10 on 10^4 matrices, Gauss-Kronrod "
        "<= 1e-9 on all chain integrands, unitary invariance <= 1e-10"
    )


# ---------------------------------------------------------------------------
# criterion 7: positivity is load-bearing


def test_criterion_7_positivity_ablation_shows_violations():
    cfg = CampaignConfig(
        theorem_ids=select_theorems("all", frozenset({DROP_POSITIVITY})),
        trials=1000,
        dims=(3,),
        master_seed=707,
        ablation=frozenset({DROP_POSITIVITY}),
    )
    report = run_campaign(cfg)
    assert tuple(st.theorem_id for st in report.stats) == ("det_ag", "kittaneh")
    for st in report.stats:
        assert st.fail_count >= 1, st.theorem_id
        assert st.expected_violation and not st.genuine_violation, st.theorem_id
    assert report.exit_code == 0
    print(
        "CRITERION 7: PASS - DROP_POSITIVITY breaks det_ag "
        f"({report.stats[0].fail_count}/1000) and kittaneh "
        f"({report.stats[1].fail_count}/1000) as EXPECTED_VIOLATION, exit 0"
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reports


@pytest.mark.slow
def test_criterion_8_deterministic_report_files(tmp_path, capsys):
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    argv = ["verify", "--theorem", "all", "--seed", "12345"]
    code1 = main(argv + ["--out", str(p1)])
    code2 = main(argv + ["--out", str(p2)])
    capsys.readouterr()
    assert code1 == code2 == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert len(doc["theorems"]) == 22
    print(f"CRITERION 8: PASS - two full runs, byte-identical reports ({len(b1)} bytes)")
