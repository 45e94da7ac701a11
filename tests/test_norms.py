"""Unitarily invariant norms, singular values, trace facts."""

import math

import numpy as np
import pytest

from hhverify import (
    ConfigError,
    NormSpec,
    RandomStream,
    norm,
    parse_norm,
    random_orthogonal,
    random_spd,
    singular_values,
    trace,
)
from hhverify.errors import DimMismatchError, SchattenOrderError
from hhverify.norms import (
    norm_from_eigs,
    norms_from_eig_rows,
    norms_of_stack,
    trace_property_check,
)


def test_singular_values_fixture():
    # [[3, 4], [0, 0]] has singular values (5, 0); oracle via m^T m spectrum
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    s = singular_values(m)
    np.testing.assert_allclose(s, [5.0, 0.0], atol=1e-14)
    gram = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    np.testing.assert_allclose(s**2, gram, atol=1e-12)


def test_schatten_two_is_frobenius():
    m = np.diag([3.0, 4.0])
    assert abs(norm(m, NormSpec.schatten(2.0)) - 5.0) < 1e-14
    # the bits of np.linalg.norm, in a stack as alone
    stack = np.random.default_rng(0).normal(size=(2000, 3, 4))
    want = [float(np.linalg.norm(m)) for m in stack]
    assert norms_of_stack(stack, NormSpec.schatten(2.0)).tolist() == want
    assert [norm(m, NormSpec.schatten(2.0)) for m in stack] == want


def test_norm_family_equivalences():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.normal(size=(5, 5))
        s = singular_values(m)
        assert abs(norm(m, NormSpec.schatten(1.0)) - norm(m, NormSpec.tracenorm())) < 1e-12
        assert abs(norm(m, NormSpec.schatten(math.inf)) - norm(m, NormSpec.opnorm())) < 1e-12
        assert abs(norm(m, NormSpec.opnorm()) - norm(m, NormSpec.kyfan(1))) < 1e-12
        assert abs(norm(m, NormSpec.kyfan(5)) - norm(m, NormSpec.tracenorm())) < 1e-12
        assert abs(norm(m, NormSpec.opnorm()) - s[0]) < 1e-12


def test_schatten_monotone_in_p():
    m = np.random.default_rng(2).normal(size=(4, 4))
    ps = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]
    vals = [norm(m, NormSpec.schatten(p)) for p in ps]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_unitary_invariance():
    rng = np.random.default_rng(3)
    specs = [NormSpec.opnorm(), NormSpec.tracenorm(), NormSpec.schatten(3.0), NormSpec.kyfan(2)]
    for seed in range(50):
        m = rng.normal(size=(4, 4))
        u = random_orthogonal(RandomStream(seed), 4)
        v = random_orthogonal(RandomStream(seed + 1000), 4)
        for spec in specs:
            base = norm(m, spec)
            rotated = norm(u @ m @ v.T, spec)
            assert abs(rotated - base) <= 1e-10 * max(1.0, base)


def test_norm_axioms_triangle_and_scaling():
    rng = np.random.default_rng(4)
    for spec in (NormSpec.opnorm(), NormSpec.schatten(1.5), NormSpec.kyfan(3)):
        for _ in range(25):
            x = rng.normal(size=(4, 4))
            y = rng.normal(size=(4, 4))
            assert norm(x + y, spec) <= norm(x, spec) + norm(y, spec) + 1e-10
            assert abs(norm(-2.5 * x, spec) - 2.5 * norm(x, spec)) <= 1e-10


def test_spec_constructors_validate():
    with pytest.raises(SchattenOrderError):
        NormSpec.schatten(0.5)
    for bad in (0, True, False, 2.0, "2"):
        with pytest.raises(SchattenOrderError):
            NormSpec.kyfan(bad)


def test_kyfan_takes_any_integral_order_and_round_trips():
    spec = NormSpec.kyfan(np.int64(2))
    assert spec == NormSpec.kyfan(2)
    assert type(spec.params[0]) is int
    assert spec.describe() == "kyfan:2"
    assert parse_norm(spec.describe()) == spec


def test_spec_predicates():
    cases = {
        "opnorm": (False, True), "tracenorm": (False, False), "kyfan:1": (False, True),
        "kyfan:3": (False, True), "schatten:1.5": (False, False), "schatten:2": (True, False),
        "schatten:3": (False, False),
    }
    for text, (frobenius, max_type) in cases.items():
        spec = parse_norm(text)
        assert (spec.is_frobenius, spec.is_max_type) == (frobenius, max_type), text


def test_parse_norm():
    assert parse_norm("opnorm").describe() == "opnorm"
    assert parse_norm("tracenorm").describe() == "tracenorm"
    assert parse_norm("schatten:3").describe() == "schatten:3"
    assert parse_norm("schatten:3.14159265").describe() == "schatten:3.14159265"
    assert parse_norm("schatten:inf").describe() == "opnorm"
    assert parse_norm("kyfan:2").describe() == "kyfan:2"
    for bad in ("", "schatten:0.2", "kyfan:x", "nuclear"):
        with pytest.raises(ConfigError):
            parse_norm(bad)


def test_norms_of_stack_matches_loop():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(7, 3, 4))
    for spec in (NormSpec.schatten(2.0), NormSpec.opnorm(), NormSpec.kyfan(2)):
        batched = norms_of_stack(stack, spec)
        looped = np.array([norm(stack[i], spec) for i in range(7)])
        assert batched.tolist() == looped.tolist()


_BIT_SPECS = ("opnorm", "tracenorm", "kyfan:2", "schatten:1.5", "schatten:2", "schatten:3")


@pytest.mark.parametrize("trials", [1, 7, 4096])
@pytest.mark.parametrize("text", _BIT_SPECS)
def test_a_stacked_norm_has_the_bits_it_has_alone(text, trials):
    spec = parse_norm(text)
    rng = np.random.default_rng(trials)
    stack = rng.normal(size=(trials, 3, 4)) * np.exp(rng.normal(size=(trials, 1, 1)))
    batched = norms_of_stack(stack, spec).tolist()
    assert batched == [norm(m, spec) for m in stack]
    for n in (2, 5, 13):
        rows = rng.normal(size=(trials, n)) * np.exp(rng.normal(size=(trials, 1)))
        batched = norms_from_eig_rows(rows, spec).tolist()
        assert batched == [norms_from_eig_rows(rows[i : i + 1], spec)[0] for i in range(trials)]


def test_norms_of_stack_takes_any_leading_axes():
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(2, 3, 4, 5))
    for text in _BIT_SPECS:
        spec = parse_norm(text)
        got = norms_of_stack(stack, spec)
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == [norm(m, spec) for m in stack.reshape(-1, 4, 5)]
        assert norms_of_stack(stack[0, 0], spec).shape == ()


def test_norms_of_stack_refuses_fewer_than_two_axes():
    for bad in (np.ones(4), np.float64(1.0)):
        with pytest.raises(DimMismatchError):
            norms_of_stack(np.asarray(bad), NormSpec.opnorm())


def test_a_complex_stack_takes_schatten_two_from_its_singular_values():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    got = norms_of_stack(stack, NormSpec.schatten(2.0))
    np.testing.assert_allclose(got, [np.linalg.norm(m) for m in stack], rtol=1e-14)


def _opnorm_cases():
    """Real stacks for the operator-norm rule: square, wide and tall, rank
    one and with a repeated row, zero, and scaled to 1e200 and 1e-200, where
    an unscaled Gram overflows or underflows."""
    rng = np.random.default_rng(13)
    for m, k in [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (3, 7), (1, 6), (7, 3), (6, 1)]:
        stack = rng.normal(size=(300, m, k)) * np.exp(rng.normal(size=(300, 1, 1)))
        yield stack
        yield rng.normal(size=(50, m, 1)) @ rng.normal(size=(50, 1, k))
        yield np.concatenate((stack[:50, :1], stack[:50, :1], stack[:50, 2:]), axis=1)
        yield np.zeros((3, m, k))
        for scale in (1e200, 1e-200):
            yield stack[:50] * scale


def test_the_operator_norm_rule_matches_svd():
    for stack in _opnorm_cases():
        got = norms_of_stack(stack, NormSpec.opnorm())
        want = np.linalg.svd(stack, compute_uv=False)[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert (got[want == 0.0] == 0.0).all()
        # each matrix has the bits it has alone
        assert got.tolist() == [norm(m, NormSpec.opnorm()) for m in stack]


def test_a_complex_stack_takes_the_operator_norm_from_svd():
    rng = np.random.default_rng(14)
    for m, k in [(3, 3), (2, 5), (5, 2)]:
        stack = rng.normal(size=(40, m, k)) + 1j * rng.normal(size=(40, m, k))
        got = norms_of_stack(stack, NormSpec.opnorm())
        assert got.tolist() == np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()


def test_a_matrix_that_is_not_finite_has_norm_nan():
    rng = np.random.default_rng(15)
    stack = rng.normal(size=(6, 3, 4))
    stack[1, 0, 2], stack[4, 2, 2] = np.inf, np.nan
    good = [0, 2, 3, 5]
    for stack in (stack, stack * (1.0 + 1j)):
        for text in _BIT_SPECS:
            spec = parse_norm(text)
            if spec.is_frobenius and not np.iscomplexobj(stack):
                continue
            got = norms_of_stack(stack, spec)
            assert np.isnan(got[[1, 4]]).all(), text
            assert got[good].tolist() == norms_of_stack(stack[good], spec).tolist(), text
        assert np.isnan(norms_of_stack(stack[[1, 4]], NormSpec.opnorm())).all()


def test_norms_from_eig_rows_matches_materialized():
    # rows of eigenvalues of symmetric matrices: norm comes from |eigs|
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(5, 4))
    for spec in (NormSpec.schatten(2.0), NormSpec.schatten(3.0), NormSpec.opnorm(), NormSpec.kyfan(2)):
        batched = norms_from_eig_rows(rows, spec)
        looped = np.array([norm(np.diag(r), spec) for r in rows])
        np.testing.assert_allclose(batched, looped, atol=1e-12)
        one = norm_from_eigs(rows[0], spec)
        assert abs(one - looped[0]) < 1e-12


def test_trace_and_trace_bound():
    rng = np.random.default_rng(7)
    for seed in range(100):
        a = rng.normal(size=(4, 4))
        assert abs(trace(a) - float(np.trace(a))) < 1e-14
        # |tr A| <= tracenorm(A), equality for PSD
        assert abs(trace(a)) <= norm(a, NormSpec.tracenorm()) + 1e-10
    p = random_spd(RandomStream(1), 4)
    assert abs(trace(p) - norm(p, NormSpec.tracenorm())) <= 1e-10


def test_trace_property_check_holds_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        t = rng.normal(size=(4, 4))
        cyc, excess = trace_property_check(a, t)
        assert cyc <= 1e-10 * max(1.0, abs(np.trace(a @ t)))
        assert excess == 0.0  # |tr(AT)| <= ||A||_1 ||T||_op always


def test_trace_powers_of_psd():
    # (tr P)^(1/2) <= tr P^(1/2) and tr(P^2) <= (tr P)^2 for PSD P
    for seed in range(100):
        p = random_spd(RandomStream(seed), 5)
        w = np.linalg.eigvalsh(p)
        assert math.sqrt(w.sum()) <= np.sqrt(w).sum() + 1e-12
        assert (w**2).sum() <= w.sum() ** 2 + 1e-12


def test_trace_product_gg_convexity_on_grid():
    # u -> tr(A^u B^(1-u)) is log-convex for commuting positive pairs
    from hhverify import CommutingPair, random_commuting_pair

    for seed in range(100):
        q, av, bv = random_commuting_pair(RandomStream(seed), 4)
        us = np.linspace(0.0, 1.0, 11)
        vals = np.array([float(np.sum(av**u * bv ** (1.0 - u))) for u in us])
        logs = np.log(vals)
        # midpoint convexity across the grid
        assert (logs[:-2] + logs[2:] - 2.0 * logs[1:-1] >= -1e-10).all()
