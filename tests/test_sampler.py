"""Stream determinism and distributional sanity of the trial samplers."""

import numpy as np
import pytest

from hhverify import (
    BadRangeError,
    RandomStream,
    derive_trial_seed,
    random_commuting_pair,
    random_general,
    random_orthogonal,
    random_spd,
    splitmix64,
)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _reference_splitmix64(x):
    # independent pure-int transcription of the published finalizer
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


# first three outputs of the seed-42 stream, frozen from the reference above
_GOLDEN_42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)


def test_splitmix64_golden_values():
    assert splitmix64(42) == _GOLDEN_42[0]
    stream = RandomStream(42)
    assert tuple(int(v) for v in stream.u64(3)) == _GOLDEN_42


def test_splitmix64_matches_reference_on_many_inputs():
    rng = np.random.default_rng(0)
    for x in [0, 1, 2**63, _MASK, *(int(v) for v in rng.integers(0, _MASK, 200, dtype=np.uint64))]:
        assert splitmix64(x) == _reference_splitmix64(x)


def test_vectorized_stream_matches_scalar_recurrence():
    seed = 0xDEADBEEFCAFE
    stream = RandomStream(seed)
    got = [int(v) for v in stream.u64(257)]
    state = seed
    want = []
    for _ in range(257):
        want.append(_reference_splitmix64(state))
        state = (state + _GAMMA) & _MASK
    assert got == want


def test_stream_blocks_are_position_independent():
    a = RandomStream(7)
    b = RandomStream(7)
    whole = a.u64(64)
    parts = np.concatenate([b.u64(13), b.u64(1), b.u64(50)])
    np.testing.assert_array_equal(whole, parts)
    assert a.state == b.state


def test_derive_trial_seed_folds_dim_and_trial():
    assert derive_trial_seed(5, 3, 17) == splitmix64(5 ^ ((3 << 32) + 17))
    seen = {derive_trial_seed(12345, d, t) for d in (2, 3, 5, 8) for t in range(100)}
    assert len(seen) == 400


def test_uniform_range_and_mean():
    u = RandomStream(1).uniform(200_000)
    assert u.min() > 0.0 and u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_gaussian_moments():
    g = RandomStream(2).gaussian(200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_gaussian_odd_block_consumes_full_pair():
    a = RandomStream(9)
    b = RandomStream(9)
    a.gaussian(3)
    b.gaussian(4)
    assert a.state == b.state  # 3 normals still burn two uniform pairs


def test_random_orthogonal_is_orthogonal():
    for n in (1, 2, 5, 8):
        q = random_orthogonal(RandomStream(n), n)
        resid = np.abs(q @ q.T - np.eye(n)).max()
        assert resid <= 1e-12 * n
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10


def test_random_spd_spectrum_within_range():
    for seed in range(20):
        m = random_spd(RandomStream(seed), 5, 0.1, 10.0)
        np.testing.assert_allclose(m, m.T, atol=1e-13)
        w = np.linalg.eigvalsh(m)
        assert w.min() >= 0.1 - 1e-9
        assert w.max() <= 10.0 + 1e-8


def test_random_spd_draw_order_is_documented():
    # n*n gaussians then n uniforms; replaying by hand must give the same matrix
    stream = RandomStream(31)
    m = random_spd(stream, 3)
    replay = RandomStream(31)
    q = random_orthogonal(replay, 3)
    u = replay.uniform(3)
    lam = np.exp(np.log(0.1) + u * (np.log(10.0) - np.log(0.1)))
    np.testing.assert_array_equal(m, (q * lam) @ q.T)


def test_random_commuting_pair_commutes():
    q, a, b = random_commuting_pair(RandomStream(77), 6)
    ma = (q * a) @ q.T
    mb = (q * b) @ q.T
    comm = np.linalg.norm(ma @ mb - mb @ ma)
    assert comm <= 1e-10 * np.linalg.norm(ma) * np.linalg.norm(mb)
    assert a.min() > 0 and b.min() > 0


def test_random_general_shape_and_scale():
    m = random_general(RandomStream(4), 300, 200, scale=2.5)
    assert m.shape == (300, 200)
    assert abs(m.std() - 2.5) < 0.05


def test_log_uniform_rejects_bad_ranges():
    from hhverify.sampler import _log_uniform

    with pytest.raises(BadRangeError):
        _log_uniform(RandomStream(0), 3, 0.0, 1.0)
    with pytest.raises(BadRangeError):
        _log_uniform(RandomStream(0), 3, 2.0, 1.0)
    with pytest.raises(BadRangeError):
        _log_uniform(RandomStream(0), 3, 1.0, float("inf"))


def test_commuting_fixture_frozen():
    # regression pin: first few draws of the seed-42 dim-2 commuting pair
    q, a, b = random_commuting_pair(RandomStream(42), 2)
    assert q.shape == (2, 2)
    np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-14)
    again = random_commuting_pair(RandomStream(42), 2)
    np.testing.assert_array_equal(q, again[0])
    np.testing.assert_array_equal(a, again[1])
    np.testing.assert_array_equal(b, again[2])


# ---------------------------------------------------------------------------
# a stream over a block of seeds: row t is the stream of seed t alone

_BLOCK = [derive_trial_seed(2015, 3, t) for t in range(200)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("k", [0, 1, 6, 7])
def test_block_stream_draws_the_bits_of_each_seed(k):
    draws = ("u64", "uniform", "gaussian")
    block = RandomStream(np.array(_BLOCK, dtype=np.uint64))
    got = {name: getattr(block, name)(k) for name in draws}
    for t, seed in enumerate(_BLOCK):
        alone = RandomStream(seed)
        for name in draws:
            want = getattr(alone, name)(k)
            assert got[name].shape == (len(_BLOCK), k)
            if name == "u64":
                np.testing.assert_array_equal(got[name][t], want)
            else:
                np.testing.assert_array_equal(_bits(got[name][t]), _bits(want))
        assert int(block.state[t]) == alone.state


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_block_samplers_draw_the_matrices_of_each_seed(n):
    from hhverify.sampler import _log_uniform

    def draw(stream):
        return (
            random_spd(stream, n),
            random_general(stream, n, n),
            *random_commuting_pair(stream, n),
            _log_uniform(stream, 3, 0.1, 10.0),
        )

    block = RandomStream(np.array(_BLOCK, dtype=np.uint64))
    got = draw(block)
    for t, seed in enumerate(_BLOCK):
        alone = RandomStream(seed)
        for g, want in zip(got, draw(alone)):
            assert g.shape == (len(_BLOCK),) + want.shape
            np.testing.assert_array_equal(_bits(g[t]), _bits(want))
        assert int(block.state[t]) == alone.state


def test_block_stream_rejects_a_block_that_is_not_1d():
    with pytest.raises(ValueError):
        RandomStream(np.zeros((2, 2), dtype=np.uint64))
