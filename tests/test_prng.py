import numpy as np
import pytest

from oracles import SplitMix64, fisher_yates, gaussian_one_shot
from wm3d.prng import (
    MASK64,
    _as_float,
    _gaussian_pairs,
    hash64,
    mix64,
    mix64_np,
    permutation,
    stream,
)

# First outputs of the reference splitmix64 for seed 0.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def _reference_next(state):
    """Independent transcription of the splitmix64 reference."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def test_reference_vectors_seed0():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(4)] == SEED0_OUTPUTS


def test_sequential_matches_independent_transcription():
    for seed in (0, 1, 0xDEADBEEF, MASK64):
        g = SplitMix64(seed)
        state = seed
        for _ in range(16):
            state, expected = _reference_next(state)
            assert g.next_u64() == expected


def test_stream_matches_sequential():
    for seed in (0, 42, 2**63 + 17):
        g = SplitMix64(seed)
        expected = [g.next_u64() for _ in range(100)]
        assert stream(seed, 100).tolist() == expected


def test_mix64_is_first_output():
    for seed in (0, 5, 123456789):
        assert mix64(seed) == SplitMix64(seed).next_u64()


def test_mix64_np_matches_scalar():
    xs = np.array([0, 1, 7, 2**40, MASK64], dtype=np.uint64)
    out = mix64_np(xs)
    for x, y in zip(xs.tolist(), out.tolist()):
        assert mix64(x) == y
    assert xs.tolist() == [0, 1, 7, 2**40, MASK64]  # finalized in its own copy


def test_hash64_order_and_determinism():
    assert hash64(1, 2, 3) == hash64(1, 2, 3)
    assert hash64(1, 2, 3) != hash64(1, 3, 2)
    assert hash64(7) == 7 & MASK64  # no words absorbed
    assert 0 <= hash64(3, 1, 4, 1, 5) <= MASK64


def test_permutation_is_bijection():
    for n in (1, 2, 17, 256):
        p = permutation(n, 99)
        assert sorted(p.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 1584, 4096])
def test_permutation_equals_sequential_fisher_yates(n):
    for seed in (0, 1, 0xDEADBEEF, MASK64):
        assert np.array_equal(permutation(n, seed), fisher_yates(n, seed))


def test_permutation_determinism_and_seed_sensitivity():
    assert permutation(64, 5).tolist() == permutation(64, 5).tolist()
    assert permutation(64, 5).tolist() != permutation(64, 6).tolist()


def test_gaussian_deterministic_and_sane():
    a = np.concatenate(_gaussian_pairs(123, 5000, 0, 2500))
    b = np.concatenate(_gaussian_pairs(123, 5000, 0, 2500))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, np.concatenate(_gaussian_pairs(124, 5000, 0, 2500)))
    assert abs(float(a.mean())) < 0.05
    assert abs(float(a.std()) - 1.0) < 0.05
    assert np.all(np.isfinite(a))


def test_gaussian_odd_count():
    cos, sin = _gaussian_pairs(9, 7, 0, 4)
    assert cos.shape == (4,) and sin.shape == (3,)  # the last sine is dropped


def _check_pair_range(whole, count, a, b):
    # pair p gives deviate p (cosine) and deviate pairs + p (sine)
    pairs = (count + 1) // 2
    cos, sin = _gaussian_pairs(5, count, a, b)
    assert np.array_equal(cos, whole[a:b])
    assert np.array_equal(sin, whole[a + pairs : min(b + pairs, count)])


@pytest.mark.parametrize(
    "count, chunk",
    [(7, 3), (1001, 100), (230401, 230400), (64 * 230400, 230400)],
)
def test_gaussian_ranges_match_one_shot_draw(count, chunk):
    whole = gaussian_one_shot(5, count)
    pairs = (count + 1) // 2
    for a in range(0, pairs, chunk):
        _check_pair_range(whole, count, a, min(a + chunk, pairs))


@pytest.mark.parametrize("count", [1, 2, 63, 64, 1001, 1002])
def test_gaussian_any_pair_range_matches_one_shot_draw(count):
    whole = gaussian_one_shot(5, count)
    pairs = (count + 1) // 2
    rs = np.random.RandomState(count)
    ranges = [(0, pairs), (0, 0), (pairs - 1, pairs), (pairs, pairs)]
    ranges += [tuple(sorted(rs.randint(0, pairs + 1, 2))) for _ in range(20)]
    for a, b in ranges:
        _check_pair_range(whole, count, int(a), int(b))


def _assert_as_float_equals_cast(words):
    words = np.asarray(words, dtype=np.uint64)
    got = _as_float(words.copy())
    assert np.array_equal(got, words.astype(np.float64))
    assert got.tolist() == [float(w) for w in words.tolist()]  # Python rounds exactly


def test_as_float_edge_words():
    edges = [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63,
             2**63 + 1, 2**64 - 2, 2**64 - 1]
    _assert_as_float_equals_cast(edges)


def test_as_float_random_and_tie_words():
    words = np.random.RandomState(3).randint(0, 2**63, 200000, dtype=np.uint64)
    words[::2] |= np.uint64(1 << 63)  # half with 64 significant bits
    _assert_as_float_equals_cast(words)
    # low 11 bits exactly halfway: a tie that rounds to even in the kept bits
    ties = (words & np.uint64(~0x7FF & MASK64)) | np.uint64(0x400)
    _assert_as_float_equals_cast(ties)
    _assert_as_float_equals_cast(ties >> np.uint64(1))  # 63 bits: low 10 bits tie
