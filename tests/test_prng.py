import numpy as np
import pytest

from oracles import SplitMix64, fisher_yates
from wm3d.prng import (
    MASK64,
    _normal_quantiles,
    _uniform16,
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
        assert mix64_np(np.array([seed], np.uint64)).tolist() == [SplitMix64(seed).next_u64()]


def test_mix64_np_matches_scalar():
    words = [0, 1, 7, 2**40, 2**63, MASK64 - 0x9E3779B97F4A7C15, MASK64]
    xs = np.array(words, np.uint64)
    assert mix64_np(xs).tolist() == [SplitMix64(x).next_u64() for x in words]
    assert xs.tolist() == words  # finalized in its own copy


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


def _uniform16_one_shot(seed, count):
    """All `count` 16-bit uniforms, cut from whole stream words by shifts."""
    words = stream(seed, -(-count // 4))
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    pieces = (words[:, None] >> shifts) & np.uint64(0xFFFF)
    return pieces.reshape(-1)[:count].astype(np.uint16)


def test_uniform16_takes_low_bits_first():
    word = int(stream(5, 1)[0])
    assert _uniform16(5, 0, 4).tolist() == [(word >> s) & 0xFFFF for s in (0, 16, 32, 48)]
    assert _uniform16(5, 1, 3).tolist() == [(word >> s) & 0xFFFF for s in (16, 32)]


def test_gaussian_deterministic_and_sane():
    # the noise attack's standard deviates: z at 16-bit uniforms
    z = _normal_quantiles()
    a = z[_uniform16(123, 0, 20000)]
    assert np.array_equal(a, z[_uniform16(123, 0, 20000)])
    assert not np.array_equal(a, z[_uniform16(124, 0, 20000)])
    assert abs(float(a.mean())) < 0.05
    assert abs(float(a.std()) - 1.0) < 0.05
    assert np.all(np.isfinite(a))


@pytest.mark.parametrize(
    "count, chunk",
    [(7, 3), (1001, 100), (230401, 230400), (64 * 230400, 230400)],
)
def test_gaussian_ranges_match_one_shot_draw(count, chunk):
    # frame-sized ranges, as the noise attack draws them, give the whole draw
    whole = _uniform16_one_shot(5, count)
    for a in range(0, count, chunk):
        b = min(a + chunk, count)
        assert np.array_equal(_uniform16(5, a, b), whole[a:b])


@pytest.mark.parametrize("count", [1, 2, 63, 64, 1001, 1002])
def test_gaussian_any_pair_range_matches_one_shot_draw(count):
    # any (start, stop) pair, whatever word its ends fall in
    whole = _uniform16_one_shot(5, count)
    rs = np.random.RandomState(count)
    ranges = [(0, count), (0, 0), (count - 1, count), (count, count)]
    ranges += [tuple(sorted(rs.randint(0, count + 1, 2))) for _ in range(20)]
    for a, b in ranges:
        assert np.array_equal(_uniform16(5, int(a), int(b)), whole[a:b])


def test_normal_quantiles_symmetric_and_increasing():
    z = _normal_quantiles()
    assert z.shape == (65536,) and z.dtype == np.float64
    assert np.array_equal(z, -z[::-1])  # z[u] == -z[65535 - u], exactly
    assert (np.diff(z) > 0).all()
    assert not z.flags.writeable and _normal_quantiles() is z  # built once
