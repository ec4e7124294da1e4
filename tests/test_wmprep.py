import numpy as np
import pytest

from oracles import MASK64, SplitMix64
from wm3d.wmprep import (
    _mask,
    _perm,
    compose_bitplanes,
    decompose_bitplanes,
    disorder,
    permute,
    undisorder,
    unpermute,
)


def test_bit_expansion_170():
    img = np.full((2, 2), 170, np.uint8)  # 10101010b
    planes = decompose_bitplanes(img)
    assert [int(planes[b, 0, 0]) for b in range(7, -1, -1)] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_all_zero_image():
    assert not decompose_bitplanes(np.zeros((3, 5), np.uint8)).any()


def test_compose_examples():
    ones = np.ones((8, 2, 2), np.uint8)
    assert np.array_equal(compose_bitplanes(ones), np.full((2, 2), 255, np.uint8))
    only_msb = np.zeros((8, 2, 2), np.uint8)
    only_msb[7] = 1
    assert np.array_equal(compose_bitplanes(only_msb), np.full((2, 2), 128, np.uint8))


def test_bitplane_roundtrip():
    rs = np.random.RandomState(0)
    for _ in range(20):
        wm = rs.randint(0, 256, (rs.randint(1, 9), rs.randint(1, 9))).astype(np.uint8)
        assert np.array_equal(compose_bitplanes(decompose_bitplanes(wm)), wm)


def test_compose_validation():
    with pytest.raises(ValueError, match="8 stacked"):
        compose_bitplanes(np.zeros((7, 2, 2), np.uint8))
    bad = np.zeros((8, 2, 2), np.uint8)
    bad[0, 0, 0] = 2
    with pytest.raises(ValueError, match="binary"):
        compose_bitplanes(bad)


def test_permute_roundtrip_and_popcount():
    rs = np.random.RandomState(1)
    plane = rs.randint(0, 2, (6, 7)).astype(np.uint8)
    out = permute(plane, 42)
    assert out.sum() == plane.sum()
    assert np.array_equal(unpermute(out, 42), plane)


def test_permute_same_for_all_planes():
    rs = np.random.RandomState(2)
    a = rs.randint(0, 2, (5, 5)).astype(np.uint8)
    b = rs.randint(0, 2, (5, 5)).astype(np.uint8)
    pos = np.arange(25).reshape(5, 5)
    moved = permute(pos, 9)
    assert np.array_equal(permute(a, 9), a.ravel()[moved.ravel()].reshape(5, 5))
    assert np.array_equal(permute(b, 9), b.ravel()[moved.ravel()].reshape(5, 5))


def test_permute_seed_sensitivity_and_determinism():
    plane = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(permute(plane, 11), permute(plane, 11))
    assert not np.array_equal(permute(plane, 11), permute(plane, 12))


def test_disorder_is_xor_mask_then_sign():
    rs = np.random.RandomState(3)
    bits = rs.randint(0, 2, (9, 9)).astype(np.uint8)
    # recover the mask through the zero plane, then check the relation
    mask = ((disorder(np.zeros((9, 9), np.uint8), 4, 77) + 1) // 2).astype(np.uint8)
    expected = 2 * (bits ^ mask).astype(np.int8) - 1
    assert np.array_equal(disorder(bits, 4, 77), expected)


def test_disorder_roundtrip_any_seed():
    rs = np.random.RandomState(4)
    for seed in (0, 1, 2**63, 12345):
        bits = rs.randint(0, 2, (8, 8)).astype(np.uint8)
        for b in range(8):
            signs = disorder(bits, b, seed)
            assert set(np.unique(signs)) <= {-1, 1}
            assert np.array_equal(undisorder(signs, b, seed), bits)


def test_disorder_differs_across_seeds_and_planes():
    bits = np.zeros((8, 8), np.uint8)
    assert not np.array_equal(disorder(bits, 0, 1), disorder(bits, 0, 2))
    assert not np.array_equal(disorder(bits, 0, 1), disorder(bits, 1, 1))


def test_disorder_near_balanced():
    bits = np.random.RandomState(5).randint(0, 2, (32, 32)).astype(np.uint8)
    bound = 4 * 32  # 4 * sqrt(area)
    for seed in range(20):
        signs = disorder(bits, seed % 8, 1000 + seed)
        assert abs(int(signs.sum())) <= bound


def test_mask_deterministic():
    assert np.array_equal(_mask((16, 16), 3, 9), _mask((16, 16), 3, 9))


@pytest.mark.parametrize("seed2", [0, 2**64 - 1])
def test_mask_equals_sequential_splitmix64(seed2):
    def mix(x):
        return SplitMix64(x).next_u64()

    for plane_index in (0, 7):
        base = mix((seed2 ^ plane_index) & MASK64)
        want = [[mix(mix(base ^ i) ^ j) & 1 for j in range(6)] for i in range(5)]
        assert _mask((5, 6), plane_index, seed2).tolist() == want


def test_cached_permutation_and_masks_are_read_only():
    # every caller shares the cached arrays, so none may write to them
    for shared in (_perm(16, 9), _mask((4, 4), 3, 9)):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1


def test_full_prep_roundtrip():
    rs = np.random.RandomState(6)
    wm = rs.randint(0, 256, (11, 13)).astype(np.uint8)
    seed1, seed2 = 111, 222
    planes = decompose_bitplanes(wm)
    prepared = [disorder(permute(planes[b], seed1), b, seed2) for b in range(8)]
    restored = np.stack(
        [unpermute(undisorder(prepared[b], b, seed2), seed1) for b in range(8)]
    )
    assert np.array_equal(compose_bitplanes(restored), wm)


def test_undisorder_validation():
    with pytest.raises(ValueError, match="sign"):
        undisorder(np.zeros((2, 2), np.int8), 0, 1)
    with pytest.raises(ValueError, match="binary"):
        disorder(np.full((2, 2), 3, np.uint8), 0, 1)
