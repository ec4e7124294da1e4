import numpy as np
import pytest

from oracles import MASK64, SplitMix64, prepare_sign_planes_seq
from wm3d.wmprep import (
    _keys,
    compose_bitplanes,
    decompose_bitplanes,
    prepare_sign_planes,
    restore_bitplanes,
)


def _bits(signs) -> np.ndarray:
    return ((np.asarray(signs) + 1) // 2).astype(np.uint8)


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
    # XORing the masks back leaves each plane's bits moved, not changed
    wm = np.random.RandomState(1).randint(0, 256, (6, 7)).astype(np.uint8)
    planes = decompose_bitplanes(wm)
    signs = prepare_sign_planes(wm, 42, 5)
    moved = _bits(signs) ^ _keys((6, 7), 42, 5)[1]
    assert moved.sum(axis=(1, 2)).tolist() == planes.sum(axis=(1, 2)).tolist()
    assert np.array_equal(restore_bitplanes(signs, 42, 5), planes)


def test_permute_same_for_all_planes():
    rs = np.random.RandomState(2)
    wm = rs.randint(0, 256, (5, 5)).astype(np.uint8)
    planes = decompose_bitplanes(wm)
    perm, masks = _keys((5, 5), 9, 3)
    moved = _bits(prepare_sign_planes(wm, 9, 3)) ^ masks
    for b in range(8):
        assert np.array_equal(moved[b], planes[b].ravel()[perm].reshape(5, 5))


def test_permute_seed_sensitivity_and_determinism():
    wm = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(prepare_sign_planes(wm, 11, 0), prepare_sign_planes(wm, 11, 0))
    assert not np.array_equal(prepare_sign_planes(wm, 11, 0), prepare_sign_planes(wm, 12, 0))


def test_disorder_is_xor_mask_then_sign():
    rs = np.random.RandomState(3)
    wm = rs.randint(0, 256, (9, 9)).astype(np.uint8)
    perm = _keys((9, 9), 8, 77)[0]
    # recover the masks through the zero watermark, then check the relation
    mask = _bits(prepare_sign_planes(np.zeros((9, 9), np.uint8), 8, 77))
    moved = decompose_bitplanes(wm).reshape(8, -1)[:, perm].reshape(8, 9, 9)
    expected = 2 * (moved ^ mask).astype(np.int8) - 1
    assert np.array_equal(prepare_sign_planes(wm, 8, 77), expected)


def test_disorder_roundtrip_any_seed():
    rs = np.random.RandomState(4)
    for seed in (0, 1, 2**63, 12345):
        wm = rs.randint(0, 256, (8, 8)).astype(np.uint8)
        signs = prepare_sign_planes(wm, 7, seed)
        assert signs.dtype == np.int8 and set(np.unique(signs)) <= {-1, 1}
        assert np.array_equal(restore_bitplanes(signs, 7, seed), decompose_bitplanes(wm))


def test_disorder_differs_across_seeds_and_planes():
    zero = np.zeros((8, 8), np.uint8)
    assert not np.array_equal(prepare_sign_planes(zero, 0, 1), prepare_sign_planes(zero, 0, 2))
    signs = prepare_sign_planes(zero, 0, 1)
    assert all(not np.array_equal(signs[0], signs[b]) for b in range(1, 8))


def test_disorder_near_balanced():
    wm = np.random.RandomState(5).randint(0, 256, (32, 32)).astype(np.uint8)
    bound = 4 * 32  # 4 * sqrt(area)
    for seed in range(20):
        signs = prepare_sign_planes(wm, seed, 1000 + seed)
        assert all(abs(int(plane.sum())) <= bound for plane in signs)


def test_mask_deterministic():
    first = _keys((16, 16), 3, 9)
    _keys.cache_clear()
    again = _keys((16, 16), 3, 9)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("seed2", [0, 2**64 - 1])
def test_mask_equals_sequential_splitmix64(seed2):
    def mix(x):
        return SplitMix64(x).next_u64()

    masks = _keys((5, 6), 1, seed2)[1]
    for plane_index in range(8):
        base = mix((seed2 ^ plane_index) & MASK64)
        want = [[mix(mix(base ^ i) ^ j) & 1 for j in range(6)] for i in range(5)]
        assert masks[plane_index].tolist() == want


def test_cached_permutation_and_masks_are_read_only():
    # every caller shares the cached arrays, so none may write to them
    for shared in _keys((4, 4), 9, 3):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1


def test_full_prep_roundtrip():
    rs = np.random.RandomState(6)
    wm = rs.randint(0, 256, (11, 13)).astype(np.uint8)
    signs = prepare_sign_planes(wm, 111, 222)
    assert np.array_equal(compose_bitplanes(restore_bitplanes(signs, 111, 222)), wm)


def test_undisorder_validation():
    with pytest.raises(ValueError, match="sign"):
        restore_bitplanes(np.zeros((8, 2, 2), np.int8), 0, 1)
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        prepare_sign_planes(np.full((2, 2), 256), 0, 1)


SEQ_SHAPES = [(1, 1), (1, 7), (7, 1), (32, 32), (36, 44)]
SEQ_SEEDS = [(0, 2**64 - 1), (1, 2**63), (2**63, 1), (2**64 - 1, 0)]


@pytest.mark.parametrize("seed1,seed2", SEQ_SEEDS)
@pytest.mark.parametrize("shape", SEQ_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_prepare_equals_sequential_reference(shape, seed1, seed2):
    wm = np.random.RandomState(shape[0] * 100 + shape[1]).randint(0, 256, shape).astype(np.uint8)
    want = prepare_sign_planes_seq(wm, seed1, seed2)
    got = prepare_sign_planes(wm, seed1, seed2)
    assert got.dtype == np.int8 and np.array_equal(got, want)
    assert np.array_equal(restore_bitplanes(want, seed1, seed2), decompose_bitplanes(wm))
