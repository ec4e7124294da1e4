import math

import numpy as np
import pytest

from oracles import spatial_forward3_volume, spatial_inverse3_volume
from wm3d.errors import GeometryError
from wm3d.wavelet3d import (
    spatial_forward3,
    spatial_inverse3,
    subband_rect,
    temporal_forward,
    temporal_inverse,
)

SQRT2 = math.sqrt(2.0)


def _const_frames(values, h=8, w=8):
    return np.stack([np.full((h, w), v, dtype=np.float64) for v in values])


def test_temporal_two_frames():
    vol = temporal_forward(_const_frames([10.0, 4.0]))
    assert vol.temporal_levels == 1 and vol.padded_length == 2
    assert np.allclose(vol.frames[0], 14.0 / SQRT2)
    assert np.allclose(vol.frames[1], 6.0 / SQRT2)


def test_temporal_constant_four_frames():
    vol = temporal_forward(_const_frames([3.0] * 4))
    assert np.allclose(vol.frames[0], 6.0)  # DC gain sqrt(2) per level
    assert np.allclose(vol.frames[1:], 0.0)


def test_temporal_single_frame_identity():
    x = np.random.RandomState(0).rand(1, 8, 8)
    vol = temporal_forward(x)
    assert vol.temporal_levels == 0
    assert np.array_equal(vol.frames, x)
    assert np.array_equal(temporal_inverse(vol), x)


def test_temporal_padding_roundtrip():
    x = np.random.RandomState(1).rand(3, 8, 8) * 255
    vol = temporal_forward(x)
    assert vol.padded_length == 4 and vol.original_length == 3
    assert np.max(np.abs(temporal_inverse(vol) - x)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
def test_temporal_roundtrip_lengths(n):
    x = np.random.RandomState(n).rand(n, 8, 16) * 255
    assert np.max(np.abs(temporal_inverse(temporal_forward(x)) - x)) < 1e-9


def test_zero_details_reproduce_scaled_dc():
    x = np.random.RandomState(2).rand(8, 8, 8)
    vol = temporal_forward(x)
    vol.frames[1:] = 0.0
    rebuilt = temporal_inverse(vol)
    expected = vol.frames[0] / SQRT2**3  # DC spread back over 8 frames
    for frame in rebuilt:
        assert np.allclose(frame, expected)


def test_dc_frame_is_scaled_temporal_mean():
    frame = np.random.RandomState(3).rand(8, 8)
    x = np.stack([frame] * 8)
    vol = temporal_forward(x)
    assert np.allclose(vol.frames[0], frame * math.sqrt(8))


def test_spatial_constant_frame():
    coeffs = spatial_forward3(np.full((8, 8), 5.0))
    assert coeffs[0, 0] == pytest.approx(40.0)  # gain 2 per 2-D level
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.allclose(rest, 0.0, atol=1e-12)


def test_spatial_roundtrip():
    x = np.random.RandomState(4).rand(16, 16) * 255
    assert np.max(np.abs(spatial_inverse3(spatial_forward3(x)) - x)) < 1e-9


def test_spatial_parseval():
    x = np.random.RandomState(5).rand(32, 32) * 255
    c = spatial_forward3(x)
    assert np.sum(c * c) == pytest.approx(np.sum(x * x), rel=1e-6)


def test_temporal_parseval():
    x = np.random.RandomState(6).rand(8, 8, 8) * 255
    vol = temporal_forward(x)
    assert np.sum(vol.frames**2) == pytest.approx(np.sum(x * x), rel=1e-6)


def test_linearity():
    rs = np.random.RandomState(7)
    x, y = rs.rand(4, 8, 8), rs.rand(4, 8, 8)
    a, b = 2.25, -0.75
    lhs = temporal_forward(a * x + b * y).frames
    rhs = a * temporal_forward(x).frames + b * temporal_forward(y).frames
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    lhs2 = spatial_forward3(a * x[0] + b * y[0])
    rhs2 = a * spatial_forward3(x[0]) + b * spatial_forward3(y[0])
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-9


def test_spatial_rejects_bad_dims():
    with pytest.raises(GeometryError, match="divisible by 8"):
        spatial_forward3(np.zeros((12, 16)))
    with pytest.raises(GeometryError):
        spatial_inverse3(np.zeros((16, 20)))


def test_spatial_stack_matches_per_frame():
    x = np.random.RandomState(8).rand(3, 16, 24) * 255
    per_frame = np.stack([spatial_forward3(f) for f in x])
    assert np.array_equal(spatial_forward3(x), per_frame)
    assert np.array_equal(spatial_inverse3(per_frame), np.stack(
        [spatial_inverse3(f) for f in per_frame]
    ))


def test_block_aligned_crop_level3_bit_identical():
    x = np.random.RandomState(10).rand(32, 48) * 255
    full = spatial_forward3(x)
    crop = spatial_forward3(x[8:24, 16:40])  # block rows 1..2, cols 2..4
    for band in ("ll", "lh", "hl", "hh"):
        whole = full[subband_rect(32, 48, band, 3).slices()]
        part = crop[subband_rect(16, 24, band, 3).slices()]
        assert np.array_equal(part, whole[1:3, 2:5])


def test_full_3d_roundtrip():
    x = np.random.RandomState(9).rand(5, 16, 24) * 255
    vol = spatial_forward3_volume(temporal_forward(x))
    back = temporal_inverse(spatial_inverse3_volume(vol))
    assert np.max(np.abs(back - x)) < 1e-9


def test_subband_rect_cif_geometry():
    # 352 wide x 288 high frame, level-3 vertical detail band
    rect = subband_rect(288, 352, "lh", 3)
    assert rect == (36, 0, 36, 44)


def test_subband_rect_ll3():
    assert subband_rect(128, 128, "ll", 3) == (0, 0, 16, 16)


def test_subband_rects_disjoint():
    names = ("ll", "lh", "hl", "hh")
    rects = {n: subband_rect(64, 96, n, 3) for n in names}
    cells = set()
    for r in rects.values():
        for i in range(r.row0, r.row0 + r.rows):
            for j in range(r.col0, r.col0 + r.cols):
                assert (i, j) not in cells
                cells.add((i, j))


def test_subband_rect_validation():
    with pytest.raises(ValueError, match="level"):
        subband_rect(64, 64, "lh", 4)
    with pytest.raises(ValueError, match="band"):
        subband_rect(64, 64, "xy", 2)
    with pytest.raises(GeometryError):
        subband_rect(60, 64, "lh", 3)


def test_subband_slices_address_frame():
    frame = np.zeros((32, 32))
    rect = subband_rect(32, 32, "lh", 3)
    frame[rect.slices()] = 1.0
    assert frame[4:8, 0:4].sum() == rect.rows * rect.cols == frame.sum()
