import math

import numpy as np
import pytest

from oracles import (
    band_inverse3,
    coefficient_spans,
    spatial_forward3,
    spatial_inverse3,
    temporal_forward_stacked,
    temporal_inverse,
)
from wm3d.errors import GeometryError
from wm3d.wavelet3d import (
    BANDS,
    band_pattern,
    band_sums,
    subband_rect,
    temporal_analysis,
    temporal_synthesis,
)

SQRT2 = math.sqrt(2.0)


def _analysis(x, count=None):
    """Orthonormal coefficient frames 0..count-1 of (n, ...) frames
    through temporal_analysis; all padded-length frames without `count`."""
    x = np.asarray(x)
    size = 1 << (len(x) - 1).bit_length()
    count = size if count is None else count
    scale = 1 / np.sqrt(coefficient_spans(len(x), count))
    matrix = temporal_analysis(len(x), count)
    return np.tensordot(matrix, x, axes=1) * scale.reshape(-1, *[1] * (x.ndim - 1))


def _const_frames(values, h=8, w=8):
    return np.stack([np.full((h, w), v, dtype=np.float64) for v in values])


def test_temporal_two_frames():
    vol = _analysis(_const_frames([10.0, 4.0]))
    assert vol.shape == (2, 8, 8)
    assert np.allclose(vol[0], 14.0 / SQRT2)
    assert np.allclose(vol[1], 6.0 / SQRT2)


def test_temporal_constant_four_frames():
    vol = _analysis(_const_frames([3.0] * 4))
    assert np.allclose(vol[0], 6.0)  # DC gain sqrt(2) per level
    assert np.allclose(vol[1:], 0.0)


def test_temporal_single_frame_identity():
    x = np.random.RandomState(0).rand(1, 8, 8)
    vol = _analysis(x)
    assert vol.shape == (1, 8, 8)
    assert np.array_equal(vol, x)
    assert np.array_equal(temporal_inverse(vol, 1), x)


def test_temporal_padding_roundtrip():
    x = np.random.RandomState(1).rand(3, 8, 8) * 255
    vol = _analysis(x)
    assert vol.shape == (4, 8, 8)
    assert np.max(np.abs(temporal_inverse(vol, 3) - x)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
def test_temporal_roundtrip_lengths(n):
    x = np.random.RandomState(n).rand(n, 8, 16) * 255
    assert np.max(np.abs(temporal_inverse(_analysis(x), n) - x)) < 1e-9


def test_zero_details_reproduce_scaled_dc():
    x = np.random.RandomState(2).rand(8, 8, 8)
    vol = _analysis(x)
    vol[1:] = 0.0
    rebuilt = temporal_inverse(vol, 8)
    expected = vol[0] / SQRT2**3  # DC spread back over 8 frames
    for frame in rebuilt:
        assert np.allclose(frame, expected)


def test_dc_frame_is_scaled_temporal_mean():
    frame = np.random.RandomState(3).rand(8, 8)
    x = np.stack([frame] * 8)
    vol = _analysis(x)
    assert np.allclose(vol[0], frame * math.sqrt(8))


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
    vol = _analysis(x)
    assert np.sum(vol**2) == pytest.approx(np.sum(x * x), rel=1e-6)


def test_linearity():
    rs = np.random.RandomState(7)
    x, y = rs.rand(4, 8, 8), rs.rand(4, 8, 8)
    a, b = 2.25, -0.75
    lhs = _analysis(a * x + b * y)
    rhs = a * _analysis(x) + b * _analysis(y)
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
    for band in BANDS:
        whole = full[subband_rect(32, 48, band).slices()]
        part = crop[subband_rect(16, 24, band).slices()]
        assert np.array_equal(part, whole[1:3, 2:5])


def test_full_3d_roundtrip():
    x = np.random.RandomState(9).rand(5, 16, 24) * 255
    vol = spatial_forward3(_analysis(x))
    back = temporal_inverse(spatial_inverse3(vol), 5)
    assert np.max(np.abs(back - x)) < 1e-9


def test_subband_rect_cif_geometry():
    # 352 wide x 288 high frame, level-3 vertical detail band
    rect = subband_rect(288, 352, "lh3")
    assert rect == (36, 0, 36, 44)


def test_subband_rect_ll3():
    assert subband_rect(128, 128, "ll3") == (0, 0, 16, 16)


def test_subband_rects_disjoint():
    rects = {n: subband_rect(64, 96, n) for n in BANDS}
    cells = set()
    for r in rects.values():
        for i in range(r.row0, r.row0 + r.rows):
            for j in range(r.col0, r.col0 + r.cols):
                assert (i, j) not in cells
                cells.add((i, j))


def test_subband_rect_validation():
    with pytest.raises(ValueError, match="band"):
        subband_rect(64, 64, "xy")
    with pytest.raises(ValueError, match="band"):
        subband_rect(64, 64, "lh")  # the level is part of the name
    with pytest.raises(GeometryError):
        subband_rect(60, 64, "lh3")


def test_subband_slices_address_frame():
    frame = np.zeros((32, 32))
    rect = subband_rect(32, 32, "lh3")
    frame[rect.slices()] = 1.0
    assert frame[4:8, 0:4].sum() == rect.rows * rect.cols == frame.sum()


# --- the band-only paths against the full transforms -------------------------

def _rounded_band(x, band):
    """8 times a band of the float oracle, rounded to integers."""
    rect = subband_rect(*np.shape(x)[-2:], band)
    return np.rint(8 * spatial_forward3(x)[(..., *rect.slices())])


@pytest.mark.parametrize("band", BANDS, ids=[b[:2] for b in BANDS])
def test_band_sums_equal_full_transform_band(band):
    x = (np.random.RandomState(11).rand(2, 3, 32, 48) * 255).astype(np.uint8)
    got = band_sums(x, band)
    assert got.dtype == np.int16 and got.shape == (2, 3, 4, 6)
    assert np.array_equal(got, _rounded_band(x, band))


def _checkerboard(cell):
    i, j = np.indices((32, 48)) // cell
    return np.where((i + j) % 2, 255, 0).astype(np.uint8)


EXTREMES = {
    "zeros": np.zeros((32, 48), np.uint8),
    "full": np.full((32, 48), 255, np.uint8),
    **{f"checker{c}": _checkerboard(c) for c in (1, 2, 4, 8)},
    **{f"inverse-checker{c}": 255 - _checkerboard(c) for c in (1, 4)},
}


@pytest.mark.parametrize("content", sorted(EXTREMES))
@pytest.mark.parametrize("band", BANDS, ids=[b[:2] for b in BANDS])
def test_band_sums_extreme_content(band, content):
    # the largest sums, +-64 * 255, stay inside int16
    x = EXTREMES[content]
    got = band_sums(x, band)
    assert np.array_equal(got, _rounded_band(x, band))
    assert np.max(np.abs(got.astype(np.int64))) <= 64 * 255


def test_band_sums_reach_the_int16_bound():
    x = EXTREMES["full"]
    assert np.all(band_sums(x, "ll3") == 64 * 255)
    assert np.all(band_sums(_checkerboard(4), "hh3") == -32 * 255)


def test_band_sums_reject_bad_dims_band_and_dtype():
    with pytest.raises(GeometryError, match="divisible by 8"):
        band_sums(np.zeros((12, 16), np.uint8), "lh3")
    with pytest.raises(ValueError, match="band"):
        band_sums(np.zeros((16, 16), np.uint8), "xy")
    with pytest.raises(ValueError, match="band"):
        band_inverse3(np.zeros((2, 2)), "xy")
    for dtype in (np.float64, np.int16, np.uint16):
        with pytest.raises(ValueError, match="uint8"):
            band_sums(np.zeros((16, 16), dtype), "lh3")


@pytest.mark.parametrize("band", BANDS, ids=[b[:2] for b in BANDS])
def test_band_inverse3_equals_full_inverse_of_padded_band(band):
    c = np.random.RandomState(12).randn(2, 3, 4, 6) * 50
    padded = np.zeros((2, 3, 32, 48))
    padded[(..., *subband_rect(32, 48, band).slices())] = c
    got = band_inverse3(c, band)
    assert got.shape == (2, 3, 32, 48)
    assert np.array_equal(got, spatial_inverse3(padded))


@pytest.mark.parametrize("band", BANDS, ids=[b[:2] for b in BANDS])
def test_band_pattern_is_the_unit_coefficient_block(band):
    unit = band_inverse3(np.ones((1, 1)), band)
    assert np.array_equal(np.sign(unit), band_pattern(band))


@pytest.mark.parametrize("n", range(1, 41))
def test_temporal_forward_equals_stacked_oracle(n):
    # the integer analysis matrix on uint8 frames is the float oracle
    # scaled by sqrt(span), exactly; rows 0..8 are the first 9 rows
    rs = np.random.RandomState(n)
    frames = rs.randint(0, 256, (n, 8, 16)).astype(np.uint8)
    full = temporal_forward_stacked(frames)
    size = len(full)
    matrix = temporal_analysis(n, size)
    assert matrix.shape == (size, n) and matrix.dtype == np.int64
    spans = coefficient_spans(n, size)
    exact = np.tensordot(matrix, frames, axes=1)
    assert np.array_equal(exact, np.rint(full * np.sqrt(spans)[:, None, None]))
    assert np.array_equal(temporal_analysis(n, min(9, size)), matrix[:9])


@pytest.mark.parametrize("n", [9, 16, 21, 33, 40])
def test_temporal_analysis_folds_missing_frames(n):
    # the first m frames of an n-frame shot, the rest repeating frame
    # m-1: the folded matrix times them equals the full matrix times
    # the padded shot
    frames = np.random.RandomState(n).randint(0, 256, (n, 8, 8))
    for m in range(1, n + 1):
        repeats = np.repeat(frames[m - 1 : m], n - m, axis=0)
        padded = np.concatenate([frames[:m], repeats])
        folded = temporal_analysis(n, 9, m)
        assert folded.shape == (9, m)
        assert np.array_equal(
            np.tensordot(folded, frames[:m], axes=1),
            np.tensordot(temporal_analysis(n, 9), padded, axes=1),
        )


def test_temporal_analysis_memory_follows_the_received_frames():
    matrix = temporal_analysis(10**12, 9, 16)
    assert matrix.shape == (9, 16)
    assert matrix[0, -1] == 2**40 - 15  # frames 15..2**40 - 1 of the DC row
    # a detail row sums to 0 over the padded shot, so over the 16 frames
    assert np.all(matrix[1:].sum(axis=1) == 0)


def test_temporal_inverse_rejects_partial_volume():
    vol = _analysis(np.random.RandomState(13).rand(16, 8, 8), 9)
    with pytest.raises(ValueError, match="partial"):
        temporal_inverse(vol, 16)


@pytest.mark.parametrize("n", range(1, 41))
def test_temporal_synthesis_equals_inverse_of_unit_frames(n):
    # column k is the orthonormal inverse of unit frame k over sqrt(span)
    size = 1 << (n - 1).bit_length()
    got = temporal_synthesis(n, size)
    assert got.shape == (n, size)
    spans = coefficient_spans(n, size)
    unit = temporal_inverse(np.eye(size), n)
    assert np.array_equal(got * spans, np.rint(unit * np.sqrt(spans)))
    assert np.array_equal(temporal_synthesis(n, min(9, size)), got[:, :9])


@pytest.mark.parametrize("n", range(1, 41))
def test_temporal_synthesis_inverts_the_integer_analysis_exactly(n):
    size = 1 << (n - 1).bit_length()
    x = np.random.RandomState(n).randint(0, 256, (n, 8, 16))
    coeffs = np.tensordot(temporal_analysis(n, size), x, axes=1)
    assert np.array_equal(np.tensordot(temporal_synthesis(n, size), coeffs, axes=1), x)


def test_temporal_synthesis_rebuilds_the_shot():
    x = np.random.RandomState(14).rand(21, 8, 16) * 255
    coeffs = np.tensordot(temporal_analysis(21, 32), x, axes=1)
    back = np.tensordot(temporal_synthesis(21, 32), coeffs, axes=1)
    assert np.max(np.abs(back - x)) < 1e-9
