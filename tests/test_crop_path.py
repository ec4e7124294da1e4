"""The crop-based embed and extract paths against the whole-frame oracle.

The crop path works on exact integer sums, the float oracle's
orthonormal coefficients times one positive factor per frame. Realized
signs must be equal except at exact ties, which the random shots here
do not hold, and where the exact path realizes -1. Pixels may differ
only at rounding ties: where the whole-frame value before rounding
lies within 1e-9 of k + 0.5, and then by one level.
"""

import io

import numpy as np
import pytest

from conftest import SEED1, SEED2, SEED3, make_flat_noise_clip
from oracles import (
    band_inverse3,
    coefficient_spans,
    embed_shot_full,
    embed_window,
    extract_planes_full,
    quantize_luma,
    spatial_forward3,
    temporal_forward_stacked,
    temporal_inverse,
)
from wm3d.embed import (
    EmbedParams,
    _crop_coeffs,
    _window_crop,
    _window_signs,
    embed_clip,
    embed_shot,
)
from wm3d.extract import extract_shot
from wm3d.keyfile import write_key
from wm3d.wavelet3d import BANDS, band_sums, subband_rect, temporal_analysis
from wm3d.wmprep import prepare_sign_planes

TIE_TOLERANCE = 1e-9
HEIGHT, WIDTH = 64, 48  # level-3 subbands of 8 rows x 6 columns


# (row0, col0, wm_h, wm_w) in an 8x6 subband
WINDOWS = {
    "origin": (0, 0, 3, 2),
    "far-edge": (5, 4, 3, 2),
    "whole-band": (0, 0, 8, 6),
}


def _shot(n, seed):
    rs = np.random.RandomState(seed)
    base = rs.randint(0, 256, (HEIGHT, WIDTH)).astype(np.float64)
    return [quantize_luma(base + 40.0 * rs.randn(HEIGHT, WIDTH)) for _ in range(n)]


def _assert_tie_rule(local, full_pre):
    full = np.stack([quantize_luma(f) for f in full_pre])
    local = np.stack(local)
    differ = local != full
    frac = full_pre[differ] - np.floor(full_pre[differ])
    assert np.all(np.abs(frac - 0.5) < TIE_TOLERANCE)
    assert np.all(np.abs(local[differ].astype(int) - full[differ]) == 1)


@pytest.mark.parametrize("n", [9, 16, 33])
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("band", ["lh3", "hl3", "ll3", "hh3"])
def test_crop_path_matches_whole_frame(band, window, n):
    r0, c0, wm_h, wm_w = WINDOWS[window]
    params = EmbedParams(alpha=0.2, region_row0=r0, region_col0=c0, band=band)
    rs = np.random.RandomState(n)
    wm = rs.randint(0, 256, (wm_h, wm_w)).astype(np.uint8)
    planes = prepare_sign_planes(wm, SEED1, SEED2)
    frames = _shot(n, seed=n)

    marked, realized = embed_shot(frames, planes, params)
    full_pre, full_realized = embed_shot_full(frames, planes, params)
    assert np.array_equal(realized, full_realized)
    _assert_tie_rule(marked, full_pre)

    got = extract_shot(marked, realized, SEED1, SEED2, n, params).bitplanes
    want = extract_planes_full(marked, realized, SEED1, SEED2, params)
    assert np.array_equal(got, want)


# (row0, col0, wm_h, wm_w) in the 9x6 subband of a 72x48 frame; the crops
# are 24, 40 and 72 rows high
STRIP_WINDOWS = {
    "origin": (0, 0, 2, 2),
    "middle": (3, 1, 3, 3),
    "far-edge": (7, 4, 2, 2),
    "whole-band": (0, 0, 9, 6),
}


@pytest.mark.parametrize("n", [9, 16, 33])
@pytest.mark.parametrize("window", sorted(STRIP_WINDOWS))
@pytest.mark.parametrize("band", BANDS)
def test_strip_crop_coeffs_match_whole_crop(band, window, n):
    # the integer path is the float oracle scaled to integers, exactly
    r0, c0, wm_h, wm_w = STRIP_WINDOWS[window]
    params = EmbedParams(region_row0=r0, region_col0=c0, band=band)
    rs = np.random.RandomState(100 + n)
    frames = list(rs.randint(0, 256, (n, 72, 48)).astype(np.uint8))
    crop, _ = _window_crop(params, 72, 48, wm_h, wm_w)

    whole = spatial_forward3(temporal_forward_stacked([f[crop] for f in frames]))[1:9]
    want = whole[(slice(None), *subband_rect(*whole.shape[1:], band).slices())]
    spans = coefficient_spans(n, 9)[1:]
    sums = np.stack([band_sums(f[crop], band) for f in frames])
    exact = np.tensordot(temporal_analysis(n, 9)[1:], sums, axes=1)
    assert np.array_equal(exact, np.rint(want * 8 * np.sqrt(spans)[:, None, None]))

    got = _crop_coeffs(frames, crop, band)
    assert got.dtype == np.int64 and np.array_equal(got, exact)


def _assert_synthesis_matches_full_resolution(frames, params, wm_h, wm_w):
    # the crop path's integer sums, scaled to orthonormal coefficients,
    # marked by the float update and synthesized through band_inverse3
    # at full resolution and the float temporal inverse, as embed once
    # did; pixels outside the crop stay as they were
    n, (height, width) = len(frames), frames[0].shape
    wm = np.arange(wm_h * wm_w, dtype=np.uint8).reshape(wm_h, wm_w)
    planes = prepare_sign_planes(wm, SEED1, SEED2)
    crop, win = _window_crop(params, height, width, wm_h, wm_w)
    sums = _crop_coeffs(frames, crop, params.band)
    coeffs = sums / (8 * np.sqrt(coefficient_spans(n, 9)[1:]))[:, None, None]
    marked, want_realized = embed_window(coeffs, planes, win, params.alpha)
    volume = np.zeros((1 << (n - 1).bit_length(), *coeffs.shape[1:]))
    volume[1:9] = marked - coeffs
    change = temporal_inverse(band_inverse3(volume, params.band), n)
    full_pre = np.stack([f[crop] + d for f, d in zip(frames, change)])
    got, realized = embed_shot(frames, planes, params)
    assert np.array_equal(realized, want_realized)
    _assert_tie_rule([f[crop] for f in got], full_pre)
    outside = np.ones((height, width), bool)
    outside[crop] = False
    assert all(np.array_equal(g[outside], f[outside]) for g, f in zip(got, frames))
    return full_pre


@pytest.mark.parametrize("band", BANDS)
def test_band_grid_synthesis_matches_full_resolution(band):
    params = EmbedParams(alpha=0.3, region_row0=1, region_col0=1, band=band)
    _assert_synthesis_matches_full_resolution(_shot(21, seed=5), params, 3, 4)


def _extreme_shot(content, n, seed):
    """An all-0, all-255 or 0/255 pixel checkerboard shot in which one
    pixel in 8, drawn per frame, takes the other extreme, so that the
    temporal detail frames are not 0."""
    rs = np.random.RandomState(seed)
    flip = rs.rand(n, HEIGHT, WIDTH) < 1 / 8
    base = {
        "all-0": np.zeros((HEIGHT, WIDTH), bool),
        "all-255": np.ones((HEIGHT, WIDTH), bool),
        "checkerboard": np.add.outer(np.arange(HEIGHT), np.arange(WIDTH)) % 2 == 1,
    }[content]
    return list(((base ^ flip) * 255).astype(np.uint8))


@pytest.mark.parametrize("window", ["origin", "far-edge", "whole-band"])
@pytest.mark.parametrize("content", ["all-0", "all-255", "checkerboard"])
@pytest.mark.parametrize("band", BANDS)
def test_band_grid_synthesis_clips_extreme_content(band, content, window):
    # alpha 0.9 on 0/255 pixels: the int16 steps clip at both ends, and
    # the narrower crops are views with the frame's row stride
    r0, c0, wm_h, wm_w = WINDOWS[window]
    params = EmbedParams(alpha=0.9, region_row0=r0, region_col0=c0, band=band)
    full_pre = _assert_synthesis_matches_full_resolution(
        _extreme_shot(content, 16, seed=3), params, wm_h, wm_w
    )
    assert np.any(full_pre < -0.5) and np.any(full_pre > 255.5)


@pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint16])
def test_crop_path_refuses_frames_that_are_not_uint8(dtype):
    params = EmbedParams(band="lh3")
    frames = [np.full((16, 16), 100, dtype)] * 9
    crop, _ = _window_crop(params, 16, 16, 1, 1)
    planes = np.ones((8, 1, 1), np.int8)
    with pytest.raises(ValueError, match="uint8"):
        _crop_coeffs(frames, crop, "lh3")
    with pytest.raises(ValueError, match="uint8"):
        embed_shot(frames, planes, params)
    with pytest.raises(ValueError, match="uint8"):
        extract_shot(frames, planes, SEED1, SEED2, 9, params)


def test_crop_path_tie_rule_at_exact_ties():
    # Block (0,0) steps from 100 to 98 halfway through 16 frames, so its
    # ll3 coefficient in frame 1 is 16 * 2 = 32 and every other one is 0.
    # Alpha 0.5 changes it by 16, which comes back as 16 / 8 / 4 = 0.5 on
    # each pixel of the block: every marked pixel is an exact tie.
    params = EmbedParams(alpha=0.5, band="ll3")
    first = np.full((16, 16), 100, np.uint8)
    second = first.copy()
    second[:8, :8] = 98
    frames = [first] * 8 + [second] * 8
    planes = prepare_sign_planes(np.full((1, 1), 77, np.uint8), SEED1, SEED2)
    marked, realized = embed_shot(frames, planes, params)
    full_pre, full_realized = embed_shot_full(frames, planes, params)
    assert np.array_equal(realized, full_realized)
    frac = full_pre - np.floor(full_pre)
    assert np.any(np.abs(frac - 0.5) < TIE_TOLERANCE)
    _assert_tie_rule(marked, full_pre)


def _tied_shot():
    """A 9-frame 16x16 shot in which the lh3 coefficients (0, 1) and
    (1, 1) of coefficient frame 4 both have the integer sum 1700 (so
    are 1700 / 8 / 2), while the float oracle puts (0, 1) below (1, 1)
    by about 4e-14."""
    rs = np.random.RandomState(2)
    return list(rs.randint(0, 4, (9, 16, 16)).astype(np.uint8) * 85)


def test_exact_tie_realizes_and_decodes_as_minus_one():
    frames, plane, tied = _tied_shot(), 3, ([0, 1], [1, 1])
    params = EmbedParams(band="lh3")
    crop, win = _window_crop(params, 16, 16, 2, 2)
    coeffs = _crop_coeffs(frames, crop, "lh3")
    assert np.all(coeffs[plane][tied] == 1700)
    oracle = spatial_forward3(temporal_forward_stacked(frames))[1:9, 2:4, 0:2]
    assert oracle[plane][tied][0] < oracle[plane][tied][1]  # the float path separates them

    for sign in (1, -1):
        planes = np.full((8, 2, 2), sign, np.int8)
        _, realized = embed_shot(frames, planes, params)
        assert np.all(realized[plane][tied] == -1)
        decoded = _window_signs(coeffs, planes, win)
        assert np.all(decoded[plane][tied] == -1)


def test_key_bytes_match_whole_frame():
    clip = make_flat_noise_clip(40, 128.0, h=HEIGHT, w=WIDTH)
    wm = np.random.RandomState(3).randint(0, 256, (4, 5)).astype(np.uint8)
    params = EmbedParams(alpha=0.1, region_row0=2, region_col0=1, band="hl3")
    _, bundle = embed_clip(
        clip, wm, SEED1, SEED2, SEED3, params=params, boundaries=[0, 9, 25, 40]
    )
    local = io.StringIO()
    write_key(bundle, local)

    planes = prepare_sign_planes(wm, SEED1, SEED2)
    for rec in bundle.records:
        start, end = bundle.boundaries[rec.shot_index : rec.shot_index + 2]
        _, rec.planes = embed_shot_full(clip.frames[start:end], planes, params)
    full = io.StringIO()
    write_key(bundle, full)
    assert local.getvalue() == full.getvalue()
