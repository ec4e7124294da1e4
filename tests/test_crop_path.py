"""The crop-based embed and extract paths against the whole-frame oracle.

Coefficients and realized signs must be bit-identical. Pixels may
differ only at rounding ties: where the whole-frame value before
rounding lies within 1e-9 of k + 0.5, and then by one level.
"""

import io

import numpy as np
import pytest

from conftest import SEED1, SEED2, SEED3, make_flat_noise_clip
from oracles import (
    embed_shot_full,
    extract_planes_full,
    spatial_forward3,
    temporal_forward_stacked,
)
from wm3d.embed import (
    EmbedParams,
    _crop_coeffs,
    _window_crop,
    embed_clip,
    embed_shot,
    prepare_sign_planes,
)
from wm3d.extract import extract_shot
from wm3d.keyfile import write_key
from wm3d.media_io import quantize_luma
from wm3d.wavelet3d import BANDS, subband_rect

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
# are 24, 40 and 72 rows high, none a multiple of the 16-row strips
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
    r0, c0, wm_h, wm_w = STRIP_WINDOWS[window]
    params = EmbedParams(region_row0=r0, region_col0=c0, band=band)
    rs = np.random.RandomState(100 + n)
    frames = list(rs.randint(0, 256, (n, 72, 48)).astype(np.uint8))
    crop, _ = _window_crop(params, 72, 48, wm_h, wm_w)

    whole = spatial_forward3(temporal_forward_stacked([f[crop] for f in frames]))[1:9]
    want = whole[(slice(None), *subband_rect(*whole.shape[1:], band).slices())]
    got = _crop_coeffs(frames, crop, band)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
