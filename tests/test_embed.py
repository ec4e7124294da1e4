import dataclasses
import hashlib
import io
import warnings

import numpy as np
import pytest

from conftest import SEED1, SEED2, SEED3, make_noise_clip
from oracles import embed_plane, neighbor_max, quantize_luma, spread_sign
from wm3d.embed import (
    EmbedParams,
    _window_margins,
    _window_crop,
    embed_clip,
    embed_shot,
)
from wm3d.errors import GeometryError
from wm3d.keyfile import write_key
from wm3d.media_io import VideoClip
from wm3d.metrics import psnr
from wm3d.wavelet3d import subband_rect
from wm3d.wmprep import prepare_sign_planes


def _frame16(values=None):
    """16x16 frame whose LH3 subband is rows [2,4) x cols [0,2)."""
    frame = np.zeros((16, 16))
    if values is not None:
        frame[2:4, 0:2] = values
    return frame


RECT16 = subband_rect(16, 16, "lh3")


def test_neighbor_max_interior():
    frame = np.zeros((32, 32))
    rect = subband_rect(32, 32, "lh3")  # rows [4,8) x cols [0,4)
    frame[4:7, 0:3] = [[1, 2, 3], [4, 0, 5], [6, 7, 8]]
    assert neighbor_max(frame, rect, 5, 1) == 8.0


def test_neighbor_max_corner_clips_to_rect():
    frame = np.zeros((16, 16))
    # values adjacent to the corner but outside the subband must not leak in
    frame[1, 0] = 99.0
    frame[2:4, 0:2] = [[0, 3], [5, 7]]
    assert neighbor_max(frame, RECT16, 2, 0) == 7.0


def test_neighbor_max_position_validation():
    with pytest.raises(ValueError, match="outside"):
        neighbor_max(np.zeros((16, 16)), RECT16, 0, 0)


def test_neighbor_max_exhaustive_oracle():
    rs = np.random.RandomState(10)
    frame = rs.randn(48, 48) * 10
    rect = subband_rect(48, 48, "lh3")  # 6x6 region
    for i in range(rect.row0, rect.row0 + rect.rows):
        for j in range(rect.col0, rect.col0 + rect.cols):
            best = max(
                frame[r, c]
                for r in range(max(i - 1, rect.row0), min(i + 2, rect.row0 + rect.rows))
                for c in range(max(j - 1, rect.col0), min(j + 2, rect.col0 + rect.cols))
                if (r, c) != (i, j)
            )
            assert neighbor_max(frame, rect, i, j) == pytest.approx(best)

    # the margins t - r of int64 regions full of ties, one row or one
    # column, and a leading plane axis, over the whole region, against a
    # brute-force max; every position has a neighbor
    for shape in [(5, 6), (1, 7), (7, 1), (1, 2), (3, 5, 6), (2, 1, 4)]:
        region = rs.randint(-2, 2, shape).astype(np.int64)
        want = np.empty(shape, dtype=np.int64)
        for *lead, i, j in np.ndindex(*shape):
            want[(*lead, i, j)] = max(
                region[(*lead, r, c)]
                for r in range(max(i - 1, 0), min(i + 2, shape[-2]))
                for c in range(max(j - 1, 0), min(j + 2, shape[-1]))
                if (r, c) != (i, j)
            ) - region[(*lead, i, j)]
        got = _window_margins(region, (slice(0, shape[-2]), slice(0, shape[-1])))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_spread_sign_truth_table():
    assert spread_sign(20.0, 10.0, 1) == 1
    assert spread_sign(5.0, 10.0, -1) == 1
    assert spread_sign(20.0, 10.0, -1) == -1
    assert spread_sign(5.0, 10.0, 1) == -1
    assert spread_sign(10.0, 10.0, 1) == -1  # tie falls to the else branch
    assert spread_sign(10.0, 10.0, -1) == -1


def test_embed_plane_worked_example():
    frame = _frame16([[10.0, 20.0], [0.0, 0.0]])
    params = EmbedParams(alpha=0.1)

    out, realized = embed_plane(frame, np.array([[1]]), params)
    assert realized[0, 0] == 1
    assert out[2, 0] == pytest.approx(11.0)

    out, realized = embed_plane(frame, np.array([[-1]]), params)
    assert realized[0, 0] == -1
    assert out[2, 0] == pytest.approx(9.0)


def test_embed_plane_zero_coefficient_inert():
    frame = _frame16([[0.0, 5.0], [0.0, 0.0]])
    out, realized = embed_plane(frame, np.array([[1]]), EmbedParams(alpha=0.1))
    assert realized[0, 0] == 1
    assert out[2, 0] == 0.0


def test_embed_plane_magnitude_rule():
    rs = np.random.RandomState(11)
    frame = rs.randn(32, 32) * 20
    wd = np.where(rs.rand(4, 4) < 0.5, 1, -1).astype(np.int8)
    params = EmbedParams(alpha=0.25)
    out, realized = embed_plane(frame, wd, params)
    rect = params.rect_for(32, 32)
    before = np.abs(frame[rect.slices()][0:4, 0:4])
    after = np.abs(out[rect.slices()][0:4, 0:4])
    ratio = np.where(before > 0, after / np.where(before > 0, before, 1), 1.0)
    assert np.all(np.isin(np.round(ratio, 12), [0.75, 1.0, 1.25]))


def test_embed_plane_locality():
    rs = np.random.RandomState(12)
    frame = rs.randn(32, 32)
    params = EmbedParams(alpha=0.1, region_row0=1, region_col0=1)
    out, _ = embed_plane(frame, np.ones((2, 2), np.int8), params)
    rect = params.rect_for(32, 32)
    touched = np.zeros((32, 32), bool)
    touched[rect.row0 + 1 : rect.row0 + 3, rect.col0 + 1 : rect.col0 + 3] = True
    assert np.array_equal(out[~touched], frame[~touched])


def test_embed_plane_snapshot_semantics():
    # (2,1)'s neighborhood max is the coefficient at (2,0), which the
    # plane also modifies; the realized sign must use the pre-update value.
    frame = _frame16([[10.0, 9.5], [0.0, 0.0]])
    wd = np.array([[-1, 1], [1, 1]], np.int8)
    out, realized = embed_plane(frame, wd, EmbedParams(alpha=0.1))
    # position (2,1): t = 10 (from original (2,0)), r = 9.5, wd = +1 -> +1
    assert realized[0, 1] == 1
    assert out[2, 1] == pytest.approx(9.5 * 1.1)
    # sequential processing would have seen (2,0) already shrunk to 9.0
    # and flipped the realized sign; guard against that regression
    assert not (9.0 > 9.5 and realized[0, 1] == 1)


def test_window_crop_capacity_error_cites_dims():
    # _window_crop holds the one capacity check that embed and extract run
    with pytest.raises(GeometryError, match="17x16.*16x16|watermark"):
        _window_crop(EmbedParams(), 128, 128, 16, 17)
    with pytest.raises(GeometryError, match="does not fit"):
        _window_crop(EmbedParams(region_row0=1), 128, 128, 16, 16)


def test_embed_params_validation():
    with pytest.raises(ValueError):
        EmbedParams(alpha=1.0)
    with pytest.raises(ValueError):
        EmbedParams(alpha=-0.1)
    with pytest.raises(ValueError):
        EmbedParams(band="xx3")
    for alpha in ("0.1", None, 0.1 + 0j):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            EmbedParams(alpha=alpha)
    with pytest.raises(ValueError, match="alpha True outside"):
        EmbedParams(alpha=True)
    EmbedParams(alpha=0.0)  # degenerate strength is allowed
    EmbedParams(alpha=False)


def test_embed_params_are_frozen():
    # a field set after the rules ran would reach embed_shot unchecked;
    # a changed copy is built, so it is checked
    params = EmbedParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.alpha = 40.0
    assert params.alpha == 0.1
    with pytest.raises(ValueError, match=r"alpha 1\.0 outside"):
        dataclasses.replace(params, alpha=1.0)


def test_embed_params_is_one_class_on_every_import_path():
    import wm3d
    import wm3d.keyfile

    assert wm3d.EmbedParams is EmbedParams is wm3d.keyfile.EmbedParams


def test_embed_shot_too_short():
    frames = [np.zeros((16, 16), np.uint8)] * 8
    planes = np.ones((8, 1, 1), np.int8)
    with pytest.raises(GeometryError, match="too short"):
        embed_shot(frames, planes, EmbedParams())


def test_embed_shot_static_shot_unchanged():
    # Static shot: every temporal detail coefficient is exactly zero, so
    # the multiplicative update has nothing to bite on and the DC frame
    # must stay untouched.
    rs = np.random.RandomState(13)
    frame = rs.randint(0, 256, (16, 16)).astype(np.uint8)
    frames = [frame.copy() for _ in range(16)]
    out, realized = embed_shot(frames, np.ones((8, 2, 2), np.int8), EmbedParams())
    assert all(np.array_equal(f, frame) for f in out)
    assert realized.shape == (8, 2, 2)


def test_embed_shot_changes_only_the_windows_blocks():
    # the halo on all four sides is read for the neighbor max, but no
    # pixel outside the window's 8x8 blocks moves
    clip = make_noise_clip(n=16)
    wm = np.random.RandomState(16).randint(0, 256, (4, 5)).astype(np.uint8)
    planes = prepare_sign_planes(wm, SEED1, SEED2)
    params = EmbedParams(alpha=0.3, region_row0=3, region_col0=2, band="hl3")
    crop, win = _window_crop(params, 128, 128, 4, 5)
    h, w = ((c.stop - c.start) // 8 for c in crop)
    assert [(s.start, s.stop) for s in win] == [(1, h - 1), (1, w - 1)]
    out, _ = embed_shot(clip.frames, planes, params)
    blocks = np.zeros((128, 128), bool)
    blocks[8 * 3 : 8 * 7, 8 * 2 : 8 * 7] = True
    for before, after in zip(clip.frames, out):
        np.testing.assert_array_equal(after[~blocks], before[~blocks])
    assert any(not np.array_equal(a[blocks], b[blocks]) for a, b in zip(out, clip.frames))


def test_embed_shot_alpha_zero_identity():
    clip = make_noise_clip(n=16)
    planes = prepare_sign_planes(
        np.random.RandomState(14).randint(0, 256, (16, 16)).astype(np.uint8),
        SEED1,
        SEED2,
    )
    out, _ = embed_shot(clip.frames, planes, EmbedParams(alpha=0.0))
    assert all(np.array_equal(a, b) for a, b in zip(out, clip.frames))


def test_embed_shot_psnr_floor():
    clip = make_noise_clip(n=16)
    wm = np.random.RandomState(15).randint(0, 256, (16, 16)).astype(np.uint8)
    planes = prepare_sign_planes(wm, SEED1, SEED2)
    out, _ = embed_shot(clip.frames, planes, EmbedParams(alpha=0.1))
    for a, b in zip(clip.frames, out):
        assert psnr(a, b) >= 35.0


def test_embed_clip_capacity_16_in_128():
    clip = make_noise_clip(n=16)
    ok = np.random.RandomState(16).randint(0, 256, (16, 16)).astype(np.uint8)
    embed_clip(clip, ok, SEED1, SEED2, SEED3)  # fits exactly
    with pytest.raises(GeometryError, match="does not fit"):
        embed_clip(clip, np.zeros((17, 16), np.uint8), SEED1, SEED2, SEED3)


def test_embed_clip_rejects_oversized_watermark_cif():
    # a 42x42 watermark cannot fit the 36-row lh3 band of a CIF frame
    frames = [np.full((288, 352), 128, np.uint8)] * 9
    clip = VideoClip(frames=frames)
    with pytest.raises(GeometryError, match="42x42"):
        embed_clip(clip, np.zeros((42, 42), np.uint8), SEED1, SEED2, SEED3)


def test_embed_clip_rejects_bad_frame_dims():
    clip = VideoClip(frames=[np.zeros((20, 20), np.uint8)] * 9)
    with pytest.raises(GeometryError, match="divisible by 8"):
        embed_clip(clip, np.zeros((2, 2), np.uint8), SEED1, SEED2, SEED3)


def test_embed_clip_empty_clip_rejected(watermark):
    with pytest.raises(ValueError, match="empty clip"):
        embed_clip(VideoClip(frames=[]), watermark, SEED1, SEED2, SEED3)


def test_embed_clip_deterministic(watermark):
    clip = make_noise_clip(n=16)
    a, _ = embed_clip(clip, watermark, SEED1, SEED2, SEED3)
    b, _ = embed_clip(clip, watermark, SEED1, SEED2, SEED3)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))


def test_embed_clip_unselected_shots_untouched(watermark):
    noise = make_noise_clip(n=32)
    # force two shots, select half of them
    marked, bundle = embed_clip(
        noise,
        watermark,
        SEED1,
        SEED2,
        SEED3,
        boundaries=[0, 16, 32],
        fraction=0.5,
    )
    assert len(bundle.selected) == 1
    (sel,) = bundle.selected
    other = 1 - sel
    start, end = (0, 16) if other == 0 else (16, 32)
    for k in range(start, end):
        assert np.array_equal(marked.frames[k], noise.frames[k])
    s0, s1 = (0, 16) if sel == 0 else (16, 32)
    assert any(
        not np.array_equal(marked.frames[k], noise.frames[k]) for k in range(s0, s1)
    )


def test_embed_clip_seed_validation(watermark):
    clip = make_noise_clip(n=16)
    with pytest.raises(ValueError, match="seed1"):
        embed_clip(clip, watermark, -1, SEED2, SEED3)


# sha256 of the key file and of the marked luma of the embed below.
# Realized signs come from exact comparisons, and each pixel change from
# exact integer sums times alpha / 64, one rounding, so neither depends
# on float order or BLAS: a change that moves a pin changes the scheme
# on purpose.
GOLDEN_KEY_SHA256 = "44ed2ebc0ca693aa7e4efb92d78e4f784d8e7abc080c12a8ac004eaac811998e"
GOLDEN_LUMA_SHA256 = "f6370e81ee989f57b7c6db59813674f743803d993db961d08171dca28cbd6ea7"


def test_golden_key_bytes():
    rs = np.random.RandomState(2718)
    frames = [quantize_luma(128.0 + 50.0 * rs.randn(64, 64)) for _ in range(46)]
    wm = rs.randint(0, 256, (6, 7)).astype(np.uint8)
    params = EmbedParams(alpha=0.1, region_row0=1, region_col0=0, band="lh3")
    marked, bundle = embed_clip(
        VideoClip(frames=frames), wm, 11, 22, 33, params=params,
        boundaries=[0, 9, 25, 46],  # shots of 9, 16 and 21 frames
    )
    key = io.StringIO()
    write_key(bundle, key)
    assert hashlib.sha256(key.getvalue().encode("ascii")).hexdigest() == GOLDEN_KEY_SHA256
    luma = np.stack(marked.frames)
    assert luma.dtype == np.uint8
    assert hashlib.sha256(luma.tobytes()).hexdigest() == GOLDEN_LUMA_SHA256


@pytest.mark.parametrize("value", [np.nan, 7.5, -1, 256])
def test_embed_clip_rejects_watermark_values_that_are_not_bytes(value):
    # refused before any cast, so NaN raises no RuntimeWarning on the way
    clip = make_noise_clip(n=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
            embed_clip(clip, np.full((4, 4), value), SEED1, SEED2, SEED3)


def test_integral_watermark_of_any_real_dtype_writes_the_same_key(watermark):
    clip = make_noise_clip(n=16)
    keys = set()
    for dtype in (np.uint8, np.int64, np.float64):
        _, bundle = embed_clip(clip, watermark.astype(dtype), SEED1, SEED2, SEED3)
        sink = io.StringIO()
        write_key(bundle, sink)
        keys.add(sink.getvalue())
    assert len(keys) == 1
