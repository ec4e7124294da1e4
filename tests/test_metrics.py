import math

import numpy as np
import pytest

from oracles import psnr_frames_float
from wm3d.media_io import VideoClip
from wm3d.metrics import _squared_error, nc, psnr, psnr_clip


def test_nc_identical_is_unity():
    w = np.random.RandomState(0).randint(0, 256, (8, 8)).astype(np.uint8)
    assert nc(w, w) == pytest.approx(1.0)


def test_nc_zero_extracted():
    w = np.full((4, 4), 9, np.uint8)
    assert nc(w, np.zeros((4, 4), np.uint8)) == 0.0


def test_nc_halved_extracted():
    w = (np.random.RandomState(1).randint(0, 128, (6, 6)) * 2).astype(np.uint8)
    assert nc(w, w // 2) == pytest.approx(0.5)


def test_nc_linearity():
    rs = np.random.RandomState(2)
    w = rs.rand(5, 5) * 255
    x, y = rs.rand(5, 5) * 255, rs.rand(5, 5) * 255
    a, b = 0.3, 1.7
    assert nc(w, a * x + b * y) == pytest.approx(a * nc(w, x) + b * nc(w, y))


def test_nc_errors():
    with pytest.raises(ValueError, match="mismatch"):
        nc(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="all-zero"):
        nc(np.zeros((2, 2)), np.ones((2, 2)))


def test_psnr_identical_infinite():
    a = np.random.RandomState(3).randint(0, 256, (8, 8)).astype(np.uint8)
    assert math.isinf(psnr(a, a))


def test_psnr_unit_difference():
    a = np.zeros((16, 16), np.uint8)
    b = np.ones((16, 16), np.uint8)
    assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)


def test_psnr_full_scale_difference():
    a = np.zeros((4, 4), np.uint8)
    b = np.full((4, 4), 255, np.uint8)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_symmetric_and_monotone():
    rs = np.random.RandomState(4)
    a = rs.randint(0, 200, (8, 8)).astype(np.uint8)
    assert psnr(a, a + 5) == pytest.approx(psnr(a + 5, a))
    assert psnr(a, a + 1) > psnr(a, a + 2) > psnr(a, a + 10)


def test_psnr_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))


def test_psnr_clip_identical():
    clip = VideoClip(frames=[np.full((4, 4), 77, np.uint8)] * 3)
    report = psnr_clip(clip, clip)
    assert all(math.isinf(v) for v in report.psnr_per_frame)
    assert math.isinf(report.psnr_mean)


def test_psnr_clip_one_differing_frame():
    frames = [np.zeros((4, 4), np.uint8) for _ in range(3)]
    other = [f.copy() for f in frames]
    other[1] = np.ones((4, 4), np.uint8)
    report = psnr_clip(VideoClip(frames=frames), VideoClip(frames=other))
    finite = [v for v in report.psnr_per_frame if math.isfinite(v)]
    assert len(finite) == 1
    assert report.psnr_mean == pytest.approx(finite[0])


def test_psnr_clip_matches_bruteforce():
    rs = np.random.RandomState(5)
    a = VideoClip(frames=[rs.randint(0, 256, (6, 5)).astype(np.uint8) for _ in range(3)])
    b = VideoClip(frames=[rs.randint(0, 256, (6, 5)).astype(np.uint8) for _ in range(3)])
    report = psnr_clip(a, b)
    for fa, fb, got in zip(a.frames, b.frames, report.psnr_per_frame):
        total = 0.0
        for i in range(6):
            for j in range(5):
                d = float(fa[i, j]) - float(fb[i, j])
                total += d * d
        expected = 20.0 * math.log10(255.0 / math.sqrt(total / 30.0))
        assert got == pytest.approx(expected, rel=1e-12)


def test_psnr_clip_count_mismatch():
    a = VideoClip(frames=[np.zeros((2, 2), np.uint8)] * 2)
    b = VideoClip(frames=[np.zeros((2, 2), np.uint8)] * 3)
    with pytest.raises(ValueError, match="count"):
        psnr_clip(a, b)


def test_psnr_clip_empty_clips_rejected():
    with pytest.raises(ValueError, match="empty clip"):
        psnr_clip(VideoClip(frames=[]), VideoClip(frames=[]))
    no_pixels = VideoClip(frames=[np.zeros((0, 0), np.uint8)] * 3)
    with pytest.raises(ValueError, match="empty clip"):
        psnr_clip(no_pixels, no_pixels)


def test_psnr_clip_rejects_non_uint8_frames():
    # 49 dB apart; an int cast of one side only would make them equal
    a = VideoClip(frames=[np.full((4, 4), 10.9)])
    b = VideoClip(frames=[np.full((4, 4), 10.0)])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="uint8"):
            psnr_clip(x, y)


def _checker(h, w):
    return (np.indices((h, w)).sum(axis=0) % 2 * 255).astype(np.uint8)


def _psnr_cases():
    rs = np.random.RandomState(7)
    zero, full = np.zeros((16, 16), np.uint8), np.full((16, 16), 255, np.uint8)
    checker = _checker(16, 16)
    return {
        "seeded": [tuple(rs.randint(0, 256, (2, 36, 52)).astype(np.uint8)) for _ in range(4)],
        "extremes": [(zero, full), (checker, 255 - checker), (checker, zero), (full, full)],
        "8-wide": [(_checker(64, 8), np.full((64, 8), 3, np.uint8))],
    }


@pytest.mark.parametrize("case", sorted(_psnr_cases()))
def test_psnr_clip_equals_float_oracle(case):
    pairs = _psnr_cases()[case]
    a = VideoClip(frames=[x for x, _ in pairs])
    b = VideoClip(frames=[y for _, y in pairs])
    want = psnr_frames_float(a.frames, b.frames)
    assert psnr_clip(a, b).psnr_per_frame == want
    assert psnr_clip(b, a).psnr_per_frame == want


@pytest.mark.parametrize("width", [66051, 66052, 200003])
def test_squared_error_is_exact_at_any_width(width):
    # 0 against 255 everywhere: a uint32 row sum overflows past 66051 columns
    a = np.zeros((2, width), np.uint8)
    b = np.full((2, width), 255, np.uint8)
    assert _squared_error(a, b) == 2 * width * 255**2
    assert psnr_clip(VideoClip(frames=[a]), VideoClip(frames=[b])).psnr_per_frame == [0.0]


def test_psnr_clip_dim_mismatch():
    # (1, 4) against (3, 4) would broadcast if the shapes went unchecked
    a = VideoClip(frames=[np.zeros((1, 4), np.uint8)])
    b = VideoClip(frames=[np.zeros((3, 4), np.uint8)])
    with pytest.raises(ValueError, match="mismatch"):
        psnr_clip(a, b)


def test_psnr_clip_equals_psnr_per_frame():
    rs = np.random.RandomState(6)
    a = VideoClip(frames=[rs.randint(0, 256, (48, 64)).astype(np.uint8) for _ in range(4)])
    near = [
        np.clip(f.astype(np.int32) + rs.randint(-3, 4, f.shape), 0, 255).astype(np.uint8)
        for f in a.frames
    ]
    far = [rs.randint(0, 256, (48, 64)).astype(np.uint8) for _ in range(4)]
    for frames in (near, far, [f.copy() for f in a.frames]):
        b = VideoClip(frames=frames)
        report = psnr_clip(a, b)
        assert report.psnr_per_frame == [psnr(fa, fb) for fa, fb in zip(a.frames, b.frames)]
