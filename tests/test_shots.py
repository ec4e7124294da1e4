import io
import math
import tracemalloc

import numpy as np
import pytest

from oracles import MASK64, SplitMix64, histogram_distance
from wm3d.errors import GeometryError
from wm3d.media_io import VideoClip, write_video
from wm3d.shots import (
    DEFAULT_THRESHOLD,
    HIST_BINS,
    _histogram,
    detect_shots,
    select_shots,
    shot_spans,
)


def _flat(value, n, h=8, w=8):
    return [np.full((h, w), value, np.uint8) for _ in range(n)]


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 7), (2, 3), (8, 8), (288, 352)])
def test_pair_histogram_equals_plain_bincount(shape):
    # odd sizes take the plain path, even ones count two pixels a time
    frame = np.random.RandomState(shape[1]).randint(0, 256, shape).astype(np.uint8)
    want = np.bincount((frame >> 2).ravel(), minlength=HIST_BINS)
    got = _histogram(frame)
    assert got.shape == (HIST_BINS,) and np.array_equal(got, want)


@pytest.mark.parametrize("size", [256, 257])
def test_pair_histogram_counts_all_256_values(size):
    # every value next to every position parity, and each alone
    values = np.arange(size, dtype=np.uint16) % 256
    for frame in (values, values[::-1], np.repeat(values, 2)[:size]):
        frame = frame.astype(np.uint8).reshape(1, -1)
        assert np.array_equal(
            _histogram(frame), np.bincount((frame >> 2).ravel(), minlength=HIST_BINS)
        )
    for v in range(256):
        frame = np.full((2, 2), v, np.uint8)
        assert _histogram(frame)[v >> 2] == 4 and _histogram(frame).sum() == 4


def test_identical_frames_single_shot():
    clip = VideoClip(frames=_flat(100, 12))
    assert detect_shots(clip) == [0, 12]


def test_black_then_white_cut():
    clip = VideoClip(frames=_flat(0, 10) + _flat(255, 10))
    assert detect_shots(clip) == [0, 10, 20]


def test_gradual_fade_stays_one_shot():
    # Ramp image brightened by 1 per frame: only ~1/4 of the mass moves
    # one 4-wide histogram bin per step, so D(k) = 0.25 < threshold.
    ramp = np.tile(np.arange(128, dtype=np.uint8), (16, 1))
    frames = [(ramp + k).astype(np.uint8) for k in range(24)]
    clip = VideoClip(frames=frames)
    dmax = max(
        histogram_distance(frames[k], frames[k - 1]) for k in range(1, 24)
    )
    assert dmax < DEFAULT_THRESHOLD
    assert detect_shots(clip) == [0, 24]


def test_histogram_distance_extremes():
    a = np.zeros((8, 8), np.uint8)
    assert histogram_distance(a, a) == 0.0
    assert histogram_distance(a, np.full((8, 8), 255, np.uint8)) == 1.0


def test_detect_matches_pairwise_distances():
    rs = np.random.RandomState(4)
    frames = [
        np.clip(rs.randint(0, 256) + 30 * rs.randn(16, 16), 0, 255).astype(np.uint8)
        for _ in range(40)
    ]
    clip = VideoClip(frames=frames)
    counts = set()
    for threshold in (0.1, DEFAULT_THRESHOLD, 0.6, 0.9):
        expected = [0] + [
            k
            for k in range(1, 40)
            if histogram_distance(frames[k], frames[k - 1]) > threshold
        ] + [40]
        assert detect_shots(clip, threshold) == expected
        counts.add(len(expected))
    assert len(counts) > 2  # the thresholds split the clip differently


def test_detect_threshold_validation():
    clip = VideoClip(frames=_flat(0, 2))
    with pytest.raises(ValueError):
        detect_shots(clip, threshold=0.0)
    with pytest.raises(ValueError):
        detect_shots(clip, threshold=1.5)


def test_shots_partition_frame_range():
    clip = VideoClip(frames=_flat(0, 5) + _flat(255, 5) + _flat(0, 5))
    boundaries = detect_shots(clip)
    spans = shot_spans(boundaries)
    assert spans[0][0] == 0 and spans[-1][1] == 15
    assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))


def test_select_all_when_fraction_one():
    boundaries = [0, 10, 25, 40]
    assert select_shots(boundaries, seed3=1) == [0, 1, 2]
    assert select_shots(boundaries, seed3=999) == [0, 1, 2]


def test_select_single_shot_half_fraction():
    assert select_shots([0, 16], seed3=4, fraction=0.5) == [0]


def test_select_deterministic():
    boundaries = [0, 12, 30, 46, 60]
    a = select_shots(boundaries, seed3=77, fraction=0.5)
    b = select_shots(boundaries, seed3=77, fraction=0.5)
    assert a == b and len(a) == 2


def test_select_skips_short_shots():
    # middle shot has 4 frames, below the embeddable minimum of 9
    assert select_shots([0, 10, 14, 26], seed3=3) == [0, 2]


def test_select_no_eligible_shot():
    with pytest.raises(GeometryError, match="no shot"):
        select_shots([0, 4, 8], seed3=1)


def test_select_fraction_validation():
    with pytest.raises(ValueError):
        select_shots([0, 16], seed3=1, fraction=0.0)


@pytest.mark.parametrize("seed3", [0, 1, 2**63, 2**64 - 1, -1])
def test_select_ranks_by_sequential_splitmix64(seed3):
    # shot i ranks by the first output of the sequential generator seeded
    # (seed3 XOR i) mod 2**64, so seed3 -1 ranks as 2**64 - 1 does
    lengths = [(3 + 5 * i) % 17 + 1 for i in range(30)]  # 1..17, half of them eligible
    boundaries = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    eligible = [i for i, n in enumerate(lengths) if n >= 9]
    ranked = sorted(eligible, key=lambda i: SplitMix64((seed3 ^ i) & MASK64).next_u64())
    for fraction in (1.0, 0.5, 0.2):
        count = math.ceil(fraction * len(eligible))
        assert select_shots(boundaries, seed3, fraction) == sorted(ranked[:count])


def _cut_clip(n=48, h=32, w=48):
    """Three shots of noise around 40, 140 and 220, with 4:2:0 chroma."""
    rs = np.random.RandomState(3)
    levels = [40] * (n // 3) + [140] * (n // 3) + [220] * (n - 2 * (n // 3))
    frames = [rs.randint(v - 30, v + 30, (h, w)).astype(np.uint8) for v in levels]
    return VideoClip(frames, chroma_token="420jpeg",
                     chroma=[rs.bytes(h * w // 2) for _ in range(n)])


def test_detect_shots_takes_every_source_form(tmp_path):
    clip = _cut_clip()
    want = detect_shots(clip)
    assert want == [0, 16, 32, 48]
    write_video(clip, tmp_path / "in.y4m")
    write_video(clip, tmp_path / "frames")
    with open(tmp_path / "in.y4m", "rb") as stream:
        from_stream = detect_shots(stream, DEFAULT_THRESHOLD)
    assert from_stream == want
    assert detect_shots(tmp_path / "in.y4m") == want
    assert detect_shots(str(tmp_path / "frames")) == want


def test_detect_shots_holds_no_clip():
    # 7 MB of y4m read frame by frame: a frame and two histograms are
    # held (0.4 MB), not the clip
    clip = _cut_clip(n=96, h=192, w=256)
    stream = io.BytesIO()
    write_video(clip, stream)
    stream.seek(0)
    tracemalloc.start()
    try:
        found = detect_shots(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [0, 32, 64, 96]
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"
