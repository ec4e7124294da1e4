import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest

from conftest import SEED1, SEED2, SEED3, make_flat_noise_clip
from oracles import embed_plane, extract_plane, quantize_luma
from wm3d.embed import EmbedParams, embed_clip
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_clip, extract_video
from wm3d.keyfile import KeyBundle, ShotRecord
from wm3d.media_io import VideoClip, write_video
from wm3d.metrics import nc


def _frame16(values):
    frame = np.zeros((16, 16))
    frame[2:4, 0:2] = values  # LH3 subband of a 16x16 frame
    return frame


def test_extract_plane_truth_table():
    params = EmbedParams()
    # t' = 20 (neighbor), r' = 11, key +1 -> +1 (matches the embed example)
    frame = _frame16([[11.0, 20.0], [0.0, 0.0]])
    assert extract_plane(frame, np.array([[1]]), params)[0, 0] == 1
    assert extract_plane(frame, np.array([[-1]]), params)[0, 0] == -1
    # t' = 5 < r' = 9: key -1 -> +1, key +1 -> -1
    frame = _frame16([[9.0, 5.0], [0.0, 0.0]])
    assert extract_plane(frame, np.array([[-1]]), params)[0, 0] == 1
    assert extract_plane(frame, np.array([[1]]), params)[0, 0] == -1
    # tie t' = r' = 11 -> -1 for any key
    frame = _frame16([[11.0, 11.0], [0.0, 0.0]])
    assert extract_plane(frame, np.array([[1]]), params)[0, 0] == -1
    assert extract_plane(frame, np.array([[-1]]), params)[0, 0] == -1


def test_embed_then_extract_plane_self_consistent():
    # Sparse 1x1 watermark: neighbors are untouched by the embedding, the
    # coefficient is nonzero and the gap exceeds the multiplicative step,
    # so recovery at the coefficient level is exact for both signs.
    params = EmbedParams(alpha=0.1)
    for wd in (1, -1):
        frame = _frame16([[10.0, 20.0], [3.0, -4.0]])
        marked, realized = embed_plane(frame, np.array([[wd]], np.int8), params)
        recovered = extract_plane(marked, realized.reshape(1, 1), params)
        assert recovered[0, 0] == wd


def test_no_attack_nc_floor(embedded, watermark):
    for name, run in embedded.items():
        assert run.nc0 >= 0.95, f"{name}: no-attack NC {run.nc0:.4f}"


def test_extract_deterministic(embedded, watermark):
    run = embedded["noise"]
    a = extract_clip(run.marked, run.bundle, watermark)
    b = extract_clip(run.marked, run.bundle, watermark)
    assert a.nc == b.nc
    assert np.array_equal(a.watermark, b.watermark)


def _gray_clip(n=64, h=128, w=128):
    return VideoClip(frames=[np.full((h, w), 128, np.uint8)] * n)


def _synthetic_bundle(seed1, seed2):
    planes = np.ones((8, 16, 16), np.int8)
    return KeyBundle(seed1, seed2, 0, EmbedParams(), (0, 64), [ShotRecord(0, planes)])


def test_destroyed_watermark_near_chance(embedded, watermark):
    gray = _gray_clip()
    run = embedded["gradient"]
    assert extract_clip(gray, run.bundle, watermark).nc < 0.6
    # Chance level is a property of the keys alone; the 20-seed baseline
    # must sit below 0.6 (single draws scatter around ~0.51 with sigma
    # ~0.03, so they get a looser individual bound).
    values = [
        extract_clip(gray, _synthetic_bundle(1000 + s, 2000 + s), watermark).nc
        for s in range(20)
    ]
    assert sum(values) / len(values) < 0.6
    assert max(values) < 0.65


def test_wrong_permutation_key_scrambles(embedded, watermark):
    run = embedded["gradient"]
    for wrong in (999, 4242, 31337):
        bad = dataclasses.replace(run.bundle, seed1=wrong, records=run.bundle.records)
        assert extract_clip(run.marked, bad, watermark).nc < 0.6


def test_single_shot_aggregate_is_that_shot(embedded, watermark):
    run = embedded["noise"]
    result = extract_clip(run.marked, run.bundle, watermark)
    assert len(result.shots) == 1
    assert np.array_equal(result.watermark, result.shots[0].watermark)
    assert result.shots[0].shot_index == 0
    assert not result.shots[0].length_mismatch


def _three_shot_run(watermark):
    parts = [
        make_flat_noise_clip(16, mean, seed=50 + i)
        for i, mean in enumerate((96.0, 128.0, 176.0))
    ]
    frames = [f for p in parts for f in p.frames]
    clip = VideoClip(frames=frames)
    marked, bundle = embed_clip(
        clip, watermark, SEED1, SEED2, SEED3, boundaries=[0, 16, 32, 48]
    )
    assert bundle.selected == (0, 1, 2)
    return marked, bundle


def test_majority_vote_beats_single_corrupted_shot(watermark):
    marked, bundle = _three_shot_run(watermark)
    rs = np.random.RandomState(60)
    frames = list(marked.frames)
    for k in range(16, 32):  # destroy the middle shot
        frames[k] = quantize_luma(frames[k].astype(float) + 80.0 * rs.randn(128, 128))
    attacked = VideoClip(frames=frames)
    result = extract_clip(attacked, bundle, watermark)
    singles = [s.nc for s in result.shots]
    assert result.nc >= max(singles) - 0.02


def test_identical_shots_agree_with_aggregate(watermark):
    marked, bundle = _three_shot_run(watermark)
    result = extract_clip(marked, bundle, watermark)
    votes_all_same = all(
        np.array_equal(result.shots[0].bitplanes, s.bitplanes)
        for s in result.shots[1:]
    )
    if votes_all_same:  # then the aggregate must equal any one of them
        assert np.array_equal(result.watermark, result.shots[0].watermark)
    # either way the vote cannot underperform every shot badly
    assert result.nc >= min(s.nc for s in result.shots) - 1e-9


def test_extract_clip_rejects_records_out_of_shot_order(watermark):
    # frames are taken in order, so the records must be too
    marked, bundle = _three_shot_run(watermark)
    bundle.records.reverse()
    with pytest.raises(FormatError, match="sorted and unique"):
        extract_clip(marked, bundle, watermark)


def test_length_mismatch_repair(embedded, watermark):
    run = embedded["noise"]
    shortened = VideoClip(frames=run.marked.frames[:-3])
    result = extract_clip(shortened, run.bundle, watermark)
    assert result.shots[0].length_mismatch
    assert result.nc > 0.5  # watermark still largely recoverable


@pytest.mark.parametrize("n", [9, 16, 21, 33])
def test_length_repair_equals_explicit_padding(n):
    # missing frames are folded onto the last one received, in closed
    # form: bit-identical to extracting the shot padded by repetition
    rs = np.random.RandomState(n)
    frames = list(rs.randint(0, 256, (n, 64, 64)).astype(np.uint8))
    planes = np.where(rs.rand(8, 4, 5) < 0.5, 1, -1).astype(np.int8)
    params = EmbedParams(region_row0=1, region_col0=2, band="hl3")
    bundle = KeyBundle(SEED1, SEED2, 0, params, (0, n), [ShotRecord(0, planes)])
    for received in range(1, n):
        short = frames[:received]
        padded = short + [short[-1]] * (n - received)
        got = extract_video(VideoClip(short), bundle).shots[0]
        want = extract_video(VideoClip(padded), bundle).shots[0]
        assert got.length_mismatch and not want.length_mismatch
        assert np.array_equal(got.bitplanes, want.bitplanes)


def test_length_repair_memory_follows_the_received_frames():
    # 16 frames against a key claiming one shot of 2**20 + 1 frames
    rs = np.random.RandomState(5)
    frames = list(rs.randint(0, 256, (16, 128, 128)).astype(np.uint8))
    bundle = _synthetic_bundle(SEED1, SEED2)
    bundle = dataclasses.replace(bundle, boundaries=(0, 2**20 + 1))
    tracemalloc.start()
    try:
        result = extract_video(VideoClip(frames), bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shots[0].length_mismatch
    assert peak < 4 * 2**20


def test_extract_video_empty_shot_rejected():
    # the input ends exactly where the key's one shot starts
    record = ShotRecord(1, np.ones((8, 2, 2), np.int8))
    bundle = KeyBundle(1, 2, 3, EmbedParams(), (0, 9, 25), [record])
    with pytest.raises(GeometryError, match="clip has 9 frames but shot 1 starts at 9"):
        extract_video(VideoClip([np.zeros((64, 64), np.uint8)] * 9), bundle)


@pytest.mark.parametrize("boundaries", [(0, 64), (0, 64, 128)], ids=["one-shot", "second-shot"])
def test_extract_holds_one_frame_not_the_shot(boundaries):
    # the key selects the last shot, 64 frames of 256x256 luma (4 MB) read
    # from y4m, so each frame exists only once extraction reads it
    rs = np.random.RandomState(9)
    frames = list(rs.randint(0, 256, (boundaries[-1], 256, 256)).astype(np.uint8))
    planes = np.where(rs.rand(8, 16, 16) < 0.5, 1, -1).astype(np.int8)
    record = ShotRecord(len(boundaries) - 2, planes)
    bundle = KeyBundle(SEED1, SEED2, 0, EmbedParams(), boundaries, [record])
    want = extract_video(VideoClip(frames), bundle)
    stream = io.BytesIO()
    write_video(VideoClip(frames), stream)
    stream.seek(0)
    tracemalloc.start()
    try:
        got = extract_video(stream, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.watermark, want.watermark)
    assert peak < 64 * 256 * 256 // 4


def test_extract_clip_empty_clip_rejected():
    with pytest.raises(ValueError, match="empty clip"):
        extract_clip(VideoClip(frames=[]), _synthetic_bundle(1, 2))


def _unread_y4m(count, size):
    """A y4m stream of `count` black size x size frames; its position
    counts the bytes read from it (or skipped)."""
    stream = io.BytesIO()
    write_video(VideoClip([np.zeros((size, size), np.uint8)] * count), stream)
    stream.seek(0)
    return stream


def test_extract_frames_rejects_no_records_before_reading(watermark):
    bundle = _synthetic_bundle(1, 2)
    bundle.records = []
    stream = _unread_y4m(1, 64)
    with pytest.raises(FormatError, match="selects no shots"):
        extract_video(stream, bundle, watermark)
    assert stream.tell() == 0


@pytest.mark.parametrize(
    "reference, fragment",
    [(np.full((16, 8), 9, np.uint8), r"reference \(16, 8\) does not match the key's mark \(16, 16\)"),
     (np.zeros((16, 16), np.uint8), "all-zero reference watermark")],
    ids=["shape", "all-zero"],
)
def test_extract_frames_rejects_a_bad_reference_before_reading(reference, fragment):
    stream = _unread_y4m(64, 128)
    with pytest.raises(ValueError, match=fragment):
        extract_video(stream, _synthetic_bundle(SEED1, SEED2), reference)
    assert stream.tell() == 0


def test_extract_geometry_mismatch(embedded, watermark):
    run = embedded["noise"]
    small = VideoClip(frames=[np.zeros((64, 64), np.uint8)] * 64)
    with pytest.raises(GeometryError):
        extract_clip(small, run.bundle, watermark)


def _record(index):
    return ShotRecord(index, np.ones((8, 16, 16), np.int8))


# Changes that make a valid in-memory key for 64 frames of 128x128 in two
# shots break a key-file rule: (changes, message fragment). EmbedParams'
# rules hold when params are built, so a bundle cannot break them.
_BAD_KEYS = {
    "index-minus-one": (dict(records=[_record(-1)]), "outside boundary range"),
    "index-past-last": (dict(records=[_record(2)]), "outside boundary range"),
    "boundaries-fall": (dict(boundaries=(0, 30, 25, 40)), "bad shot boundaries"),
    "shot-too-short": (dict(boundaries=(0, 8, 64)), "fewer than the 9 a mark needs"),
    # what a key file cannot store: a float or bool where it stores an integer
    "seed-float": (dict(seed1=1.5), "seeds must be integers, got [1.5"),
    "seed-bool": (dict(seed3=True), "seeds must be integers"),
    "boundary-float": (dict(boundaries=(0, 32.0, 64)), "shot boundaries must be integers"),
    "index-bool": (dict(records=[_record(False), _record(1)]), "shot indices must be integers"),
    "index-float": (dict(records=[_record(0), _record(1.0)]), "shot indices must be integers"),
    # the first record fixes the mark's size
    "records-sizes-differ": (
        dict(records=[_record(0), ShotRecord(1, np.ones((8, 16, 8), np.int8))]),
        "shot 1 planes have shape (8, 16, 8), expected (8, 16, 16)"),
    "records-2d": (dict(records=[ShotRecord(0, np.ones((8, 16), np.int8))]),
                   "shot 0 planes have shape (8, 16), expected (8, height, width)"),
}


@pytest.mark.parametrize("name", sorted(_BAD_KEYS))
def test_extract_frames_rejects_a_bad_in_memory_key_before_reading(name):
    changes, fragment = _BAD_KEYS[name]
    valid = dict(boundaries=(0, 32, 64), records=[_record(0), _record(1)])
    bundle = dataclasses.replace(_synthetic_bundle(SEED1, SEED2), **{**valid, **changes})
    stream = _unread_y4m(64, 128)
    with pytest.raises(FormatError, match=re.escape(fragment)):
        extract_video(stream, bundle)
    assert stream.tell() == 0
