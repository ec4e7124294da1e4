import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from conftest import SEED1, SEED2, SEED3, make_flat_noise_clip
from oracles import embed_plane, extract_plane, quantize_luma
from wm3d.embed import EmbedParams, embed_clip
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_clip, extract_frames, extract_shot
from wm3d.keyfile import KeyBundle, ShotRecord
from wm3d.media_io import VideoClip
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
    return KeyBundle(
        seed1=seed1,
        seed2=seed2,
        seed3=0,
        alpha=0.1,
        wm_width=16,
        wm_height=16,
        boundaries=(0, 64),
        selected=(0,),
        records=[ShotRecord(shot_index=0, planes=planes)],
    )


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
    with pytest.raises(FormatError, match="records do not match selected"):
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
    for received in range(1, n):
        short = frames[:received]
        padded = short + [short[-1]] * (n - received)
        got = extract_shot(short, planes, SEED1, SEED2, n, params)
        want = extract_shot(padded, planes, SEED1, SEED2, n, params)
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
        result = extract_frames(iter(frames), 128, 128, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shots[0].length_mismatch
    assert peak < 4 * 2**20


def test_extract_shot_empty_rejected():
    with pytest.raises(GeometryError):
        extract_shot([], np.ones((8, 2, 2), np.int8), 1, 2, 16, EmbedParams())


def test_extract_clip_empty_clip_rejected():
    with pytest.raises(ValueError, match="empty clip"):
        extract_clip(VideoClip(frames=[]), _synthetic_bundle(1, 2))


def test_extract_frames_rejects_no_records_before_reading(watermark):
    bundle = _synthetic_bundle(1, 2)
    bundle.selected, bundle.records = (), []
    read = []

    def frames():
        read.append(1)
        yield np.zeros((64, 64), np.uint8)

    with pytest.raises(FormatError, match="selects no shots"):
        extract_frames(frames(), 64, 64, bundle, watermark)
    assert read == []


def test_extract_geometry_mismatch(embedded, watermark):
    run = embedded["noise"]
    small = VideoClip(frames=[np.zeros((64, 64), np.uint8)] * 64)
    with pytest.raises(GeometryError):
        extract_clip(small, run.bundle, watermark)


def _record(index):
    return ShotRecord(index, np.ones((8, 16, 16), np.int8))


# Changes that make a valid in-memory key for 64 frames of 128x128 in two
# shots break a key-file rule: (changes, message fragment).
_BAD_KEYS = {
    "index-minus-one": (dict(selected=(-1,), records=[_record(-1)]), "outside boundary range"),
    "index-past-last": (dict(selected=(2,), records=[_record(2)]), "outside boundary range"),
    "boundaries-fall": (dict(boundaries=(0, 30, 25, 40)), "bad shot boundaries"),
    "records-not-selected": (dict(selected=(0,), records=[_record(1)]),
                             "records do not match selected"),
    "shot-too-short": (dict(boundaries=(0, 8, 64)), "fewer than the 9 a mark needs"),
    # EmbedParams' rules, raised as FormatError with its messages
    "alpha-one": (dict(alpha=1.0), "alpha 1.0 outside [0, 1)"),
    "band-unknown": (dict(band="xx3"), "unknown band 'xx3'"),
    "col0-negative": (dict(region_col0=-1), "region offset must be non-negative"),
}


@pytest.mark.parametrize("name", sorted(_BAD_KEYS))
def test_extract_frames_rejects_a_bad_in_memory_key_before_reading(name):
    changes, fragment = _BAD_KEYS[name]
    valid = dict(boundaries=(0, 32, 64), selected=(0, 1), records=[_record(0), _record(1)])
    bundle = dataclasses.replace(_synthetic_bundle(SEED1, SEED2), **{**valid, **changes})
    read = []

    def frames():
        for _ in range(64):
            read.append(1)
            yield np.zeros((128, 128), np.uint8)

    with pytest.raises(FormatError, match=re.escape(fragment)):
        extract_frames(frames(), 128, 128, bundle)
    assert read == []
