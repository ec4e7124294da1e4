import hashlib
from dataclasses import replace

import numpy as np
import pytest

from wm3d import attacks
from wm3d.attacks import (
    _DCT,
    _MAX_WORKERS,
    _QTABLE,
    _noise_steps,
    _usable_cpus,
    attack_average,
    attack_compress,
    attack_drop,
    attack_noise,
    attack_swap,
    quantization_table,
)
from oracles import (
    average_frames_float,
    compress_frame_blocks,
    compress_frame_scipy,
    noise_pixels,
    quantize_luma,
    round_half_away,
)
from wm3d.errors import GeometryError
from wm3d.media_io import VideoClip
from wm3d.metrics import psnr


def _clip(values, h=8, w=8):
    return VideoClip(frames=[np.full((h, w), v, np.uint8) for v in values])


def _rand_clip(n=4, h=16, w=16, seed=0):
    rs = np.random.RandomState(seed)
    return VideoClip(frames=[rs.randint(0, 256, (h, w)).astype(np.uint8) for _ in range(n)])


def test_drop_replaces_even_frames():
    marked = _clip([10, 11, 12, 13])
    original = _clip([0, 1, 2, 3])
    out = attack_drop(marked, original)
    assert [int(f[0, 0]) for f in out.frames] == [0, 11, 2, 13]


def test_drop_identity_when_equal():
    clip = _rand_clip()
    out = attack_drop(clip, clip)
    assert all(np.array_equal(a, b) for a, b in zip(out.frames, clip.frames))


def test_drop_idempotent():
    marked, original = _rand_clip(seed=1), _rand_clip(seed=2)
    once = attack_drop(marked, original)
    twice = attack_drop(once, original)
    assert all(np.array_equal(a, b) for a, b in zip(once.frames, twice.frames))


def test_drop_mismatch_errors():
    with pytest.raises(GeometryError, match="count"):
        attack_drop(_clip([1, 2]), _clip([1, 2, 3]))
    with pytest.raises(GeometryError, match="dimension"):
        attack_drop(_clip([1, 2]), _clip([1, 2], h=4, w=4))


def test_average_constant_unchanged():
    clip = _clip([7, 7, 7, 7])
    out = attack_average(clip)
    assert all(np.array_equal(a, b) for a, b in zip(out.frames, clip.frames))


def test_average_interior_mean():
    out = attack_average(_clip([3, 6, 9]))
    assert [int(f[0, 0]) for f in out.frames] == [3, 6, 9]
    out = attack_average(_clip([0, 10, 200]))
    assert int(out.frames[1][0, 0]) == 70
    assert int(out.frames[0][0, 0]) == 0 and int(out.frames[2][0, 0]) == 200


def test_average_needs_three_frames():
    with pytest.raises(ValueError, match="3 frames"):
        attack_average(_clip([1, 2]))


def test_average_rounds_every_sum_as_the_float_mean():
    # pixel s of the middle frame sees the three-pixel sum s, 0..765
    sums = np.arange(766)
    low, high = np.minimum(sums, 255), np.clip(sums - 510, 0, 255)
    frames = [low, sums - low - high, high]
    out = attack_average(VideoClip(frames=[f.astype(np.uint8)[None] for f in frames]))
    assert np.array_equal(out.frames[1][0], quantize_luma(sums / 3.0))


def _extreme_frames(h, w):
    checker = np.indices((h, w)).sum(axis=0) % 2 * 255
    return [np.zeros((h, w)), np.full((h, w), 255), checker, 255 - checker]


@pytest.mark.parametrize(
    "frames",
    [
        _rand_clip(n=6, h=24, w=40, seed=11).frames,
        _extreme_frames(16, 16),
        _extreme_frames(64, 8),
        [np.zeros((0, 0))] * 3,
    ],
    ids=["seeded", "extremes", "8-wide", "0x0"],
)
def test_average_equals_float_oracle(frames):
    clip = VideoClip(frames=[np.asarray(f, np.uint8) for f in frames])
    got = attack_average(clip).frames
    want = average_frames_float(clip.frames)
    assert all(a.dtype == np.uint8 and np.array_equal(a, b) for a, b in zip(got, want))


def test_non_uint8_frames_rejected():
    # the uint8 rule runs when the clip is built, so no attack sees float frames
    with pytest.raises(ValueError, match="uint8"):
        VideoClip(frames=[np.full((8, 8), 10.9)] * 3)
    clip = _clip([10, 11, 12], h=8, w=8)
    with pytest.raises(ValueError, match="uint8"):
        replace(clip, frames=[f.astype(np.float64) for f in clip.frames])


def test_swap_copies_predecessor():
    out = attack_swap(_clip([1, 2, 3, 4]))
    assert [int(f[0, 0]) for f in out.frames] == [1, 1, 3, 3]
    out = attack_swap(_clip([1, 2, 3, 4, 5]))
    assert [int(f[0, 0]) for f in out.frames] == [1, 1, 3, 3, 5]


def test_swap_constant_unchanged():
    clip = _clip([9, 9, 9, 9])
    out = attack_swap(clip)
    assert all(np.array_equal(a, b) for a, b in zip(out.frames, clip.frames))


def test_quantization_table_rules():
    assert np.array_equal(quantization_table(50), _QTABLE)  # scale 100
    assert np.all(quantization_table(100) == 1.0)  # scale 0 floors at 1
    assert np.all(quantization_table(1) >= quantization_table(10))
    with pytest.raises(ValueError):
        quantization_table(0)
    with pytest.raises(ValueError):
        quantization_table(101)


def test_compress_near_lossless_at_q100():
    clip = _rand_clip(n=3, h=32, w=32, seed=3)
    out = attack_compress(clip, 100)
    for a, b in zip(clip.frames, out.frames):
        assert psnr(a, b) >= 45.0


def test_compress_psnr_monotone_in_quality():
    frame = _rand_clip(n=1, h=64, w=64, seed=4).frames[0]
    clip = VideoClip(frames=[frame])
    values = [
        psnr(frame, attack_compress(clip, q).frames[0]) for q in (20, 50, 90)
    ]
    assert values[0] <= values[1] <= values[2]


def test_compress_dims_and_quality_validation():
    with pytest.raises(GeometryError, match="divisible by 8"):
        attack_compress(_clip([1], h=12, w=12), 75)
    with pytest.raises(ValueError):
        attack_compress(_clip([1]), 0)


def test_compress_deterministic():
    clip = _rand_clip(n=2, h=16, w=16, seed=5)
    a = attack_compress(clip, 40)
    b = attack_compress(clip, 40)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))


def test_dct_basis_orthonormal():
    assert np.abs(_DCT @ _DCT.T - np.eye(8)).max() <= 1e-15


def _near_tie(x):
    return np.abs(np.abs(x) % 1.0 - 0.5) < 1e-9


def _dc_tie_frame(table):
    """128x128 frame whose top-left block has coeff/table exactly 0.5 at DC.

    The orthonormal DC is sum(x - 128) / 8, so a block summing to
    4 * table[0, 0] puts the DC exactly on a tie.
    """
    total = 4 * int(table[0, 0])
    block = np.full(64, 128 + total // 64)
    block[: total % 64] += 1
    frame = _rand_clip(n=1, h=128, w=128, seed=8).frames[0]
    frame[:8, :8] = block.reshape(8, 8)
    return frame


def _compress_cases(table):
    return {
        "seeded": _rand_clip(n=3, h=48, w=64, seed=12).frames,
        "dc-tie": [_dc_tie_frame(table)],
        "extremes": [f.astype(np.uint8) for f in _extreme_frames(32, 24)],
        "8-wide": _rand_clip(n=2, h=64, w=8, seed=13).frames,
        "0x0": [np.zeros((0, 0), np.uint8)] * 3,
    }


@pytest.mark.parametrize("case", ["seeded", "dc-tie", "extremes", "8-wide", "0x0"])
@pytest.mark.parametrize("quality", [1, 10, 50, 75, 90, 100])
def test_compress_equals_per_block_oracle(case, quality):
    table = quantization_table(quality)
    frames = _compress_cases(table)[case]
    got = attack_compress(VideoClip(frames=frames), quality).frames
    assert len(got) == len(frames)
    for frame, out in zip(frames, got):
        assert np.array_equal(out, compress_frame_blocks(frame, table))


def test_compress_does_not_depend_on_the_worker_count(monkeypatch):
    clip = VideoClip(frames=_rand_clip(n=7, h=40, w=48, seed=14).frames)
    outs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(attacks, "_usable_cpus", lambda: cpus)
        outs.append(attack_compress(clip, 60).frames)
    for frames in outs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(outs[0], frames))


@pytest.mark.parametrize("quality", [10, 50, 75, 90, 100])
def test_compress_matches_scipy_oracle(quality):
    pytest.importorskip("scipy")
    table = quantization_table(quality)
    tie_frame = _dc_tie_frame(table)
    clip = VideoClip(frames=_rand_clip(n=3, h=128, w=128, seed=7).frames + [tie_frame])
    attacked = attack_compress(clip, quality)
    for k, (frame, out) in enumerate(zip(clip.frames, attacked.frames)):
        ratio, back = compress_frame_scipy(frame, table)
        blocks = (frame.astype(np.float64) - 128.0).reshape(16, 8, 16, 8)
        q = round_half_away(_DCT @ blocks.transpose(0, 2, 1, 3) @ _DCT.T / table)
        tie = _near_tie(ratio)
        assert np.array_equal(q[~tie], round_half_away(ratio)[~tie])
        assert np.abs(q - round_half_away(ratio)).max() <= 1.0
        # pixels of blocks with no coefficient tie match unless they are
        # themselves within 1e-9 of a .5 tie
        tie_block = np.repeat(np.repeat(tie.any(axis=(2, 3)), 8, 0), 8, 1)
        same = ~tie_block & ~_near_tie(back)
        assert np.array_equal(out[same], quantize_luma(back)[same])
        if k == len(clip.frames) - 1:
            assert tie[0, 0, 0, 0]


def test_noise_sigma_zero_identity():
    clip = _rand_clip(seed=6)
    out = attack_noise(clip, 0.0, 99)
    assert all(np.array_equal(a, b) for a, b in zip(out.frames, clip.frames))


def test_noise_deterministic_and_seeded():
    clip = _rand_clip(seed=7)
    a = attack_noise(clip, 3.0, 42)
    b = attack_noise(clip, 3.0, 42)
    c = attack_noise(clip, 3.0, 43)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
    assert any(not np.array_equal(x, y) for x, y in zip(a.frames, c.frames))
    with pytest.raises(ValueError):
        attack_noise(clip, -1.0, 42)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_noise_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        attack_noise(_rand_clip(seed=7), sigma, 42)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_noise_rejects_seed_outside_64_bits(seed):
    # such seeds used to wrap modulo 2**64 onto a valid one
    with pytest.raises(ValueError, match="seed"):
        attack_noise(_rand_clip(seed=7), 1.0, seed)


def test_noise_accepts_the_64_bit_seed_range():
    clip = _rand_clip(seed=7)
    for seed in (0, 2**64 - 1):
        assert attack_noise(clip, 1.0, seed).frame_count == clip.frame_count


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(attacks.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _assert_noise_matches_oracle(clip, sigma, seed):
    out = attack_noise(clip, sigma, seed)
    assert out.frame_count == clip.frame_count
    for noisy, want in zip(out.frames, noise_pixels(clip.frames, sigma, seed)):
        assert noisy.dtype == np.uint8
        assert np.array_equal(noisy, want)
    return out


def test_noise_matches_one_shot_draw():
    _assert_noise_matches_oracle(_rand_clip(n=5, h=16, w=24, seed=9), 2.5, 11)


# (frames, height, width): frames of 63, 1, 15 and 25 pixels start mid-word;
# the draw runs on the calling thread whatever CPUs the process may use
@pytest.mark.parametrize("n, h, w", [(5, 9, 7), (3, 1, 1), (7, 3, 5), (4, 5, 5)])
@pytest.mark.parametrize("cpus", [1, 3])
def test_noise_matches_one_shot_draw_on_small_clips(monkeypatch, n, h, w, cpus):
    _set_cpus(monkeypatch, cpus)
    _assert_noise_matches_oracle(_rand_clip(n=n, h=h, w=w, seed=n), 4.0, 21)


def _extreme_clip(n, h, w, seed):
    """Random pixels with a 0 and a 255 in each frame, so the clip to
    [0, 255] binds at both ends."""
    frames = _rand_clip(n=n, h=h, w=w, seed=seed).frames
    for f in frames:
        f.reshape(-1)[:2] = (0, 255)[: f.size]
    return VideoClip(frames=frames)


# h*w % 4 of 1, 2, 3 and 0, 1x1 frames and three 0x0 frames; 1e30 clips every
# step to +-255 through the 2**24 cap
@pytest.mark.parametrize("n, h, w", [(3, 3, 3), (4, 2, 5), (3, 5, 3), (2, 4, 6), (6, 1, 1),
                                     (3, 0, 0)])
@pytest.mark.parametrize("sigma", [0.0, 2.0, 6.0, 1e30])
def test_noise_equals_pixel_oracle(n, h, w, sigma):
    _assert_noise_matches_oracle(_extreme_clip(n, h, w, seed=h * w + n), sigma, 2**64 - 5)


def test_noise_huge_sigma_saturates_without_overflow():
    # sigma * z used to overflow (a RuntimeWarning, an error under tier-1)
    clip = _rand_clip(n=3, h=8, w=10, seed=15)
    out = np.stack(attack_noise(clip, 1e308, 7).frames)
    assert np.isin(out, (0, 255)).all()
    assert np.array_equal(out, np.stack(attack_noise(clip, 2.0**24, 7).frames))


# sha256 of each step table as little-endian int16. A libm or inv_cdf that
# moves a step shows here; z itself is not pinned, since its last ulp may
# move (say, under FMA contraction) without moving any step.
@pytest.mark.parametrize("sigma, digest", [
    (2.0, "50f2cf8fc6d177539771538c7e3af3e074bff7b4a454c68e73f5638458d5601e"),
    (6.0, "5e4723cb4937feea56896a54b42ef0638e3ccf9211c97958a7688790b2974294"),
])
def test_noise_step_tables_pinned(sigma, digest):
    step = _noise_steps(sigma)
    assert step.dtype == np.int16
    assert hashlib.sha256(step.astype("<i2").tobytes()).hexdigest() == digest


def test_usable_cpus_follows_affinity_then_cpu_count(monkeypatch):
    _set_cpus(monkeypatch, 1)
    assert _usable_cpus() == 1
    _set_cpus(monkeypatch, 64)
    assert _usable_cpus() == _MAX_WORKERS
    monkeypatch.delattr(attacks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(attacks.os, "cpu_count", lambda: 3)
    assert _usable_cpus() == min(3, _MAX_WORKERS)
    monkeypatch.setattr(attacks.os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


@pytest.mark.parametrize(
    "attack",
    [
        lambda c: attack_drop(c, c),
        attack_average,
        attack_swap,
        lambda c: attack_compress(c, 75),
        lambda c: attack_noise(c, 2.0, 1),
    ],
)
def test_attacks_preserve_shape(attack):
    clip = _rand_clip(n=5, h=16, w=16, seed=8)
    out = attack(clip)
    assert out.frame_count == clip.frame_count
    assert all(f.shape == (16, 16) for f in out.frames)
    assert all(f.dtype == np.uint8 for f in out.frames)
