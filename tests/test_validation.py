"""Library calls that refuse bad input: one row per validation branch,
with the error it raises and a fragment of its message."""

import io
import re

import numpy as np
import pytest

from wm3d.attacks import attack_compress, attack_noise
from wm3d.embed import EmbedParams, _window_signs, embed_clip, embed_shot
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_video
from wm3d.keyfile import KeyBundle, ShotRecord, write_key
from wm3d.media_io import VideoClip, write_pgm, write_video
from wm3d.shots import detect_shots
from wm3d.wmprep import decompose_bitplanes

_FRAME = np.zeros((64, 64), np.uint8)
_PLANES = np.ones((8, 2, 2), np.int8)
_HOLED = _PLANES.copy()
_HOLED[3, 1, 0] = 0


def _write_key(planes):
    bundle = KeyBundle(1, 2, 3, EmbedParams(), (0, 9), [ShotRecord(0, planes)])
    write_key(bundle, io.StringIO())


# name: (call, error type, message fragment)
_CASES = {
    "key-wm-width": (lambda: _write_key(_PLANES[:, :, :0]), FormatError,
                     "watermark dimensions must be positive"),
    "key-plane-zero": (lambda: _write_key(_HOLED), FormatError, "planes must be +-1"),
    "shots-empty-clip": (lambda: detect_shots(VideoClip(frames=[])), ValueError,
                         "empty clip"),
    # a histogram of no pixels has no distance to the next
    "shots-zero-pixel-frames": (
        lambda: detect_shots(VideoClip(frames=[np.zeros((0, 5), np.uint8)] * 2)),
        ValueError, "zero-size frames"),
    "embed-float-seed": (
        lambda: embed_clip(VideoClip(frames=[_FRAME] * 9), np.ones((2, 2), np.uint8),
                           1.5, 2, 3),
        ValueError, "seed1 must be an unsigned 64-bit integer"),
    "embed-repeated-boundary": (
        lambda: embed_clip(VideoClip(frames=[_FRAME] * 20), np.ones((2, 2), np.uint8),
                           1, 2, 3, boundaries=[0, 9, 9, 20]),
        GeometryError, "strictly increasing"),
    # each must fail before the sink: a key cannot store it, nor islice cut at it
    "embed-bool-boundary": (
        lambda: embed_clip(VideoClip(frames=[_FRAME] * 32), np.ones((2, 2), np.uint8),
                           1, 2, 3, boundaries=[False, 16, 32]),
        GeometryError, "shot boundaries must be integers, got [False, 16, 32]"),
    "embed-float-boundary": (
        lambda: embed_clip(VideoClip(frames=[_FRAME] * 32), np.ones((2, 2), np.uint8),
                           1, 2, 3, boundaries=[0, 16.0, 32]),
        GeometryError, "shot boundaries must be integers, got [0, 16.0, 32]"),
    "y4m-mixed-shapes": (
        lambda: write_video(VideoClip(frames=[_FRAME, _FRAME[:8]]), io.BytesIO()),
        FormatError, "dimension mismatch across frames"),
    "y4m-chroma-count": (
        lambda: write_video(VideoClip(frames=[_FRAME] * 2, chroma_token="420jpeg",
                                    chroma=[bytes(2048)]), io.BytesIO()),
        FormatError, "chroma payload count"),
    # VideoClip checks every clip rule when it is built
    "clip-empty": (lambda: VideoClip(frames=[]), ValueError, "empty clip"),
    "clip-float-frame": (lambda: VideoClip(frames=[_FRAME, _FRAME / 2]), ValueError,
                         "frame 1 must be a 2-D uint8 array, got float64"),
    "clip-3d-frame": (lambda: VideoClip(frames=[_FRAME[None]]), ValueError,
                      "frame 0 must be a 2-D uint8 array, got uint8 of shape (1, 64, 64)"),
    "clip-mixed-shapes": (
        lambda: VideoClip(frames=[_FRAME, _FRAME, _FRAME[:8]]), FormatError,
        "frame 2 is (8, 64), frame 0 is (64, 64)"),
    "clip-chroma-count": (
        lambda: VideoClip(frames=[_FRAME] * 2, chroma_token="420jpeg", chroma=[b""]),
        FormatError, "chroma payload count does not match frame count"),
    "compress-empty-clip": (lambda: attack_compress(VideoClip(frames=[]), 50), ValueError,
                            "empty clip"),
    "noise-empty-clip": (lambda: attack_noise(VideoClip(frames=[]), 2.0, 1), ValueError,
                         "empty clip"),
    # the seed test embed_video applies: an int, not a bool, in [0, 2**64)
    "noise-float-seed": (lambda: attack_noise(VideoClip([_FRAME[:4, :4]] * 3), 2.0, 1.5),
                         ValueError, "noise seed must be an unsigned 64-bit integer"),
    "noise-bool-seed": (lambda: attack_noise(VideoClip([_FRAME[:4, :4]] * 3), 2.0, True),
                        ValueError, "noise seed must be an unsigned 64-bit integer"),
    "pgm-3d": (lambda: write_pgm(np.zeros((2, 2, 2), np.uint8), io.BytesIO()),
               ValueError, "nonempty 2-D array"),
    # an array that is not of real numbers holds no integers in [0, 255]
    "pgm-complex": (lambda: write_pgm(np.ones((2, 2), complex), io.BytesIO()),
                    ValueError, "image values must be integers in [0, 255]"),
    "bitplanes-str": (lambda: decompose_bitplanes(np.full((2, 2), "1")), ValueError,
                      "image values must be integers in [0, 255]"),
    "params-negative-row": (lambda: EmbedParams(region_row0=-1), ValueError,
                            "region offset must be non-negative"),
    # a key file stores offsets as integers
    "params-float-col": (lambda: EmbedParams(region_col0=1.5), ValueError,
                         "region_col0 must be an integer, got 1.5"),
    "params-bool-row": (lambda: EmbedParams(region_row0=True), ValueError,
                        "region_row0 must be an integer, got True"),
    "shot-seven-planes": (lambda: embed_shot([_FRAME] * 9, _PLANES[:7], EmbedParams()),
                          ValueError, "expected 8 sign planes"),
    "shot-plane-zero": (lambda: embed_shot([_FRAME] * 9, _HOLED, EmbedParams()),
                        ValueError, "plane values must be +1 or -1"),
    # embed_shot sizes its window by the planes and a key holds 8 of them,
    # so only a direct call hands the sign rule planes that do not match
    # its margins
    "shot-planes-shape": (
        lambda: _window_signs(np.zeros((8, 2, 2), np.int64), _PLANES[:7]),
        ValueError, "do not match windows"),
    # 8x8 frames have a 1x1 subband: its coefficient has no neighbor to
    # compare with, so its sign would come from the key alone
    "shot-one-coefficient-band": (
        lambda: embed_shot([_FRAME[:8, :8]] * 9, _PLANES[:, :1, :1], EmbedParams()),
        GeometryError, "subband too small: 8x8 frames give it one coefficient"),
    "extract-one-coefficient-band": (
        lambda: extract_video(VideoClip([_FRAME[:8, :8]] * 9), KeyBundle(
            1, 2, 3, EmbedParams(), (0, 9), [ShotRecord(0, _PLANES[:, :1, :1])])),
        GeometryError, "subband too small"),
    # the watermark keeps write_pgm's image rule, and so its message
    "bitplanes-1d": (lambda: decompose_bitplanes(np.zeros(4, np.uint8)), ValueError,
                     "nonempty 2-D array"),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_bad_input_raises_its_error(name):
    call, error, fragment = _CASES[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
