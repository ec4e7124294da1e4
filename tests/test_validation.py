"""Library calls that refuse bad input: one row per validation branch,
with the error it raises and a fragment of its message."""

import io
import re

import numpy as np
import pytest

from wm3d.attacks import attack_compress, attack_noise
from wm3d.embed import EmbedParams, embed_clip, embed_shot
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_shot
from wm3d.keyfile import KeyBundle, ShotRecord, write_key
from wm3d.media_io import VideoClip, write_pgm, write_y4m
from wm3d.shots import detect_shots
from wm3d.wmprep import decompose_bitplanes

_FRAME = np.zeros((64, 64), np.uint8)
_PLANES = np.ones((8, 2, 2), np.int8)
_HOLED = _PLANES.copy()
_HOLED[3, 1, 0] = 0


def _write_key(planes, wm_width=2):
    bundle = KeyBundle(1, 2, 3, 0.1, wm_width, 2, boundaries=(0, 9), selected=(0,),
                       records=[ShotRecord(0, planes)])
    write_key(bundle, io.StringIO())


# name: (call, error type, message fragment)
_CASES = {
    "key-wm-width": (lambda: _write_key(_PLANES, wm_width=0), FormatError,
                     "watermark dimensions must be positive"),
    "key-plane-zero": (lambda: _write_key(_HOLED), FormatError, "planes must be +-1"),
    "shots-empty-clip": (lambda: detect_shots(VideoClip(frames=[])), ValueError,
                         "empty clip"),
    # a histogram of no pixels has no distance to the next
    "shots-zero-pixel-frames": (
        lambda: detect_shots(VideoClip(frames=[np.zeros((0, 5), np.uint8)] * 2)),
        ValueError, "zero-size frames"),
    "embed-repeated-boundary": (
        lambda: embed_clip(VideoClip(frames=[_FRAME] * 20), np.ones((2, 2), np.uint8),
                           1, 2, 3, boundaries=[0, 9, 9, 20]),
        GeometryError, "strictly increasing"),
    "y4m-mixed-shapes": (
        lambda: write_y4m(VideoClip(frames=[_FRAME, _FRAME[:8]]), io.BytesIO()),
        FormatError, "dimension mismatch across frames"),
    "y4m-chroma-count": (
        lambda: write_y4m(VideoClip(frames=[_FRAME] * 2, chroma_token="420jpeg",
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
    "pgm-3d": (lambda: write_pgm(np.zeros((2, 2, 2), np.uint8), io.BytesIO()),
               ValueError, "nonempty 2-D array"),
    "params-negative-row": (lambda: EmbedParams(region_row0=-1), ValueError,
                            "region offset must be non-negative"),
    "shot-seven-planes": (lambda: embed_shot([_FRAME] * 9, _PLANES[:7], EmbedParams()),
                          ValueError, "expected 8 sign planes"),
    "shot-plane-zero": (lambda: embed_shot([_FRAME] * 9, _HOLED, EmbedParams()),
                        ValueError, "plane values must be +1 or -1"),
    # embed_shot sizes its window by the planes, so only a reader can
    # hand the sign rule planes that do not match its coefficient frames
    "shot-planes-shape": (
        lambda: extract_shot([_FRAME] * 9, _PLANES[:7], 1, 2, 9, EmbedParams()),
        ValueError, "do not match windows"),
    # 8x8 frames have a 1x1 subband: its coefficient has no neighbor to
    # compare with, so its sign would come from the key alone
    "shot-one-coefficient-band": (
        lambda: embed_shot([_FRAME[:8, :8]] * 9, _PLANES[:, :1, :1], EmbedParams()),
        GeometryError, "subband too small: 8x8 frames give it one coefficient"),
    "extract-one-coefficient-band": (
        lambda: extract_shot([_FRAME[:8, :8]] * 9, _PLANES[:, :1, :1], 1, 2, 9,
                             EmbedParams()),
        GeometryError, "subband too small"),
    "bitplanes-1d": (lambda: decompose_bitplanes(np.zeros(4, np.uint8)), ValueError,
                     "nonempty 2-D image"),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_bad_input_raises_its_error(name):
    call, error, fragment = _CASES[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
