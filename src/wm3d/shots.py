"""Scene segmentation and keyed selection of watermark-carrying shots.

Cuts are declared where the luma histogram jumps between consecutive
frames, found as the frames arrive, so only two histograms are held. Both
embedding and extraction rely on the same boundaries; the embedder stores
them in the key bundle so extraction never depends on re-detection
surviving an attack.
"""

import math

import numpy as np

from . import prng
from .errors import GeometryError
from .media_io import _is_int, open_video
from .wmprep import PLANE_COUNT

HIST_BINS = 64
DEFAULT_THRESHOLD = 0.35

# The watermark's 8 bitplanes ride on temporal coefficient frames 1..8,
# so the shortest shot to embed into has one frame more: 9 frames pad to
# 16 and yield 8 temporal detail frames.
MIN_EMBED_SHOT_LEN = PLANE_COUNT + 1


def _histogram(frame: np.ndarray) -> np.ndarray:
    """64 bins of width 4 over the 8-bit range. An even-sized frame is
    counted two pixels at a time: each uint16 of the shifted frame
    indexes a 64 x 256 table of pixel pairs, folded by rows and columns."""
    bins = (frame >> 2).ravel()
    if bins.size % 2:
        return np.bincount(bins, minlength=HIST_BINS)
    pairs = np.bincount(bins.view(np.uint16), minlength=HIST_BINS * 256)
    c = pairs.reshape(HIST_BINS, 256)[:, :HIST_BINS]
    return c.sum(0) + c.sum(1)


def _distance(ha: np.ndarray, hb: np.ndarray, size: int) -> float:
    """Normalized L1 distance between two 64-bin luma histograms of
    `size`-pixel frames: 0 if identical, 1 when no mass shares a bin."""
    return float(np.sum(np.abs(ha - hb))) / (2.0 * size)


def detect_shots(source, threshold: float = DEFAULT_THRESHOLD) -> list:
    """Split a video at histogram jumps; returns boundary frame indices.

    `source`, anything media_io.open_video opens, is read once. The result
    always starts at 0 and ends at the frame count, so consecutive pairs
    are exactly the shots. A video with no jump above `threshold` comes
    back as one shot.
    """
    with open_video(source, chroma=False) as (_, frames):
        return _shots(frames, threshold)


def _shots(frames, threshold: float) -> list:
    """detect_shots over (luma, payload) pairs in order, each luma compared
    with the one before it as it arrives, so only two histograms are held."""
    check_fraction(threshold, "threshold")
    boundaries, prev, count = [0], None, 0
    for count, (frame, _) in enumerate(frames, start=1):
        if not frame.size:
            raise ValueError("zero-size frames have no histogram")
        cur = _histogram(frame)
        if prev is not None and _distance(cur, prev, frame.size) > threshold:
            boundaries.append(count - 1)
        prev = cur
    boundaries.append(count)
    return boundaries


def shot_spans(boundaries) -> list:
    """Boundary list -> [(start, end), ...] frame index spans."""
    return list(zip(boundaries[:-1], boundaries[1:]))


def validate_boundaries(boundaries, frame_count: int | None = None) -> None:
    """The shot boundary rule: integers from 0 (to `frame_count` if given), strictly rising."""
    b = list(boundaries)
    if not all(map(_is_int, b)):
        raise GeometryError(f"shot boundaries must be integers, got {b}")
    if len(b) < 2 or b[0] != 0 or (frame_count is not None and b[-1] != frame_count):
        to = "" if frame_count is None else f" to {frame_count}"
        raise GeometryError(f"bad shot boundaries {b}: they must run from 0{to}")
    if any(y <= x for x, y in zip(b, b[1:])):
        raise GeometryError(f"bad shot boundaries {b}: they must be strictly increasing")


def check_fraction(value: float, name: str = "fraction") -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1]")


def select_shots(boundaries, seed3: int, fraction: float = 1.0) -> list:
    """Keyed choice of which shots carry the watermark.

    Shots of at least MIN_EMBED_SHOT_LEN frames are ranked by the
    splitmix64 step of (seed3 mod 2**64) XOR shot index and the first
    ceil(fraction * eligible) are taken. Returns sorted shot indices;
    deterministic in all inputs.
    """
    check_fraction(fraction)
    spans = shot_spans(boundaries)
    eligible = [i for i, (a, b) in enumerate(spans) if b - a >= MIN_EMBED_SHOT_LEN]
    if not eligible:
        raise GeometryError(
            f"no shot of at least {MIN_EMBED_SHOT_LEN} frames to embed into "
            f"(shot lengths: {[b - a for a, b in spans]})"
        )
    ranks = prng.mix64_np(np.uint64(seed3 & prng.MASK64) ^ np.array(eligible, np.uint64))
    count = math.ceil(fraction * len(eligible))
    return sorted(eligible[k] for k in np.argsort(ranks, kind="stable")[:count])
