"""Scene segmentation and keyed selection of watermark-carrying shots.

Cuts are declared where the luma histogram jumps between consecutive
frames. Both embedding and extraction rely on the same boundaries; the
embedder stores them in the key bundle so extraction never depends on
re-detection surviving an attack.
"""

import math

import numpy as np

from . import prng
from .errors import GeometryError
from .media_io import VideoClip

HIST_BINS = 64
DEFAULT_THRESHOLD = 0.35

# The watermark's 8 bitplanes ride on temporal coefficient frames 1..8,
# so the shortest shot to embed into has one frame more: 9 frames pad to
# 16 and yield 8 temporal detail frames.
PLANE_COUNT = 8
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
    diff = ha.astype(np.int64) - hb.astype(np.int64)
    return float(np.sum(np.abs(diff))) / (2.0 * size)


def detect_shots(clip: VideoClip, threshold: float = DEFAULT_THRESHOLD) -> list:
    """Split a clip at histogram jumps; returns boundary frame indices.

    The result always starts at 0 and ends at the frame count, so
    consecutive pairs are exactly the shots. A clip with no jump above
    `threshold` comes back as one shot.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if not clip.frames[0].size:
        raise ValueError("zero-size frames have no histogram")
    boundaries = [0]
    prev = _histogram(clip.frames[0])
    for k in range(1, clip.frame_count):
        cur = _histogram(clip.frames[k])
        if _distance(cur, prev, clip.frames[k].size) > threshold:
            boundaries.append(k)
        prev = cur
    boundaries.append(clip.frame_count)
    return boundaries


def shot_spans(boundaries) -> list:
    """Boundary list -> [(start, end), ...] frame index spans."""
    return list(zip(boundaries[:-1], boundaries[1:]))


def validate_boundaries(boundaries, frame_count: int) -> None:
    b = list(boundaries)
    if len(b) < 2 or b[0] != 0 or b[-1] != frame_count:
        raise GeometryError(
            f"boundaries must run from 0 to {frame_count}, got {b}"
        )
    if any(y <= x for x, y in zip(b, b[1:])):
        raise GeometryError(f"boundaries must be strictly increasing, got {b}")


def select_shots(boundaries, seed3: int, fraction: float = 1.0) -> list:
    """Keyed choice of which shots carry the watermark.

    Shots of at least MIN_EMBED_SHOT_LEN frames are ranked by the
    splitmix64 step of (seed3 mod 2**64) XOR shot index and the first
    ceil(fraction * eligible) are taken. Returns sorted shot indices;
    deterministic in all inputs.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
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
