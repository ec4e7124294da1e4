"""3D Haar transforms, computed only where embedding reads them, in integers.

A shot is decomposed along time as the Haar transform does: frames are
padded to a power of two by repeating the last frame, then fully
reduced by pair sums and differences, so exactly one DC frame remains.
Coefficient frames are kept in lowest-to-highest temporal frequency
order: index 0 is the DC frame, index 1 the coarsest detail frame, and
the finest details sit at the end. Spatially, 3 levels of separable
Haar give the nested layout (approximation at the top left).

Embedding touches one level-3 subband of coefficient frames 1..8, so
only that is computed, in closed form and unnormalized: band_sums gives
each 8x8 pixel block's sum under the band's +-1 sign pattern (int16),
and temporal_analysis the +-1 combination of frames that makes each
coefficient frame (int64). An orthonormal coefficient is such an
integer divided by 8 and by the square root of the frames its temporal
row spans: one positive factor per coefficient frame, so comparisons
within a frame, ties included, are decided exactly on the integers.
Float Haar chains (the full transforms, kept as the tests' oracles) let
rounding noise of about 1e-14 decide ties.

temporal_synthesis is the exact inverse of the integer analysis, each
row divided by its span, a power of two; with the band's sign pattern
it carries an integer change back to the pixels (see wm3d.embed).
"""

from typing import NamedTuple

import numpy as np

from .errors import GeometryError

SPATIAL_LEVELS = 3

# The level-3 subbands; the first letter is the filter along rows.
BANDS = ("ll3", "lh3", "hl3", "hh3")


class SubbandRect(NamedTuple):
    row0: int
    col0: int
    rows: int
    cols: int

    def slices(self):
        return (
            slice(self.row0, self.row0 + self.rows),
            slice(self.col0, self.col0 + self.cols),
        )


def _haar_rows(length: int, count: int, frames: int) -> np.ndarray:
    """(count, frames) int64 rows 0..count-1 of the temporal Haar basis
    of a `length`-frame shot, over the first `frames` of its P frames.

    Row 0 (DC) is +1 on all P frames. Row k >= 1, at level
    j = floor(log2 k), is +1 over the first half of its span = P >> j
    frames and -1 over the second, from frame (k - 2**j) * span.
    """
    size = 1 << (length - 1).bit_length()
    rows = np.zeros((count, frames), dtype=np.int64)
    rows[0] = 1
    for k in range(1, count):
        j = k.bit_length() - 1
        span = size >> j
        start = (k - (1 << j)) * span
        rows[k, start : start + span // 2] = 1
        rows[k, start + span // 2 : start + span] = -1
    return rows


def temporal_analysis(length: int, count: int, received: int | None = None) -> np.ndarray:
    """Closed-form temporal Haar analysis of a `length`-frame shot.

    Returns a (count, received) int64 matrix, received defaulting to
    length: matrix[k] @ x is coefficient frame k of frames x times the
    square root of the frames row k spans. The padding to P frames
    repeats the last frame, as do the frames from `received` on, so
    their entries fold onto the last column; memory follows `received`.
    """
    last = (length if received is None else received) - 1
    matrix = _haar_rows(length, count, last + 1)
    # a detail row sums to 0 over the P frames, the DC row to P
    matrix[:, last] = 0
    matrix[:, last] = -matrix.sum(axis=1)
    matrix[0, last] = (1 << (length - 1).bit_length()) - last
    return matrix


def temporal_synthesis(length: int, count: int) -> np.ndarray:
    """(length, count) exact inverse of the integer temporal analysis:
    row k of its basis divided by its span, a power of two, padding
    frames dropped."""
    rows = _haar_rows(length, count, 1 << (length - 1).bit_length())
    return (rows / np.abs(rows).sum(axis=1, keepdims=True))[:, :length].T


# --- one level-3 spatial subband ----------------------------------------------


def _band_filters(band: str) -> tuple:
    """(highpass within rows, highpass within columns) of a band name."""
    if band not in BANDS:
        raise ValueError(f"unknown band {band!r} (expected {'/'.join(BANDS)})")
    return band[0] == "h", band[1] == "h"


def band_pattern(band: str) -> np.ndarray:
    """(8, 8) +-1 float64 sign pattern of a band's level-3 basis block:
    -1 in the block's high half along each highpass direction."""
    high_rows, high_cols = _band_filters(band)
    half = np.repeat([1.0, -1.0], 4)
    ones = np.ones(8)
    return np.outer(half if high_cols else ones, half if high_rows else ones)


def band_sums(frames: np.ndarray, band: str) -> np.ndarray:
    """8 times one level-3 subband of (..., H, W) uint8 frames, exactly.

    Each is an 8x8 block's pixel sum under the band's sign pattern,
    from three levels of pair adds of whole rows, then three of
    strided column pairs (a subtract at the last level along a highpass
    direction), in int16, which holds them: |sum| <= 8 * 255 after the
    rows and 64 * 255 at the end. Returns (..., H/8, W/8) int16.
    """
    x = np.asarray(frames)
    if x.dtype != np.uint8:
        raise ValueError(f"band sums need uint8 frames, got {x.dtype}")
    subband_rect(*x.shape[-2:], band)  # checks dims, band
    high_rows, high_cols = _band_filters(band)
    for level in range(SPATIAL_LEVELS):
        op = np.subtract if level == SPATIAL_LEVELS - 1 and high_cols else np.add
        x = op(x[..., 0::2, :], x[..., 1::2, :], dtype=np.int16)
    for level in range(SPATIAL_LEVELS):
        op = np.subtract if level == SPATIAL_LEVELS - 1 and high_rows else np.add
        x = op(x[..., 0::2], x[..., 1::2], dtype=np.int16)
    return x


def subband_rect(height: int, width: int, band: str) -> SubbandRect:
    """Locate a level-3 subband in the nested coefficient layout.

    Convention: the first letter is the filter along rows (within a
    row, i.e. horizontally), the second along columns. "lh3" is lowpass
    along rows and highpass along columns (vertical detail), stored
    below the approximation: rows [H/8, H/4), cols [0, W/8).
    """
    high_rows, high_cols = _band_filters(band)
    scale = 1 << SPATIAL_LEVELS
    if height % scale or width % scale:
        raise GeometryError(
            f"dimensions {width}x{height} not divisible by {scale} "
            f"(level-{SPATIAL_LEVELS} subband)"
        )
    rows, cols = height // scale, width // scale
    return SubbandRect(rows if high_cols else 0, cols if high_rows else 0, rows, cols)
