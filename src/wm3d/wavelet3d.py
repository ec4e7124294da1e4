"""3D Haar transforms, computed only where embedding reads them.

A shot is first decomposed along time: frames are padded to a power of
two by repeating the last frame, then fully reduced with orthonormal
Haar pairs ((a+b)/sqrt2, (a-b)/sqrt2) so exactly one DC frame remains.
Coefficient frames are kept in lowest-to-highest temporal frequency
order: index 0 is the DC frame, index 1 the coarsest detail frame, and
the finest details sit at the end.

Spatially, 3 levels of separable orthonormal Haar give the nested
layout (approximation at the top left). Embedding touches one level-3
subband of coefficient frames 1..8, so only those are computed, in
closed form and exactly: a level-3 coefficient is its 8x8 pixel
block's signed sum divided by 8 (band_sums), and a temporal coefficient
frame is an integer +-1 combination of frames times one scale
(temporal_analysis). So two coefficients of a frame tie exactly when
their integer sums do; float Haar chains (the full transforms, kept as
the tests' oracles) let rounding noise of about 1e-14 decide.

Synthesis carries a change of those coefficients back to the pixels
through the same sign patterns: every add in the Haar inverse of a lone
coefficient (or coefficient frame) has a zero partner, so it is exact.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

_SQRT2 = math.sqrt(2.0)

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


def _haar_rows(length: int, count: int) -> tuple:
    """(count, P) int64 temporal Haar basis rows of a `length`-frame shot
    (P its padded length) and the (count,) scales that normalize them.

    Row 0 (DC) is +1 on all P frames. Row k >= 1, at level
    j = floor(log2 k), is +1 over the first half of its span = P >> j
    frames and -1 over the second, from frame (k - 2**j) * span. A
    row's scale is 1.0 divided by sqrt2 log2(span) times.
    """
    size = 1 << (length - 1).bit_length()
    rows = np.zeros((count, size), dtype=np.int64)
    scale = np.empty(count)
    for k in range(count):
        j = max(k.bit_length() - 1, 0)
        span = size >> j
        start = (k - (1 << j)) * span if k else 0
        rows[k, start : start + span] = 1
        if k:
            rows[k, start + span // 2 : start + span] = -1
        v = 1.0
        for _ in range(span.bit_length() - 1):
            v /= _SQRT2
        scale[k] = v
    return rows, scale


def temporal_analysis(length: int, count: int) -> tuple:
    """Closed-form temporal Haar analysis of a `length`-frame shot.

    Returns ((count, length) int64 matrix, (count,) float64 scales):
    coefficient frame k of frames x is scale[k] * (matrix[k] @ x). The
    padding repeats the last frame, so its entries are folded onto
    column length-1. On integer frames the product is exact.
    """
    rows, scale = _haar_rows(length, count)
    matrix = rows[:, :length].copy()
    matrix[:, -1] += rows[:, length:].sum(axis=1)
    return matrix, scale


def temporal_synthesis(length: int, count: int) -> np.ndarray:
    """(length, count) temporal synthesis matrix of a `length`-frame shot.

    Column k is the shot rebuilt from unit coefficient frame k alone:
    row k of the analysis basis times its scale, padding rows dropped.
    Changes to coefficient frames 0..count-1 reach the frames as this
    matrix times the changes.
    """
    rows, scale = _haar_rows(length, count)
    return (rows[:, :length] * scale[:, None]).T


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


def band_unscale(c: np.ndarray) -> np.ndarray:
    """Float64 copy of level-3 coefficients divided by sqrt2 six times:
    what each puts, up to the band's sign, on every pixel of its block
    in the full inverse."""
    v = np.array(c, dtype=np.float64)
    for _ in range(2 * SPATIAL_LEVELS):
        v /= _SQRT2
    return v


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
