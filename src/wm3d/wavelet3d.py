"""3D Haar transforms, computed only where embedding reads them.

A shot is first decomposed along time: frames are padded to a power of
two by repeating the last frame, then fully reduced with orthonormal
Haar pairs ((a+b)/sqrt2, (a-b)/sqrt2) so exactly one DC frame remains.
Coefficient frames are kept in lowest-to-highest temporal frequency
order: index 0 is the DC frame, index 1 the coarsest detail frame, and
the finest details sit at the end.

Spatially, 3 levels of separable orthonormal Haar give the nested
layout (approximation at the top left). Embedding touches one level-3
subband of coefficient frames 1..8, so only those are computed, with
the full transforms' operations in their order: values are
bit-identical to them (the full transforms are the tests' oracles). A
level-3 coefficient depends only on its own 8x8 pixel block.

Synthesis only ever carries a change of those coefficients back to the
pixels, so both halves are closed-form traces of the Haar inverse:
every add in the inverse of a lone coefficient (or coefficient frame)
has a zero partner, so the traces are exact too.
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


def _haar(even, odd, high: bool, out=None) -> np.ndarray:
    """(even - odd)/sqrt2 if high else (even + odd)/sqrt2; casts to float64 first."""
    y = (np.subtract if high else np.add)(even, odd, out=out, dtype=np.float64)
    y /= _SQRT2
    return y


def temporal_forward(frames, count=None) -> np.ndarray:
    """Dyadic temporal Haar analysis of a shot.

    `frames` is a sequence of equal-shape 2-D arrays, read as given.
    Returns the (count, H, W) float64 coefficient frames; without
    `count`, all of them (the padded length). With it, only frames
    0..count-1 are computed (the whole approximation chain runs, higher
    details are skipped), bit-identical to the full volume's.
    """
    seq = [np.asarray(f) for f in frames]
    if not seq or any(f.ndim != 2 or f.shape != seq[0].shape for f in seq):
        raise ValueError("expected a nonempty (frames, H, W) stack")
    size = 1 << (len(seq) - 1).bit_length()
    count = size if count is None else min(count, size)
    coeffs = np.empty((count,) + seq[0].shape)
    # Every level's approximations go to one buffer, overwriting the
    # previous level's in place: slot j is written after pair j (slots
    # 2j, 2j+1) is read, and no later pair reads it.
    approx = np.empty(((len(seq) + 1) // 2,) + seq[0].shape)

    # A level's input is seq, then tail repeated up to size frames; a
    # (tail, tail) pair has detail 0 and gives the next level's tail.
    tail = seq[-1]
    while size > 1:
        half = size // 2
        pairs = [(seq[i], seq[i + 1] if i + 1 < len(seq) else tail)
                 for i in range(0, len(seq), 2)]
        for j, (even, odd) in enumerate(pairs):
            if half + j < count:
                _haar(even, odd, True, out=coeffs[half + j])
        coeffs[half + len(pairs) : min(size, count)] = 0.0
        if len(pairs) < half:
            tail = _haar(tail, tail, False)
        for j, (even, odd) in enumerate(pairs):
            _haar(even, odd, False, out=approx[j])
        seq = list(approx[: len(pairs)])
        size = half
    coeffs[0] = seq[0]
    return coeffs


def temporal_synthesis(length: int, count: int) -> np.ndarray:
    """(length, count) temporal synthesis matrix of a `length`-frame shot.

    Column k is the shot rebuilt from unit coefficient frame k alone,
    so changes to coefficient frames 0..count-1 reach the frames as
    this matrix times the changes. With `levels` temporal levels and
    padded length P, column k >= 1 sits at level j = floor(log2 k): it
    is +v over the first half of its P >> j frames and -v over the
    second, starting at frame (k - 2**j) * (P >> j), where v is 1.0
    divided by sqrt2 (levels - j) times. The DC column is 1.0 divided
    by sqrt2 `levels` times on every frame. Rows past `length` (the
    padding) are dropped.
    """
    levels = (length - 1).bit_length()
    size = 1 << levels
    out = np.zeros((size, count))
    for k in range(count):
        j = max(k.bit_length() - 1, 0)
        v = 1.0
        for _ in range(levels - j):
            v /= _SQRT2
        if k == 0:
            out[:, 0] = v
            continue
        span = size >> j
        start = (k - (1 << j)) * span
        out[start : start + span // 2, k] = v
        out[start + span // 2 : start + span, k] = -v
    return out[:length]


# --- one level-3 spatial subband ----------------------------------------------


def _band_filters(band: str) -> tuple:
    """(highpass within rows, highpass within columns) of a band name."""
    if band not in BANDS:
        raise ValueError(f"unknown band {band!r} (expected {'/'.join(BANDS)})")
    return band[0] == "h", band[1] == "h"


def band_forward3(x: np.ndarray, band: str) -> np.ndarray:
    """One level-3 subband of the 3-level spatial Haar of (..., H, W) frames.

    Two levels of the approximation chain, then the band's filter pair,
    in the full transform's order (within rows, then within columns).
    Returns (..., H/8, W/8) float64.
    """
    subband_rect(*np.shape(x)[-2:], band)  # checks dims, band
    high_rows, high_cols = _band_filters(band)
    x = np.asarray(x)
    for level in range(SPATIAL_LEVELS):
        last = level == SPATIAL_LEVELS - 1
        x = _haar(x[..., 0::2], x[..., 1::2], last and high_rows)
        x = _haar(x[..., 0::2, :], x[..., 1::2, :], last and high_cols)
    return x


def band_inverse3(c: np.ndarray, band: str) -> np.ndarray:
    """3-level spatial Haar synthesis of (..., h, w) coefficients of one band.

    Every add in the full inverse of the zero-padded frame has a zero
    partner, so is exact: each coefficient is divided by sqrt2 six
    times and copied to its 8x8 block, negated in the block's high half
    along each highpass direction. Returns (..., 8h, 8w) pixels.
    """
    high_rows, high_cols = _band_filters(band)
    v = np.array(c, dtype=np.float64)
    for _ in range(2 * SPATIAL_LEVELS):
        v /= _SQRT2
    half = np.repeat([1.0, -1.0], 4)
    ones = np.ones(8)
    sign = np.outer(half if high_cols else ones, half if high_rows else ones)
    *lead, h, w = v.shape
    blocks = v[..., :, None, :, None] * sign[:, None, :]
    return blocks.reshape(*lead, 8 * h, 8 * w)


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
