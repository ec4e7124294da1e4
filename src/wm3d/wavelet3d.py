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
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

_SQRT2 = math.sqrt(2.0)

SPATIAL_LEVELS = 3


@dataclass
class CoeffVolume:
    """Temporal wavelet coefficient frames of one shot.

    frames: (count, H, W) float64; frames[0] is the DC frame. A full
        volume has count == padded_length.
    original_length: shot length before padding.
    temporal_levels: dyadic levels applied (log2 of padded length).
    """

    frames: np.ndarray
    original_length: int
    temporal_levels: int

    @property
    def padded_length(self) -> int:
        return 1 << self.temporal_levels


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


def temporal_forward(frames, count=None) -> CoeffVolume:
    """Dyadic temporal Haar analysis of a shot.

    `frames` is a sequence of equal-shape 2-D arrays, read as given.
    With `count`, only coefficient frames 0..count-1 are computed (the
    whole approximation chain runs, higher details are skipped),
    bit-identical to the full volume's; temporal_inverse refuses such
    a partial volume.
    """
    seq = [np.asarray(f) for f in frames]
    if not seq or any(f.ndim != 2 or f.shape != seq[0].shape for f in seq):
        raise ValueError("expected a nonempty (frames, H, W) stack")
    n = len(seq)
    levels = (n - 1).bit_length()
    size = 1 << levels
    count = size if count is None else min(count, size)
    coeffs = np.empty((count,) + seq[0].shape)

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
        seq = [_haar(even, odd, False) for even, odd in pairs]
        size = half
    coeffs[0] = seq[0]
    return CoeffVolume(frames=coeffs, original_length=n, temporal_levels=levels)


def temporal_inverse(volume: CoeffVolume) -> np.ndarray:
    """Exact temporal synthesis; padding frames are discarded.

    Returns the first original_length frames as real-valued arrays
    (quantization back to 8 bits is the caller's business).
    """
    frames = volume.frames
    if frames.shape[0] != volume.padded_length:
        raise ValueError("cannot invert a partial coefficient volume")
    a = frames[:1]
    pos = 1
    for _ in range(volume.temporal_levels):
        m = a.shape[0]
        d = frames[pos : pos + m]
        pos += m
        out = np.empty((2 * m,) + a.shape[1:], dtype=np.float64)
        out[0::2] = (a + d) / _SQRT2
        out[1::2] = (a - d) / _SQRT2
        a = out
    return a[: volume.original_length]


# --- one level-3 spatial subband ----------------------------------------------


def _band_filters(band: str) -> tuple:
    """(highpass within rows, highpass within columns) of a band name."""
    key = band.lower()
    if key not in ("ll", "lh", "hl", "hh"):
        raise ValueError(f"unknown band {band!r} (expected ll/lh/hl/hh)")
    return key[0] == "h", key[1] == "h"


def band_forward3(x: np.ndarray, band: str) -> np.ndarray:
    """One level-3 subband of the 3-level spatial Haar of (..., H, W) frames.

    Two levels of the approximation chain, then the band's filter pair,
    in the full transform's order (within rows, then within columns).
    Returns (..., H/8, W/8) float64.
    """
    subband_rect(*np.shape(x)[-2:], band, SPATIAL_LEVELS)  # checks dims, band
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


def subband_rect(height: int, width: int, band: str, level: int) -> SubbandRect:
    """Locate a named subband in the nested coefficient layout.

    Convention: the first letter is the filter along rows (within a
    row, i.e. horizontally), the second along columns. "lh" is lowpass
    along rows and highpass along columns (vertical detail), stored
    below the approximation: rows [H/2^L, H/2^(L-1)), cols [0, W/2^L).
    """
    if level not in (1, 2, 3):
        raise ValueError(f"unsupported level {level}")
    scale = 1 << level
    if height % scale or width % scale:
        raise GeometryError(
            f"dimensions {width}x{height} not divisible by {scale} "
            f"(level {level} subband)"
        )
    high_rows, high_cols = _band_filters(band)
    rows, cols = height // scale, width // scale
    return SubbandRect(rows if high_cols else 0, cols if high_rows else 0, rows, cols)
