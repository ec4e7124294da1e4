"""Reference implementations the fast paths in src/ are checked against.

Scalar versions of the neighborhood and sign rules, the full 3-level
orthonormal spatial Haar transform and its inverse (src/ computes only
the integer sums of the one subband embedding uses), the inverse of one
subband at full resolution (src/ synthesizes on the band grid), the
full orthonormal temporal inverse (src/ uses the exact inverse of its
integer analysis), the whole-volume 3D transform, the paper's float
update of orthonormal coefficients (src/ applies it to the integer
sums), and whole-frame embedding and extraction: every frame of a shot
goes through the full temporal and spatial transforms, forward and
inverse, as the crop-based path in wm3d.embed avoids doing. Also the
sequential splitmix64 generator and Fisher-Yates shuffle, the pairwise
histogram distance of shot detection, and scipy's DCT round trip for
the compression proxy; scipy is imported only when that oracle runs,
since wm3d itself needs numpy only.
"""

import math

import numpy as np

from wm3d import extract
from wm3d.embed import _NEIGHBOR_OFFSETS, _window_signs
from wm3d.errors import GeometryError
from wm3d.media_io import round_half_away
from wm3d.prng import MASK64, stream
from wm3d.shots import HIST_BINS
from wm3d.wavelet3d import SPATIAL_LEVELS, band_pattern
from wm3d.wmprep import undisorder, unpermute

_SQRT2 = math.sqrt(2.0)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def fisher_yates(n: int, seed: int) -> np.ndarray:
    """wm3d.prng.permutation drawn one sequential splitmix64 value at a time."""
    rng = SplitMix64(seed)
    p = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def histogram_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized L1 distance between two frames' 64-bin luma histograms.

    0 for identical histograms, 1 when no pixel mass shares a bin.
    """
    ha, _ = np.histogram(a, bins=HIST_BINS, range=(0, 256))
    hb, _ = np.histogram(b, bins=HIST_BINS, range=(0, 256))
    return float(np.sum(np.abs(ha - hb))) / (2.0 * a.size)


def neighbor_max(frame: np.ndarray, rect, i: int, j: int) -> float:
    """Max coefficient among the in-subband neighbors of (i, j).

    Coordinates are absolute frame positions; the 8-neighborhood is
    clipped at the subband boundary, so nothing outside `rect` is read.
    """
    arr = np.asarray(frame)
    rows, cols = rect.slices()
    if not (rows.start <= i < rows.stop and cols.start <= j < cols.stop):
        raise ValueError(f"position ({i},{j}) outside subband {rect}")
    best = None
    for di, dj in _NEIGHBOR_OFFSETS:
        r, c = i + di, j + dj
        if rows.start <= r < rows.stop and cols.start <= c < cols.stop:
            v = float(arr[r, c])
            if best is None or v > best:
                best = v
    if best is None:
        raise ValueError("subband too small: position has no neighbors")
    return best


def spread_sign(t: float, r: float, wd: int) -> int:
    """Realized sign for one coefficient.

    +1 when the neighborhood max t lies strictly on the side named by
    the prepared sign (above for +1, below for -1); -1 otherwise, ties
    included.
    """
    if t > r and wd == 1:
        return 1
    if t < r and wd == -1:
        return 1
    return -1


def temporal_inverse(coeffs, length: int) -> np.ndarray:
    """Exact temporal synthesis of a full coefficient volume.

    `coeffs` holds all padded-length coefficient frames (any trailing
    shape); returns the first `length` rebuilt frames, padding dropped.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    levels = (length - 1).bit_length()
    if coeffs.shape[0] != 1 << levels:
        raise ValueError("cannot invert a partial coefficient volume")
    a = coeffs[:1]
    pos = 1
    for _ in range(levels):
        m = a.shape[0]
        d = coeffs[pos : pos + m]
        pos += m
        out = np.empty((2 * m,) + a.shape[1:], dtype=np.float64)
        out[0::2] = (a + d) / _SQRT2
        out[1::2] = (a - d) / _SQRT2
        a = out
    return a[:length]


def coefficient_spans(length: int, count: int) -> np.ndarray:
    """Frames that each of temporal coefficient frames 0..count-1 of a
    `length`-frame shot spans in the padded shot: the integer analysis
    of wm3d.wavelet3d is the orthonormal one times their square roots."""
    size = 1 << (length - 1).bit_length()
    return np.array([size >> max(k.bit_length() - 1, 0) for k in range(count)])


def temporal_forward_stacked(frames) -> np.ndarray:
    """All temporal coefficient frames from one padded float64 stack.

    The straightforward float form of the temporal Haar analysis: pad by
    repeating the last frame, then halve the whole stack per level.
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[0]
    n2 = 1 << (n - 1).bit_length()
    x = np.concatenate([x, np.repeat(x[-1:], n2 - n, axis=0)], axis=0)
    details = []
    while x.shape[0] > 1:
        even, odd = x[0::2], x[1::2]
        details.append((even - odd) / _SQRT2)
        x = (even + odd) / _SQRT2
    return np.concatenate([x, *reversed(details)], axis=0)


def _fwd_w(x):
    a = (x[..., 0::2] + x[..., 1::2]) / _SQRT2
    d = (x[..., 0::2] - x[..., 1::2]) / _SQRT2
    return np.concatenate([a, d], axis=-1)


def _fwd_h(x):
    a = (x[..., 0::2, :] + x[..., 1::2, :]) / _SQRT2
    d = (x[..., 0::2, :] - x[..., 1::2, :]) / _SQRT2
    return np.concatenate([a, d], axis=-2)


def _inv_w(x):
    half = x.shape[-1] // 2
    a, d = x[..., :half], x[..., half:]
    out = np.empty_like(x)
    out[..., 0::2] = (a + d) / _SQRT2
    out[..., 1::2] = (a - d) / _SQRT2
    return out


def _inv_h(x):
    half = x.shape[-2] // 2
    a, d = x[..., :half, :], x[..., half:, :]
    out = np.empty_like(x)
    out[..., 0::2, :] = (a + d) / _SQRT2
    out[..., 1::2, :] = (a - d) / _SQRT2
    return out


def _require_div8(h: int, w: int) -> None:
    if h % 8 or w % 8:
        raise GeometryError(
            f"frame dimensions {w}x{h} not divisible by 8 "
            f"(required for a 3-level spatial transform)"
        )


def spatial_forward3(x: np.ndarray) -> np.ndarray:
    """3-level separable orthonormal Haar analysis of (..., H, W) frames."""
    h, w = np.shape(x)[-2:]
    _require_div8(h, w)
    x = np.array(x, dtype=np.float64)
    for level in range(SPATIAL_LEVELS):
        hh, ww = h >> level, w >> level
        x[..., :hh, :ww] = _fwd_h(_fwd_w(x[..., :hh, :ww]))
    return x


def spatial_inverse3(x: np.ndarray) -> np.ndarray:
    """Exact inverse of spatial_forward3."""
    h, w = np.shape(x)[-2:]
    _require_div8(h, w)
    x = np.array(x, dtype=np.float64)
    for level in (2, 1, 0):
        hh, ww = h >> level, w >> level
        x[..., :hh, :ww] = _inv_w(_inv_h(x[..., :hh, :ww]))
    return x


def band_unscale(c: np.ndarray) -> np.ndarray:
    """Float64 copy of level-3 coefficients divided by sqrt2 six times:
    what each puts, up to the band's sign, on every pixel of its block
    in the full inverse."""
    v = np.array(c, dtype=np.float64)
    for _ in range(2 * SPATIAL_LEVELS):
        v /= _SQRT2
    return v


def band_inverse3(c: np.ndarray, band: str) -> np.ndarray:
    """3-level spatial Haar synthesis of (..., h, w) coefficients of one band.

    Every add in the full inverse of the zero-padded frame has a zero
    partner, so is exact: each coefficient goes through band_unscale
    and is copied to its 8x8 block under band_pattern. Returns
    (..., 8h, 8w) pixels.
    """
    v = band_unscale(c)
    *lead, h, w = v.shape
    blocks = v[..., :, None, :, None] * band_pattern(band)[:, None, :]
    return blocks.reshape(*lead, 8 * h, 8 * w)


def embed_window(sub, sign_plane, params) -> tuple:
    """The paper's update of subband regions, in float64.

    `sub` is (..., h, w), one region of the band named by params.band
    per plane of the matching (..., wm_h, wm_w) `sign_plane`; the window
    sits at (region_row0, region_col0) of each. Realized signs come from
    the unmodified regions, then every window coefficient is scaled by
    (1 + alpha * sign). Returns (modified regions, realized planes).
    """
    out = np.array(sub, dtype=np.float64)
    win, realized = _window_signs(out, sign_plane, params, "sign")
    out[win] *= 1.0 + params.alpha * realized
    return out, realized


def embed_plane(frame, sign_plane, params) -> tuple:
    """embed_window on a whole coefficient frame.

    The subband named by params.band is cut out, marked and put back.
    Returns (modified frame, realized sign plane).
    """
    out = np.array(frame, dtype=np.float64)
    band = params.rect_for(*out.shape).slices()
    out[band], realized = embed_window(out[band], sign_plane, params)
    return out, realized


def extract_plane(frame, key_plane, params) -> np.ndarray:
    """wm3d.extract.extract_plane on a whole coefficient frame."""
    arr = np.asarray(frame, dtype=np.float64)
    band = params.rect_for(*arr.shape).slices()
    return extract.extract_plane(arr[band], key_plane, params)


def embed_shot_full(frames, sign_planes, params) -> tuple:
    """Whole-frame embedding; returns (pre-rounding frames, realized planes)."""
    coeffs = spatial_forward3(temporal_forward_stacked(frames))
    realized = np.empty_like(sign_planes, dtype=np.int8)
    for k in range(1, 9):
        coeffs[k], realized[k - 1] = embed_plane(
            coeffs[k], sign_planes[k - 1], params
        )
    rebuilt = temporal_inverse(spatial_inverse3(coeffs), len(frames))
    return rebuilt, realized


def extract_planes_full(frames, key_planes, seed1, seed2, params) -> np.ndarray:
    """Whole-frame extraction of the 8 bitplanes of one shot."""
    coeffs = spatial_forward3(temporal_forward_stacked(frames))
    bits = []
    for k in range(1, 9):
        recovered = extract_plane(coeffs[k], key_planes[k - 1], params)
        bits.append(unpermute(undisorder(recovered, k - 1, seed2), seed1))
    return np.stack(bits)


def gaussian_one_shot(seed: int, count: int) -> np.ndarray:
    """All `count` Box-Muller deviates drawn in one piece."""
    pairs = (count + 1) // 2
    raw = stream(seed, 2 * pairs)
    u1 = (raw[:pairs].astype(np.float64) + 1.0) * 2.0**-64
    u2 = raw[pairs:].astype(np.float64) * 2.0**-64
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:count]


def compress_frame_scipy(frame: np.ndarray, table: np.ndarray) -> tuple:
    """The compression proxy's 8x8 block DCT round trip through scipy.fft.

    Returns (coeff / table per block, shape (H/8, W/8, 8, 8); the
    reconstructed frame before the final rounding, shape (H, W)).
    """
    from scipy.fft import dctn, idctn

    h, w = frame.shape
    x = frame.astype(np.float64) - 128.0
    blocks = x.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    ratio = dctn(blocks, axes=(-2, -1), norm="ortho") / table
    back = idctn(round_half_away(ratio) * table, axes=(-2, -1), norm="ortho")
    return ratio, back.transpose(0, 2, 1, 3).reshape(h, w) + 128.0
