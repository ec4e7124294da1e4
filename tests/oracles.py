"""Reference implementations the fast paths in src/ are checked against.

Scalar versions of the neighborhood and sign rules, the full 3-level
orthonormal spatial Haar transform and its inverse (src/ computes only
the integer sums of the one subband embedding uses), the inverse of one
subband at full resolution (src/ synthesizes on the band grid), the full
orthonormal temporal inverse (src/ uses the exact inverse of its integer
analysis), the whole-volume 3D transform, the paper's float update of
orthonormal coefficients (src/ applies it to the integer sums), and
whole-frame embedding and extraction: every frame of a shot goes through
the full temporal and spatial transforms, forward and inverse, as the
crop-based path in wm3d.embed avoids doing. Also the sequential
splitmix64 generator and Fisher-Yates shuffle, the watermark preparation
one plane and one cell at a time (wm3d.wmprep works on the whole plane
stack), the noise attack drawn one pixel at a time, the pairwise
histogram distance of shot detection, the compression proxy's rounding,
the float64 luma rounding, averaging and PSNR, the per-block DCT round
trip the compression proxy used before its separable products, and
scipy's DCT round trip for the compression proxy; scipy is imported only
when that oracle runs, since wm3d itself needs numpy only.
"""

import math
from statistics import NormalDist

import numpy as np

from wm3d.attacks import _DCT, _quantize_into
from wm3d.embed import _NEIGHBOR_OFFSETS, _window_signs
from wm3d.errors import GeometryError
from wm3d.metrics import _psnr_from_mse
from wm3d.shots import HIST_BINS
from wm3d.wavelet3d import SPATIAL_LEVELS, band_pattern
from wm3d.wmprep import restore_bitplanes

_SQRT2 = math.sqrt(2.0)
MASK64 = (1 << 64) - 1


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


def prepare_sign_planes_seq(watermark, seed1: int, seed2: int) -> np.ndarray:
    """wm3d.wmprep.prepare_sign_planes from its definition alone, plane by
    plane and cell by cell: output position t of bitplane b takes input
    position fisher_yates(H * W, seed1)[t] (row-major), and cell (i, j) is
    then XORed with the low bit of mix(mix(mix(seed2 ^ b) ^ i) ^ j), mix
    one sequential splitmix64 step; bit 1 -> +1, 0 -> -1."""
    def mix(x):
        return SplitMix64(x).next_u64()

    wm = np.asarray(watermark, dtype=np.uint8)
    h, w = wm.shape
    perm = fisher_yates(h * w, seed1)
    out = np.empty((8, h, w), dtype=np.int8)
    for b in range(8):
        moved = ((wm >> b) & 1).ravel()[perm].reshape(h, w)
        base = mix((seed2 ^ b) & MASK64)
        for i in range(h):
            row = mix(base ^ i)
            for j in range(w):
                out[b, i, j] = 1 if int(moved[i, j]) ^ (mix(row ^ j) & 1) else -1
    return out


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


def embed_window(sub, sign_plane, win, alpha) -> tuple:
    """The paper's update of subband regions, in float64.

    `sub` is (..., h, w), one region of a band per plane of the matching
    (..., wm_h, wm_w) `sign_plane`; the window `win` is a pair of row and
    column slices into each, as wm3d.embed._window_crop returns. Realized
    signs come from the unmodified regions, then every window coefficient
    is scaled by (1 + alpha * sign). Returns (modified regions, realized
    planes).
    """
    out = np.array(sub, dtype=np.float64)
    realized = _window_signs(out, sign_plane, win)
    out[(..., *win)] *= 1.0 + alpha * realized
    return out, realized


def _band_window(params, shape, plane) -> tuple:
    """The slices of the band named by params.band in a whole frame of
    `shape`, and of the window at (region_row0, region_col0) in that band,
    sized by `plane`."""
    (h, w), r0, c0 = np.shape(plane), params.region_row0, params.region_col0
    return params.rect_for(*shape).slices(), (slice(r0, r0 + h), slice(c0, c0 + w))


def embed_plane(frame, sign_plane, params) -> tuple:
    """embed_window on a whole coefficient frame.

    The subband named by params.band is cut out, marked in the window at
    (region_row0, region_col0) and put back. Returns (modified frame,
    realized sign plane).
    """
    out = np.array(frame, dtype=np.float64)
    band, win = _band_window(params, out.shape, sign_plane)
    out[band], realized = embed_window(out[band], sign_plane, win, params.alpha)
    return out, realized


def extract_plane(frame, key_plane, params) -> np.ndarray:
    """Extraction's sign rule (wm3d.embed._window_signs) on a whole
    coefficient frame, in the window of the band named by params.band
    at (region_row0, region_col0), sized by the key plane."""
    arr = np.asarray(frame, dtype=np.float64)
    band, win = _band_window(params, arr.shape, key_plane)
    return _window_signs(arr[band], key_plane, win)


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
    recovered = [extract_plane(coeffs[k], key_planes[k - 1], params) for k in range(1, 9)]
    return restore_bitplanes(np.stack(recovered), seed1, seed2)


def noise_pixels(frames, sigma: float, seed: int) -> list:
    """The noise attack one pixel at a time, from its definition alone.

    Pixel i of the clip (frames in order, each row-major) takes the 16-bit
    piece i % 4 of sequential splitmix64 output i // 4, lowest bits first,
    as u; its value p becomes p + floor(sigma * z + 0.5), z the normal
    quantile at (u + 0.5) / 65536, with the step clipped to [-255, 255]
    and the sum to [0, 255]. sigma * z must be finite.
    """
    inv_cdf = NormalDist().inv_cdf
    rng = SplitMix64(seed)
    i = 0
    out = []
    for frame in frames:
        noisy = np.empty_like(frame)
        for index, p in np.ndenumerate(frame):
            if i % 4 == 0:
                word = rng.next_u64()
            u = (word >> (16 * (i % 4))) & 0xFFFF
            step = math.floor(sigma * inv_cdf((u + 0.5) / 65536) + 0.5)
            noisy[index] = min(max(int(p) + min(max(step, -255), 255), 0), 255)
            i += 1
        out.append(noisy)
    return out


def round_half_away(x: np.ndarray) -> np.ndarray:
    """floor(|x| + 0.5) with the sign of x, in float64: halves round away
    from zero, and so does 0.49999999999999994 (see
    wm3d.attacks._round_half_away)."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


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


def quantize_luma(x: np.ndarray) -> np.ndarray:
    """round_half_away, clamped to the 8-bit luma range.

    For x >= 0, floor(x + 0.5) is exactly round_half_away's
    floor(|x| + 0.5); negative inputs clamp to 0 either way.
    """
    y = np.array(x, dtype=np.float64)
    out = np.empty(y.shape, dtype=np.uint8)
    _quantize_into(out, y)
    return out


def compress_frame_blocks(frame: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The compression proxy's round trip as one 8x8 product per block."""
    h, w = frame.shape
    x = frame.astype(np.float64) - 128.0
    blocks = x.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    coeffs = round_half_away(_DCT @ blocks @ _DCT.T / table) * table
    back = _DCT.T @ coeffs @ _DCT
    return quantize_luma(back.transpose(0, 2, 1, 3).reshape(h, w) + 128.0)


def average_frames_float(frames) -> list:
    """The averaging attack's frames through a float64 mean of three."""
    out = [frames[0].copy()]
    for k in range(1, len(frames) - 1):
        mean = (frames[k - 1].astype(np.float64) + frames[k] + frames[k + 1]) / 3.0
        out.append(quantize_luma(mean))
    return out + [frames[-1].copy()]


def psnr_frames_float(a, b) -> list:
    """Per-frame PSNR from the float64 mean of int32 squared differences."""
    values = []
    for fa, fb in zip(a, b):
        d = fa.astype(np.int32) - fb
        values.append(_psnr_from_mse(float(np.mean(d * d, dtype=np.float64))))
    return values
