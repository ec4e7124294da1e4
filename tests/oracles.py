"""Reference implementations the fast paths in src/ are checked against.

Scalar versions of the neighborhood and sign rules, the whole-volume
3D transform, and whole-frame embedding and extraction: every frame of
a shot goes through the full temporal and spatial transforms, forward
and inverse, as the crop-based path in wm3d.embed avoids doing. Also
scipy's DCT round trip for the compression proxy; scipy is imported
only when that oracle runs, since wm3d itself needs numpy only.
"""

from dataclasses import replace

import numpy as np

from wm3d.embed import _NEIGHBOR_OFFSETS, embed_plane
from wm3d.extract import extract_plane
from wm3d.media_io import round_half_away
from wm3d.prng import stream
from wm3d.wavelet3d import (
    spatial_forward3,
    spatial_inverse3,
    temporal_forward,
    temporal_inverse,
)
from wm3d.wmprep import undisorder, unpermute


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


def spatial_forward3_volume(volume):
    """Apply the 3-level spatial transform to every coefficient frame."""
    return replace(volume, frames=spatial_forward3(volume.frames))


def spatial_inverse3_volume(volume):
    """Invert the per-frame spatial transform of a volume."""
    return replace(volume, frames=spatial_inverse3(volume.frames))


def embed_shot_full(frames, sign_planes, params) -> tuple:
    """Whole-frame embedding; returns (pre-rounding frames, realized planes)."""
    volume = spatial_forward3_volume(temporal_forward(frames))
    coeffs = volume.frames
    realized = np.empty_like(sign_planes, dtype=np.int8)
    for k in range(1, 9):
        coeffs[k], realized[k - 1] = embed_plane(
            coeffs[k], sign_planes[k - 1], params
        )
    rebuilt = temporal_inverse(
        spatial_inverse3_volume(replace(volume, frames=coeffs))
    )
    return rebuilt, realized


def extract_planes_full(frames, key_planes, seed1, seed2, params) -> np.ndarray:
    """Whole-frame extraction of the 8 bitplanes of one shot."""
    coeffs = spatial_forward3_volume(temporal_forward(frames)).frames
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
