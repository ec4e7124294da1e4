"""Spread-spectrum embedding of prepared sign planes into a video.

Bitplane b of the watermark, prepared by wmprep.prepare_sign_planes, goes to
temporal coefficient frame b+1 (the DC frame is never touched), inside one
window of a level-3 subband, so the least significant plane rides on the
coarsest temporal detail. A level-3 coefficient depends only on its own 8x8
pixel block, so each selected shot is worked on through one block-aligned
crop, the window's blocks plus a 1-coefficient halo, which _window_crop
returns with the window's pair of slices in the crop's subband; it refuses a
subband of one coefficient, which has no neighbor. Other pixels are copied.
EmbedParams, the strength, band and offset, is declared with its rules in
wm3d.keyfile, beside the key that stores them.

The realized sign r of a position is +1 where its neighborhood max lies
strictly on the side its prepared sign names, else -1, ties included;
the realized signs are the key extraction needs. The paper's update
scales each window coefficient by (1 + alpha * r). It is relative, so
it runs on the integer sums E of wm3d.wavelet3d, a positive multiple of
the orthonormal coefficients per frame, and ties are exact. Frame f's
change under the band's +-1 sign pattern on each 8x8 block is
d[f] = sum_k S[f, k] * r_k * E_k * alpha / 64, S the temporal synthesis
matrix (entries 0 or +-1 over a power of two): exact in float64 in any
summation order but for the one multiply by alpha. A crop pixel p
becomes p + floor(+-d + 0.5), clipped to [0, 255]. A whole-frame float
round trip (a test oracle) may differ in blocks of exact neighbor ties,
which its rounding noise decides, and where d is exactly k + 0.5, which
it misses by up to 1e-9.
"""

from dataclasses import replace

import numpy as np

from .errors import GeometryError
from .keyfile import EmbedParams, KeyBundle, ShotRecord
from .media_io import VideoClip
from .prng import MASK64
from .shots import (
    DEFAULT_THRESHOLD,
    MIN_EMBED_SHOT_LEN,
    PLANE_COUNT,
    detect_shots,
    select_shots,
    shot_spans,
    validate_boundaries,
)
from .wavelet3d import (
    SPATIAL_LEVELS,
    band_pattern,
    band_sums,
    temporal_analysis,
    temporal_synthesis,
)
from .wmprep import prepare_sign_planes

_NEIGHBOR_OFFSETS = [
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
]


def _neighbor_max_grid(sub: np.ndarray) -> np.ndarray:
    """Neighbor max at every position of (..., h, w) subband regions at once."""
    *lead, h, w = sub.shape
    low = -np.inf if sub.dtype.kind == "f" else np.iinfo(sub.dtype).min
    padded = np.full((*lead, h + 2, w + 2), low, dtype=sub.dtype)
    padded[..., 1:-1, 1:-1] = sub
    stack = [
        padded[..., 1 + di : 1 + di + h, 1 + dj : 1 + dj + w]
        for di, dj in _NEIGHBOR_OFFSETS
    ]
    return np.max(stack, axis=0)


def _window_signs(sub, plane, win) -> np.ndarray:
    """Signs of the window `win` (slices from _window_crop) of (..., h, w)
    regions, for matching (..., wm_h, wm_w) +-1 planes: +1 where the
    neighbor max lies strictly on the side the plane names (above for
    +1), else -1. Embed keeps these as the realized signs; given those,
    extraction decodes the key sign where the neighbor max lies above
    the coefficient, its negation where it lies below, and -1 at a tie."""
    arr = np.asarray(sub)
    wd = np.asarray(plane)
    if np.any((wd != 1) & (wd != -1)):
        raise ValueError("plane values must be +1 or -1")
    win = (..., *win)
    t, r = _neighbor_max_grid(arr)[win], arr[win]
    if wd.shape != r.shape:
        raise ValueError(f"planes {wd.shape} do not match windows {r.shape}")
    hit = ((t > r) & (wd == 1)) | ((t < r) & (wd == -1))
    return np.where(hit, 1, -1).astype(np.int8)


def _window_crop(params: EmbedParams, height, width, wm_h, wm_w) -> tuple:
    """(crop, win): pixel slices of the crop holding every coefficient the
    window's update reads (its 8x8 blocks plus the 1-coefficient halo of
    the neighbor max, clipped at the subband edge), and the window's
    slices in the crop's subband. GeometryError if the window does not
    fit, or the subband is one coefficient, which has no neighbor.
    """
    rect = params.rect_for(height, width)
    r0, c0 = params.region_row0, params.region_col0
    if r0 + wm_h > rect.rows or c0 + wm_w > rect.cols:
        raise GeometryError(
            f"watermark {wm_w}x{wm_h} at offset ({r0},{c0}) does not fit "
            f"subband {params.band} of {rect.cols}x{rect.rows} coefficients"
        )
    if rect.rows * rect.cols < 2:
        raise GeometryError(
            f"subband too small: {width}x{height} frames give it one coefficient"
        )
    top, left = max(r0 - 1, 0), max(c0 - 1, 0)
    bottom, right = min(r0 + wm_h + 1, rect.rows), min(c0 + wm_w + 1, rect.cols)
    b = 1 << SPATIAL_LEVELS
    crop = slice(b * top, b * bottom), slice(b * left, b * right)
    win = slice(r0 - top, r0 - top + wm_h), slice(c0 - left, c0 - left + wm_w)
    return crop, win


def _crop_coeffs(frames, crop, band: str, length: int | None = None) -> np.ndarray:
    """(8, h, w) int64 sums E of `band` in a crop's temporal coefficient
    frames 1..8, from the uint8 frames' band sums (other dtypes raise
    ValueError). `frames` begin a `length`-frame shot (default all of
    it) whose other frames repeat the last one given."""
    sums = np.stack([band_sums(np.asarray(f)[crop], band) for f in frames])
    matrix = temporal_analysis(length or len(frames), PLANE_COUNT + 1, len(frames))
    return np.tensordot(matrix[1:], sums, axes=1)


def embed_shot(frames, sign_planes: np.ndarray, params: EmbedParams) -> tuple:
    """Watermark one shot of 8-bit frames; returns (quantized frames,
    realized planes). A crop pixel p under the band's sign s becomes
    p + round-half-up(s*d), clipped to [0, 255] in int16."""
    n = len(frames)
    if n < MIN_EMBED_SHOT_LEN:
        raise GeometryError(
            f"shot of {n} frames too short to embed "
            f"(minimum {MIN_EMBED_SHOT_LEN})"
        )
    planes = np.asarray(sign_planes)
    if planes.shape[0] != PLANE_COUNT:
        raise ValueError(f"expected {PLANE_COUNT} sign planes")

    crop, win = _window_crop(params, *np.shape(frames[0]), *planes.shape[1:])
    sums = _crop_coeffs(frames, crop, params.band)
    realized = _window_signs(sums, planes, win)
    spread = np.zeros_like(sums)
    spread[(..., *win)] = realized * sums[(..., *win)]
    # terms E_k / span_k are below 64 * 255 and multiples of 1 / P, so
    # their 8-term sums are exact in float64 for P up to 2**36 frames
    synthesis = temporal_synthesis(n, PLANE_COUNT + 1)[:, 1:]
    change = np.tensordot(synthesis, spread, axes=1) * (params.alpha / 64)

    # Each of the 8 coefficient frames moves a pixel by at most
    # alpha * 255, so |step| <= 8 * 255 and p + step fit int16.
    steps = np.floor(np.stack([change, -change], axis=1) + 0.5).astype(np.int16)
    # s is constant on each (row half, column) of a block: 0 steps +d, 1 -d
    side = (band_pattern(params.band)[::4] < 0).astype(np.intp)
    h, w = sums.shape[1:]
    total = np.empty((h, 2, 4, 8 * w), dtype=np.int16)
    out = [np.array(f, dtype=np.uint8) for f in frames]
    for frame, step in zip(out, steps):
        # one step per block row, row half and crop column
        rows = step[side].transpose(2, 0, 3, 1).reshape(h, 2, 1, 8 * w)
        pixels = frame[crop].reshape(h, 2, 4, 8 * w)  # a view of the crop
        np.add(pixels, rows, out=total)
        np.clip(total, 0, 255, out=total)
        pixels[...] = total
    return out, realized


def embed_clip(
    clip: VideoClip,
    watermark: np.ndarray,
    seed1: int,
    seed2: int,
    seed3: int,
    params: EmbedParams | None = None,
    boundaries=None,
    fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple:
    """Embed a watermark into every selected shot of a clip.

    Returns (watermarked clip, key bundle). Unselected shots are left
    bit-identical. Shot boundaries may be forced via `boundaries`;
    otherwise they come from histogram-based detection.
    """
    if params is None:
        params = EmbedParams()
    for name, seed in (("seed1", seed1), ("seed2", seed2), ("seed3", seed3)):
        if not 0 <= seed <= MASK64:
            raise ValueError(f"{name} must be an unsigned 64-bit integer")
    sign_planes = prepare_sign_planes(watermark, seed1, seed2)
    wm_h, wm_w = sign_planes.shape[1:]

    # Fail fast on geometry before any transform work.
    _window_crop(params, clip.height, clip.width, wm_h, wm_w)

    if boundaries is None:
        boundaries = detect_shots(clip, threshold)
    else:
        boundaries = list(boundaries)
        validate_boundaries(boundaries, clip.frame_count)
    selected = select_shots(boundaries, seed3, fraction)

    spans = shot_spans(boundaries)
    out_frames = list(clip.frames)
    records = []
    for index in selected:
        start, end = spans[index]
        shot_out, realized = embed_shot(clip.frames[start:end], sign_planes, params)
        out_frames[start:end] = shot_out
        records.append(ShotRecord(shot_index=index, planes=realized))

    bundle = KeyBundle(
        seed1=seed1,
        seed2=seed2,
        seed3=seed3,
        alpha=params.alpha,
        wm_width=wm_w,
        wm_height=wm_h,
        band=params.band,
        region_row0=params.region_row0,
        region_col0=params.region_col0,
        boundaries=tuple(boundaries),
        selected=tuple(selected),
        records=records,
    )
    return replace(clip, frames=out_frames), bundle
