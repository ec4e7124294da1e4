"""Spread-spectrum embedding of prepared sign planes into a video.

Bitplane b of the watermark goes to temporal coefficient frame b+1 (the
DC frame is never touched), inside one window of a level-3 subband, so
the least significant plane rides on the coarsest temporal detail. A
level-3 coefficient depends only on its own 8x8 pixel block, so each
selected shot is worked on through one block-aligned crop: the window's
blocks plus a 1-coefficient halo. Only the one subband of its temporal
coefficient frames 1..8 is computed, exactly, from integer 8x8 block
sums; its windows get a multiplicative +-alpha update, all 8 planes in
one call. Only the change is synthesized back, through closed-form
traces of the Haar inverse, added to the crop and rounded to 8-bit
luma; pixels outside the crop are copied.

The sign actually written at each position depends on whether the
local neighborhood max lies above or below the coefficient; those
realized signs are returned because extraction needs them as a key.
Tie rule: a neighbor max equal to the coefficient is neither, so the
realized sign is -1. The coefficients are integers times one positive
scale per frame, so a tie is exact; a whole-frame float transform (a
test oracle) lets rounding noise of about 1e-14 decide it instead.
Pixels may differ from a whole-frame round trip only in such ties'
blocks, or at rounding ties: where the exact value is k + 0.5, a float
path lands within 1e-9 of it and may round the other way.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError
from .keyfile import PLANE_COUNT, KeyBundle, ShotRecord
from .media_io import VideoClip, _quantize_into
from .prng import MASK64
from .shots import (
    DEFAULT_THRESHOLD,
    MIN_EMBED_SHOT_LEN,
    detect_shots,
    select_shots,
    shot_spans,
    validate_boundaries,
)
from .wavelet3d import (
    BANDS,
    SPATIAL_LEVELS,
    SubbandRect,
    band_pattern,
    band_sums,
    band_unscale,
    subband_rect,
    temporal_analysis,
    temporal_synthesis,
)
from .wmprep import decompose_bitplanes, disorder, permute

DEFAULT_ALPHA = 0.1

_NEIGHBOR_OFFSETS = [
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
]


@dataclass
class EmbedParams:
    """Embedding strength and watermark placement.

    band names a level-3 subband ("lh3" by default, "hl3" for the
    transposed convention); the watermark rectangle sits at
    (region_row0, region_col0) inside that subband.
    """

    alpha: float = DEFAULT_ALPHA
    region_row0: int = 0
    region_col0: int = 0
    band: str = "lh3"

    def __post_init__(self):
        # alpha 0 is allowed as a degenerate no-op strength
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1)")
        if self.region_row0 < 0 or self.region_col0 < 0:
            raise ValueError("region offset must be non-negative")
        if self.band not in BANDS:
            raise ValueError(f"unknown band {self.band!r}")

    def rect_for(self, height: int, width: int) -> SubbandRect:
        return subband_rect(height, width, self.band)


def _wm_slices(rows: int, cols: int, params: EmbedParams, wm_h: int, wm_w: int):
    """Relative slices of the watermark window inside a rows x cols subband.

    Raises a capacity error when the rectangle does not fit.
    """
    r0, c0 = params.region_row0, params.region_col0
    if r0 + wm_h > rows or c0 + wm_w > cols:
        raise GeometryError(
            f"watermark {wm_w}x{wm_h} at offset ({r0},{c0}) does not fit "
            f"subband {params.band} of {cols}x{rows} coefficients"
        )
    return slice(r0, r0 + wm_h), slice(c0, c0 + wm_w)


def _neighbor_max_grid(sub: np.ndarray) -> np.ndarray:
    """Neighbor max at every position of (..., h, w) subband regions at once."""
    *lead, h, w = sub.shape
    padded = np.full((*lead, h + 2, w + 2), -np.inf)
    padded[..., 1:-1, 1:-1] = sub
    stack = [
        padded[..., 1 + di : 1 + di + h, 1 + dj : 1 + dj + w]
        for di, dj in _NEIGHBOR_OFFSETS
    ]
    return np.max(stack, axis=0)


def _window_signs(sub, plane, params: EmbedParams, what: str) -> tuple:
    """(float64 regions, window index, signs) of (..., h, w) regions and
    matching (..., wm_h, wm_w) planes: +1 where the neighbor max lies
    strictly on the side the +-1 plane names (above for +1), else -1."""
    arr = np.asarray(sub, dtype=np.float64)
    wd = np.asarray(plane)
    if np.any((wd != 1) & (wd != -1)):
        raise ValueError(f"{what} plane values must be +1 or -1")
    win = (..., *_wm_slices(*arr.shape[-2:], params, *wd.shape[-2:]))
    t, r = _neighbor_max_grid(arr)[win], arr[win]
    if wd.shape != r.shape:
        raise ValueError(f"{what} planes {wd.shape} do not match windows {r.shape}")
    hit = ((t > r) & (wd == 1)) | ((t < r) & (wd == -1))
    return arr, win, np.where(hit, 1, -1).astype(np.int8)


def embed_plane(
    sub: np.ndarray, sign_plane: np.ndarray, params: EmbedParams
) -> tuple:
    """Embed prepared sign planes into subband regions `sub`.

    `sub` is (..., h, w), one region of the band named by params.band
    per plane of the matching (..., wm_h, wm_w) `sign_plane`; the window
    sits at (region_row0, region_col0) of each. Neighborhood maxima come
    from a snapshot of the unmodified regions, then every watermark
    coefficient is scaled by (1 + alpha * sign). Returns (modified
    regions, realized sign planes).
    """
    arr, win, realized = _window_signs(sub, sign_plane, params, "sign")
    out = arr.copy()
    out[win] *= 1.0 + params.alpha * realized
    return out, realized


def _window_crop(params: EmbedParams, height, width, wm_h, wm_w):
    """Pixel crop holding every coefficient the window's update reads.

    The crop is the window's 8x8 blocks plus the 1-coefficient halo of
    the neighbor max, clipped at the subband edge. Returns its pixel
    slices and params whose window offset addresses the crop's subband.
    """
    rect = params.rect_for(height, width)
    _wm_slices(rect.rows, rect.cols, params, wm_h, wm_w)
    r0, c0 = params.region_row0, params.region_col0
    top, left = max(r0 - 1, 0), max(c0 - 1, 0)
    bottom, right = min(r0 + wm_h + 1, rect.rows), min(c0 + wm_w + 1, rect.cols)
    b = 1 << SPATIAL_LEVELS
    crop = slice(b * top, b * bottom), slice(b * left, b * right)
    return crop, replace(params, region_row0=r0 - top, region_col0=c0 - left)


def _crop_coeffs(frames, crop, band: str) -> np.ndarray:
    """(8, h, w) `band` of a crop's temporal coefficient frames 1..8.

    Each uint8 frame's int16 band sums go through rows 1..8 of the
    integer temporal analysis matrix, then one scale per coefficient
    frame. Frames of another dtype raise ValueError.
    """
    sums = np.stack([band_sums(np.asarray(f)[crop], band) for f in frames])
    matrix, scale = temporal_analysis(len(frames), PLANE_COUNT + 1)
    exact = np.tensordot(matrix[1:], sums, axes=1)
    return exact * (scale[1:, None, None] / 8)


def embed_shot(frames, sign_planes: np.ndarray, params: EmbedParams) -> tuple:
    """Watermark one shot of 8-bit frames.

    Returns (quantized frames, realized planes). The coefficient change
    is synthesized on the band grid (scaled as in band_inverse3, then
    spread over the shot by the temporal synthesis matrix); each frame's
    change then goes to its 8x8 blocks under the band's sign pattern.
    """
    n = len(frames)
    if n < MIN_EMBED_SHOT_LEN:
        raise GeometryError(
            f"shot of {n} frames too short to embed "
            f"(minimum {MIN_EMBED_SHOT_LEN})"
        )
    planes = np.asarray(sign_planes)
    if planes.shape[0] != PLANE_COUNT:
        raise ValueError(f"expected {PLANE_COUNT} sign planes")

    crop, local = _window_crop(params, *np.shape(frames[0]), *planes.shape[1:])
    coeffs = _crop_coeffs(frames, crop, params.band)
    marked, realized = embed_plane(coeffs, planes, local)
    synthesis = temporal_synthesis(n, PLANE_COUNT + 1)[:, 1:]
    change = np.tensordot(synthesis, band_unscale(marked - coeffs), axes=1)

    h, w = coeffs.shape[1:]
    pattern = band_pattern(params.band)[:, None, :]
    spread = np.empty((h, 8, w, 8))
    out = [np.array(f, dtype=np.uint8) for f in frames]
    for frame, d in zip(out, change):
        pixels = frame[crop].reshape(h, 8, w, 8)  # a view of the crop
        np.multiply(d[:, None, :, None], pattern, out=spread)
        spread += pixels
        _quantize_into(pixels, spread)
    return out, realized


def prepare_sign_planes(watermark: np.ndarray, seed1: int, seed2: int) -> np.ndarray:
    """Watermark image -> 8 permuted, disorder-mapped sign planes."""
    bitplanes = decompose_bitplanes(watermark)
    return np.stack(
        [disorder(permute(bitplanes[b], seed1), b, seed2) for b in range(PLANE_COUNT)]
    )


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
    wm = np.asarray(watermark)
    if wm.ndim != 2 or wm.size == 0:
        raise ValueError("watermark must be a nonempty 2-D image")
    wm_h, wm_w = wm.shape

    # Fail fast on geometry before any transform work.
    if not clip.frames:
        raise ValueError("empty clip")
    rect = params.rect_for(clip.height, clip.width)
    _wm_slices(rect.rows, rect.cols, params, wm_h, wm_w)

    if boundaries is None:
        boundaries = detect_shots(clip, threshold)
    else:
        boundaries = list(boundaries)
        validate_boundaries(boundaries, clip.frame_count)
    selected = select_shots(boundaries, seed3, fraction)

    sign_planes = prepare_sign_planes(wm, seed1, seed2)

    out_frames = list(clip.frames)
    records = []
    for index in selected:
        start, end = shot_spans(boundaries)[index]
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
