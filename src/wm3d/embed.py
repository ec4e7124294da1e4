"""Spread-spectrum embedding of prepared sign planes into a video.

Bitplane b of the watermark, prepared by wmprep.prepare_sign_planes, goes to
temporal coefficient frame b+1 (the DC frame is never touched), inside one
window of a level-3 subband, so the least significant plane rides on the
coarsest temporal detail. A level-3 coefficient depends only on its own 8x8
pixel block, so each selected shot is read through one block-aligned crop,
the window's blocks plus a 1-coefficient halo, which _window_crop returns
with the window's pair of slices in the crop's subband; it refuses a subband
of one coefficient, which has no neighbor. Only the window's blocks change.
EmbedParams, the strength, band and offset, is declared with its rules in
wm3d.keyfile, beside the key that stores them. embed_video is the one
embedding path: it reads its source twice through media_io.open_video,
finding the cuts as frames arrive, then marking each selected shot while
the frames stream to a sink; only the shot being filled is held. The
source is a path or, for embed_clip and input that cannot be read twice,
a VideoClip in memory.

Each window coefficient r is compared with t, the max of its 8 neighbors in
the subband, through one margin t - r, exact in int64 (_window_margins). A
position's realized sign g is +1 where the margin has its prepared sign, else
-1, a tie (zero margin) included; the realized signs are the key extraction
needs. The paper's update scales each window coefficient by (1 + alpha * g).
It is relative, so it runs on the integer sums E of wm3d.wavelet3d, a
positive multiple of the orthonormal coefficients per frame, and ties are
exact. Frame f's change under the band's +-1 sign pattern on each 8x8 block
is d[f] = sum_k S[f, k] * g_k * E_k * alpha / 64, S the temporal synthesis
matrix (entries 0 or +-1 over a power of two): exact in float64 in any
summation order but for the one multiply by alpha. A window pixel p becomes
p + floor(+-d + 0.5), clipped to [0, 255]. A whole-frame float round trip (a
test oracle) may differ in blocks of exact neighbor ties, which its rounding
noise decides, and where d is exactly k + 0.5, which it misses by up to 1e-9.
"""

from dataclasses import replace
from itertools import islice

import numpy as np

from .errors import FormatError, GeometryError
from .keyfile import EmbedParams, KeyBundle, ShotRecord
from .media_io import VideoClip, open_video
from .prng import check_seed
from .shots import (
    DEFAULT_THRESHOLD,
    MIN_EMBED_SHOT_LEN,
    PLANE_COUNT,
    _shots,
    check_fraction,
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


def _window_margins(sums, win) -> np.ndarray:
    """t - r, exact int64, over the window `win` (slices from _window_crop)
    of (..., h, w) int64 regions: r a coefficient, t the max of its 8
    neighbors in the region (two separable passes, a missing one int64's
    lowest). _window_crop refuses a one-coefficient subband, so every
    window cell has a real neighbor and t - r cannot overflow."""
    t = np.full(sums.shape, np.iinfo(np.int64).min)
    t[..., 1:] = sums[..., :-1]
    np.maximum(t[..., :-1], sums[..., 1:], out=t[..., :-1])
    wide = np.maximum(t, sums)
    np.maximum(t[..., 1:, :], wide[..., :-1, :], out=t[..., 1:, :])
    np.maximum(t[..., :-1, :], wide[..., 1:, :], out=t[..., :-1, :])
    win = (..., *win)
    return t[win] - sums[win]


def _window_signs(margins, planes) -> np.ndarray:
    """+1 where the window margins t - r have the sign of the matching
    (..., wm_h, wm_w) +-1 planes, else -1, a tie (margin 0) included.
    Embed keeps these as the realized signs; given those, extraction
    decodes the key sign where t > r, its negation where t < r, -1 at a tie."""
    wd = np.asarray(planes)
    if np.any((wd != 1) & (wd != -1)):
        raise ValueError("plane values must be +1 or -1")
    if wd.shape != margins.shape:
        raise ValueError(f"planes {wd.shape} do not match windows {margins.shape}")
    return np.where(wd * np.sign(margins) > 0, 1, -1).astype(np.int8)


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
    ValueError). `frames`, any iterable, read once, begin a `length`-frame
    shot (default all of it) whose other frames repeat the last one given."""
    sums = np.stack([band_sums(np.asarray(f)[crop], band) for f in frames])
    matrix = temporal_analysis(length or len(sums), PLANE_COUNT + 1, len(sums))
    return np.tensordot(matrix[1:], sums, axes=1)


def embed_shot(frames, sign_planes: np.ndarray, params: EmbedParams) -> tuple:
    """Watermark one shot of 8-bit frames; returns (quantized frames,
    realized planes). A window pixel p under the band's sign s becomes
    p + round-half-up(s*d), clipped to [0, 255] in int16."""
    n = len(frames)
    if n < MIN_EMBED_SHOT_LEN:
        raise GeometryError(
            f"shot of {n} frames too short to embed (minimum {MIN_EMBED_SHOT_LEN})"
        )
    planes = np.asarray(sign_planes)
    if planes.shape[0] != PLANE_COUNT:
        raise ValueError(f"expected {PLANE_COUNT} sign planes")

    crop, win = _window_crop(params, *np.shape(frames[0]), *planes.shape[1:])
    sums = _crop_coeffs(frames, crop, params.band)
    realized = _window_signs(_window_margins(sums, win), planes)
    # terms E_k / span_k are below 64 * 255 and multiples of 1 / P, so
    # their 8-term sums are exact in float64 for P up to 2**36 frames
    synthesis = temporal_synthesis(n, PLANE_COUNT + 1)[:, 1:]
    change = np.tensordot(synthesis, realized * sums[(..., *win)], axes=1)
    change *= params.alpha / 64

    # Each of the 8 coefficient frames moves a pixel by at most
    # alpha * 255, so |step| <= 8 * 255 and p + step fit int16.
    steps = np.floor(np.stack([change, -change], axis=1) + 0.5).astype(np.int16)
    # s is constant on each (row half, column) of a block: 0 steps +d, 1 -d
    side = (band_pattern(params.band)[::4] < 0).astype(np.intp)
    h, w = realized.shape[1:]
    # the window's 8x8 blocks start here; a halo pixel's step is 0
    r0, c0 = (c.start + 8 * s.start for c, s in zip(crop, win))
    total = np.empty((h, 2, 4, 8 * w), dtype=np.int16)
    out = [np.array(f, dtype=np.uint8) for f in frames]
    for frame, step in zip(out, steps):
        # one step per block row, row half and window column
        rows = step[side].transpose(2, 0, 3, 1).reshape(h, 2, 1, 8 * w)
        pixels = frame[r0 : r0 + 8 * h, c0 : c0 + 8 * w].reshape(h, 2, 4, 8 * w)
        np.add(pixels, rows, out=total)
        np.clip(total, 0, 255, out=pixels, casting="unsafe")
    return out, realized


def embed_video(
    source, sink, watermark: np.ndarray, seed1: int, seed2: int, seed3: int,
    params: EmbedParams | None = None, boundaries=None, fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
) -> KeyBundle:
    """Embed a watermark into every selected shot of `source`, anything
    media_io.open_video opens twice (a path or a VideoClip, not a pipe),
    in two passes; returns the key bundle.

    Pass 1 finds the cuts in the luma as each frame arrives (or, given
    `boundaries`, counts the frames) and selects the shots. Pass 2
    opens the source again and calls sink(header, frames), which consumes
    `frames`, the marked video's (luma, payload) pairs as open_video yields
    them, in order. Only the selected shot being filled is held; unselected
    shots pass through bit-identical. A second pass with another header
    (checked before the sink is called) or frame count (as `frames` runs
    out) is a FormatError; a sink that returns first is a RuntimeError.
    """
    if params is None:
        params = EmbedParams()
    for name, seed in (("seed1", seed1), ("seed2", seed2), ("seed3", seed3)):
        check_seed(seed, name)
    check_fraction(fraction)  # before the source is opened, as the seeds are
    sign_planes = prepare_sign_planes(watermark, seed1, seed2)

    with open_video(source, chroma=False) as (header, frames):
        # Fail fast on geometry before any frame is read.
        _window_crop(params, header.height, header.width, *sign_planes.shape[1:])
        if boundaries is None:
            boundaries = _shots(frames, threshold)
        else:
            boundaries = list(boundaries)
            validate_boundaries(boundaries, sum(1 for _ in frames))
    selected = select_shots(boundaries, seed3, fraction)

    records, finished = [], []

    def marked(pairs):
        seen = 0
        for index, (start, end) in enumerate(shot_spans(boundaries)):
            shot = islice(pairs, end - start)
            if index in selected:
                shot = list(shot)
                if len(shot) == end - start:  # else the count check refuses it
                    luma, realized = embed_shot([f for f, _ in shot], sign_planes, params)
                    records.append(ShotRecord(shot_index=index, planes=realized))
                    shot = zip(luma, [p for _, p in shot])
            # a short shot ends the input, so `seen` counts every frame read
            for seen, pair in enumerate(shot, start + 1):
                yield pair
        seen += sum(1 for _ in pairs)
        if seen != boundaries[-1]:
            changed = f"{boundaries[-1]} frames, then {seen}"
            raise FormatError(f"input changed between passes: {changed}")
        finished.append(True)

    with open_video(source) as (again, frames):
        if again != header:
            raise FormatError(f"input changed between passes: {header}, then {again}")
        sink(header, marked(frames))
    if not finished:  # the records would miss shots and the count is unchecked
        raise RuntimeError("the sink returned before the last frame")
    return KeyBundle(seed1, seed2, seed3, params, tuple(boundaries), records)


def embed_clip(
    clip: VideoClip, watermark: np.ndarray, seed1: int, seed2: int, seed3: int,
    params: EmbedParams | None = None, boundaries=None, fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple:
    """embed_video over a clip in memory; returns (watermarked clip, key
    bundle). Shot boundaries may be forced via `boundaries`; otherwise
    they come from histogram-based detection."""
    out = []
    bundle = embed_video(
        clip, lambda header, frames: out.extend(f for f, _ in frames), watermark,
        seed1, seed2, seed3, params, boundaries, fraction, threshold,
    )
    return replace(clip, frames=out), bundle
