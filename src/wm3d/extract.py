"""Blind watermark extraction driven entirely by the key bundle.

The received video plus the bundle (seeds, geometry, stored shot
boundaries and the realized sign planes) reproduce the forward
transforms and invert the preparation; the original video is never
consulted. As in embedding, only the watermark window's crop is
transformed, and only as far as the one subband of its coefficient
frames 1..8. Ties in the neighborhood
comparison decode as -1, mirroring the embedding rule.
"""

from dataclasses import dataclass

import numpy as np

from .embed import (
    EmbedParams,
    _crop_coeffs,
    _window_crop,
    _window_signs,
    _wm_slices,
)
from .errors import GeometryError
from .keyfile import PLANE_COUNT, KeyBundle
from .media_io import VideoClip
from .metrics import nc as nc_metric
from .shots import shot_spans
from .wmprep import compose_bitplanes, undisorder, unpermute


@dataclass
class ShotExtraction:
    shot_index: int
    watermark: np.ndarray  # reconstructed grayscale image
    bitplanes: np.ndarray  # (8, H, W) recovered bits, plane b from frame b+1
    length_mismatch: bool = False
    nc: float | None = None


@dataclass
class ExtractionResult:
    shots: list
    watermark: np.ndarray  # aggregate across shots
    nc: float | None = None


def extract_plane(
    sub: np.ndarray, key_plane: np.ndarray, params: EmbedParams
) -> np.ndarray:
    """Recover one prepared sign plane from a received subband region.

    `sub` is as in embed_plane. Compares each coefficient with its
    in-subband neighborhood max and combines the outcome with the stored
    realized sign: above-max positions return the key sign, below-max
    its negation, ties -1.
    """
    return _window_signs(sub, key_plane, params, "key")[2]


def _repair_length(frames, expected: int):
    """Pad (by repeating the last frame) or trim to the recorded length."""
    n = len(frames)
    if n == expected:
        return list(frames), False
    if n == 0:
        raise GeometryError("shot has no frames left to extract from")
    if n < expected:
        return list(frames) + [frames[-1]] * (expected - n), True
    return list(frames[:expected]), True


def extract_shot(
    frames,
    key_planes: np.ndarray,
    seed1: int,
    seed2: int,
    expected_length: int,
    params: EmbedParams,
) -> ShotExtraction:
    """Recover the watermark carried by one shot."""
    frames, mismatch = _repair_length(frames, expected_length)
    crop, local = _window_crop(
        params, *np.shape(frames[0]), *np.shape(key_planes)[1:]
    )
    _, coeffs = _crop_coeffs(frames, crop, params.band)

    bits = []
    for k in range(PLANE_COUNT):
        recovered = extract_plane(coeffs[k], key_planes[k], local)
        bits.append(unpermute(undisorder(recovered, k, seed2), seed1))
    bitplanes = np.stack(bits)
    return ShotExtraction(
        shot_index=-1,
        watermark=compose_bitplanes(bitplanes),
        bitplanes=bitplanes,
        length_mismatch=mismatch,
    )


def extract_clip(
    clip: VideoClip, bundle: KeyBundle, reference: np.ndarray | None = None
) -> ExtractionResult:
    """Blind extraction over all shots recorded in the key bundle.

    The aggregate watermark takes each bit by majority vote across
    shots; a tied vote keeps the bit from the lowest-indexed shot. NC
    values are filled in when a reference watermark is given.
    """
    params = EmbedParams(
        alpha=bundle.alpha,
        region_row0=bundle.region_row0,
        region_col0=bundle.region_col0,
        band=bundle.band,
    )
    # Surface geometry mismatches (wrong clip for this key) up front.
    rect = params.rect_for(clip.height, clip.width)
    _wm_slices(rect.rows, rect.cols, params, bundle.wm_height, bundle.wm_width)

    spans = shot_spans(bundle.boundaries)
    results = []
    for rec in bundle.records:
        start, end = spans[rec.shot_index]
        if start >= clip.frame_count:
            raise GeometryError(
                f"clip has {clip.frame_count} frames but shot "
                f"{rec.shot_index} starts at {start}"
            )
        shot_frames = clip.frames[start : min(end, clip.frame_count)]
        res = extract_shot(
            shot_frames, rec.planes, bundle.seed1, bundle.seed2,
            end - start, params,
        )
        res.shot_index = rec.shot_index
        if reference is not None:
            res.nc = nc_metric(reference, res.watermark)
        results.append(res)

    if not results:
        raise GeometryError("key bundle selects no shots")

    votes = np.sum([r.bitplanes.astype(np.int32) for r in results], axis=0)
    count = len(results)
    aggregate_bits = np.where(
        2 * votes > count, 1, np.where(2 * votes < count, 0, results[0].bitplanes)
    ).astype(np.uint8)
    aggregate = compose_bitplanes(aggregate_bits)

    result = ExtractionResult(shots=results, watermark=aggregate)
    if reference is not None:
        result.nc = nc_metric(reference, aggregate)
    return result
