"""Blind watermark extraction driven entirely by the key bundle.

The received video plus the bundle (seeds, geometry, stored shot
boundaries and the realized sign planes) reproduce the forward
transforms and invert the preparation; the original video is never
consulted. As in embedding, only the watermark window's crop is
transformed, and only as far as the one subband of its coefficient
frames 1..8, exactly (see wm3d.embed). Ties in the neighborhood
comparison are exact ties and decode as -1, mirroring the embedding
rule. Frames are
taken in order and only the selected shot being filled is held, so a
reader may skip every frame outside the key's shots.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .embed import EmbedParams, _crop_coeffs, _window_crop, _window_signs
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
    """Recover prepared sign planes from received subband regions.

    `sub` and `key_plane` are as in embed_plane. Compares each
    coefficient with its in-subband neighborhood max and combines the
    outcome with the stored realized sign: above-max positions return
    the key sign, below-max its negation, ties -1.
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
    recovered = extract_plane(_crop_coeffs(frames, crop, params.band), key_planes, local)
    bitplanes = np.stack(
        [unpermute(undisorder(recovered[k], k, seed2), seed1) for k in range(PLANE_COUNT)]
    )
    return ShotExtraction(
        shot_index=-1,
        watermark=compose_bitplanes(bitplanes),
        bitplanes=bitplanes,
        length_mismatch=mismatch,
    )


def extract_frames(
    frames, height: int, width: int, bundle: KeyBundle,
    reference: np.ndarray | None = None,
) -> ExtractionResult:
    """Blind extraction over the received frames, taken in order.

    `frames` yields each HxW frame, or None where no selected shot
    reads it. A shot is extracted once its last frame arrives, or when
    the input ends (length repair). Records must name distinct shots in
    ascending order. The aggregate takes each bit by majority vote across
    shots; a tie keeps the lowest-indexed shot's bit. NC values are
    filled in when a reference watermark is given.
    """
    params = EmbedParams(
        alpha=bundle.alpha,
        region_row0=bundle.region_row0,
        region_col0=bundle.region_col0,
        band=bundle.band,
    )
    # Surface geometry mismatches (wrong clip for this key) up front.
    _window_crop(params, height, width, bundle.wm_height, bundle.wm_width)

    spans = shot_spans(bundle.boundaries)
    frames, received, results = iter(frames), 0, []
    for rec in bundle.records:
        start, end = spans[rec.shot_index]
        if start < received:
            raise ValueError("key records must name distinct shots in ascending order")
        before = received
        chunk = list(islice(frames, end - before))  # up to the shot's last frame
        received = before + len(chunk)
        if start >= received:
            raise GeometryError(
                f"clip has {received} frames but shot "
                f"{rec.shot_index} starts at {start}"
            )
        res = extract_shot(
            chunk[start - before :], rec.planes, bundle.seed1, bundle.seed2,
            end - start, params,
        )
        res.shot_index = rec.shot_index
        if reference is not None:
            res.nc = nc_metric(reference, res.watermark)
        results.append(res)
    for _ in frames:  # read on to the end: a damaged tail fails as in read_y4m
        pass

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


def extract_clip(
    clip: VideoClip, bundle: KeyBundle, reference: np.ndarray | None = None
) -> ExtractionResult:
    """Blind extraction from an in-memory clip: extract_frames over its
    frames."""
    if not clip.frames:
        raise ValueError("empty clip")
    return extract_frames(clip.frames, clip.height, clip.width, bundle, reference)
