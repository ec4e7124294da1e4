"""Blind watermark extraction driven entirely by the key bundle.

The received video plus the bundle (seeds, geometry, stored shot boundaries,
realized sign planes) reproduce the forward transforms, and
wmprep.restore_bitplanes inverts the preparation; the original is never
consulted. A bundle built in memory is held to the key file's rules, as one
read from a file is: keyfile._check_bundle applies them and returns the
bundle's EmbedParams, which extraction uses. As in embedding, only the crop
that embed._window_crop gives is transformed, and only as far as the integer
sums of one subband of its coefficient frames 1..8 (see wm3d.embed), so the
neighborhood comparison is exact, and embed's sign rule
(embed._window_signs) decodes each bit of the window, the pair of slices
_window_crop also gives, a tie as -1. Frames are taken in order and only the
selected shot being filled is held, so a reader, such as media_io.open_video
for either form, may skip every frame outside the key's shots. A shot
shorter than the key's record is repaired in closed form: the missing frames
repeat the last one received, so their columns of the analysis matrix fold
onto its column, and memory follows the frames received, not the length the
key claims.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .embed import _crop_coeffs, _window_crop, _window_signs
from .errors import GeometryError
from .keyfile import EmbedParams, KeyBundle, _check_bundle
from .media_io import VideoClip
from .metrics import nc as nc_metric
from .shots import shot_spans
from .wmprep import compose_bitplanes, restore_bitplanes


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


def extract_shot(
    frames,
    key_planes: np.ndarray,
    seed1: int,
    seed2: int,
    expected_length: int,
    params: EmbedParams,
) -> ShotExtraction:
    """Recover the watermark carried by one shot.

    A shot of another length than `expected_length` is repaired: extra
    frames are dropped, and missing ones repeat the last frame given.
    """
    if not len(frames):
        raise GeometryError("shot has no frames left to extract from")
    mismatch = len(frames) != expected_length
    frames = frames[:expected_length]
    crop, win = _window_crop(
        params, *np.shape(frames[0]), *np.shape(key_planes)[1:]
    )
    sums = _crop_coeffs(frames, crop, params.band, expected_length)
    recovered = _window_signs(sums, key_planes, win)
    bitplanes = restore_bitplanes(recovered, seed1, seed2)
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
    the input ends (length repair). Before any frame is read, the bundle
    is checked by the key file's rules (FormatError) and against the
    frame size (GeometryError). The aggregate takes each bit by majority
    vote across shots; a tie keeps the lowest-indexed shot's bit. NC
    values are filled in when a reference watermark is given.
    """
    params = _check_bundle(bundle)
    _window_crop(params, height, width, bundle.wm_height, bundle.wm_width)

    spans = shot_spans(bundle.boundaries)
    frames, received, results = iter(frames), 0, []
    for rec in bundle.records:
        start, end = spans[rec.shot_index]
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
    for _ in frames:  # read on to the end: a damaged tail fails as in read_video
        pass

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
    return extract_frames(clip.frames, clip.height, clip.width, bundle, reference)
