"""Blind watermark extraction driven entirely by the key bundle.

The received video plus the bundle (seeds, geometry, stored shot boundaries,
realized sign planes) reproduce the forward transforms, and
wmprep.restore_bitplanes inverts the preparation; the original is never
consulted. A bundle built in memory is held to the key file's rules, as one
read from a file is: keyfile._check_bundle applies them, and extraction uses
the bundle's EmbedParams. As in embedding, only the crop that
embed._window_crop gives is transformed, and only as far as the integer
sums of one subband of its coefficient frames 1..8 (see wm3d.embed), so
the margin t - r of each window coefficient is exact, and embed's sign
rule on it (embed._window_signs) decodes each bit of the window, the pair
of slices _window_crop also gives: the key sign where t > r, its negation
where t < r, -1 at a tie. extract_video is the one extraction path: it
opens the video through media_io.open_video and takes its frames in order,
holding one frame at a time plus the band sums of the shot being filled,
and skipping every frame outside the key's shots unread. A shot shorter
than the key's record is repaired in closed form: the missing frames
repeat the last one received, so their columns of the analysis matrix
fold onto its column, and memory follows the frames received, not the
length the key claims.
"""

import bisect
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .embed import _crop_coeffs, _window_crop, _window_margins, _window_signs
from .errors import GeometryError
from .keyfile import KeyBundle, _check_bundle
from .media_io import VideoClip, open_video
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


class _SpanFrames:
    """Frame indices inside disjoint [start, end) spans, as a container
    whose size is the span count, not the frame count."""

    def __init__(self, spans):
        self.starts, self.ends = zip(*sorted(spans))

    def __contains__(self, k) -> bool:
        i = bisect.bisect_right(self.starts, k) - 1
        return i >= 0 and k < self.ends[i]


def extract_video(
    source, bundle: KeyBundle, reference: np.ndarray | None = None
) -> ExtractionResult:
    """Blind extraction from `source`, anything media_io.open_video opens,
    read once; frames outside the key's shots are skipped unread.

    Each frame of a key's shot is reduced to its band sums as it arrives,
    and the shot is decoded after its last frame or at the end of the
    input (length repair). The bundle is checked by the key file's rules
    (FormatError) and a reference as nc would check it (ValueError: not
    the mark's shape, or all zeros) before the source is opened, and the
    frame size against the mark (GeometryError) before a frame is read.
    Each aggregate bit is the majority vote across shots, a tie the
    lowest-indexed shot's; NC values are filled in given a reference.
    """
    _check_bundle(bundle)
    mark = (bundle.wm_height, bundle.wm_width)
    if reference is not None:
        if (shape := np.shape(reference)) != mark:
            raise ValueError(f"reference {shape} does not match the key's mark {mark}")
        if not np.any(reference):
            raise ValueError("all-zero reference watermark")

    spans = shot_spans(bundle.boundaries)
    keep = _SpanFrames(spans[i] for i in bundle.selected)
    with open_video(source, keep, chroma=False) as (header, frames):
        crop, win = _window_crop(bundle.params, header.height, header.width, *mark)
        read, results = 0, []

        def take(count):  # the next `count` frames, counted in `read`
            nonlocal read
            for frame in islice(frames, count):
                read += 1
                yield frame

        for rec in bundle.records:
            start, end = spans[rec.shot_index]
            for _ in take(start - read):  # frames before the shot, skipped unread
                pass
            shot = take(end - start)
            if (first := next(shot, None)) is None:
                raise GeometryError(
                    f"clip has {read} frames but shot {rec.shot_index} starts at {start}"
                )
            lumas = (luma for luma, _ in chain([first], shot))
            sums = _crop_coeffs(lumas, crop, bundle.params.band, end - start)
            recovered = _window_signs(_window_margins(sums, win), rec.planes)
            bitplanes = restore_bitplanes(recovered, bundle.seed1, bundle.seed2)
            res = ShotExtraction(
                shot_index=rec.shot_index,
                watermark=compose_bitplanes(bitplanes),
                bitplanes=bitplanes,
                length_mismatch=read < end,
            )
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


def extract_clip(clip: VideoClip, bundle: KeyBundle, reference=None) -> ExtractionResult:
    """extract_video over a clip in memory."""
    return extract_video(clip, bundle, reference)
