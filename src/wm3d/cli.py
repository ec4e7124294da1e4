"""Command line interface.

Video arguments are YUV4MPEG2 files (*.y4m) or directories of binary
PGM frames; watermarks are single PGM images. Exit codes: 0 success,
1 usage error, 2 data/format error, 3 capacity/geometry error.
"""

import argparse
import bisect
import csv
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .attacks import (
    attack_average,
    attack_compress,
    attack_drop,
    attack_noise,
    attack_swap,
)
from .embed import embed_clip
from .errors import FormatError, GeometryError
from .extract import extract_clip, extract_frames
from .keyfile import EmbedParams, read_key, write_key
from .media_io import VideoClip, open_video, read_pgm, read_video, write_pgm, write_video
from .metrics import nc as nc_metric
from .metrics import psnr_clip
from .shots import DEFAULT_THRESHOLD, detect_shots, shot_spans
from .wavelet3d import BANDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GEOMETRY = 3

DEFAULT_SEED1 = 1
DEFAULT_SEED2 = 2
DEFAULT_SEED3 = 3
_NOISE_SEED = 1234


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this toolkit uses 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_offset(text: str):
    # argparse shows only an ArgumentTypeError's own message to the user
    try:
        r, c = text.split(",")
        return int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROW,COL, got {text!r}") from None


def _parse_shot_list(text: str):
    """Manual segmentation 'a:b,c:d' -> boundary list; the spans must
    follow on from 0 without gaps (embed_clip checks where they end)."""
    boundaries = []
    prev_end = 0
    for part in text.split(","):
        try:
            a, b = (int(v) for v in part.split(":"))
        except ValueError:
            raise FormatError(f"bad shot span {part!r}, expected START:END") from None
        if a != prev_end:
            raise GeometryError(
                f"shot spans must tile the clip; expected start {prev_end}, got {a}"
            )
        boundaries.append(a)
        prev_end = b
    boundaries.append(prev_end)
    return boundaries


def cmd_embed(args) -> int:
    clip = read_video(args.input)
    watermark = read_pgm(args.wm)
    params = EmbedParams(
        alpha=args.alpha,
        region_row0=args.offset[0],
        region_col0=args.offset[1],
        band=args.band,
    )
    boundaries = _parse_shot_list(args.shots) if args.shots else None
    marked, bundle = embed_clip(
        clip,
        watermark,
        seed1=args.seed1,
        seed2=args.seed2,
        seed3=args.seed3,
        params=params,
        boundaries=boundaries,
        fraction=args.select_fraction,
        threshold=args.shot_threshold,
    )
    made = not os.path.lexists(args.key_out)
    with open(args.key_out, "a"):  # opened first: a refused key path leaves no video
        try:
            write_video(marked, args.output)
        except BaseException:
            if made:  # a refused video leaves no new key and an earlier one unchanged
                os.remove(args.key_out)
            raise
        write_key(bundle, args.key_out)
    spans = shot_spans(bundle.boundaries)
    for index in bundle.selected:
        a, b = spans[index]
        print(f"shot {index}: frames [{a},{b}) embedded")
    return EXIT_OK


class _SpanFrames:
    """Frame indices inside disjoint [start, end) spans, as a container
    whose size is the span count, not the frame count."""

    def __init__(self, spans):
        self.spans = sorted(spans)

    def __contains__(self, k) -> bool:
        i = bisect.bisect_right(self.spans, (k, math.inf)) - 1
        return i >= 0 and k < self.spans[i][1]


def cmd_extract(args) -> int:
    bundle = read_key(args.key)
    reference = read_pgm(args.ref) if args.ref else None
    spans = shot_spans(bundle.boundaries)
    keep = _SpanFrames(spans[rec.shot_index] for rec in bundle.records)
    with open_video(args.input, keep) as (head, frames):
        result = extract_frames(frames, head.height, head.width, bundle, reference)
    write_pgm(result.watermark, args.output)
    for shot in result.shots:
        note = " (length mismatch)" if shot.length_mismatch else ""
        if shot.nc is not None:
            print(f"shot {shot.shot_index}: nc={shot.nc:.4f}{note}")
        else:
            print(f"shot {shot.shot_index}: extracted{note}")
    if result.nc is not None:
        print(f"aggregate: nc={result.nc:.4f}")
    return EXIT_OK


def cmd_attack(args) -> int:
    clip = read_video(args.input)
    attack = _ATTACKS[args.type]
    original = None
    if args.type == "drop":
        if not args.original:
            raise FormatError("attack type 'drop' requires --original")
        original = read_video(args.original)
    param = getattr(args, attack.option) if attack.option else None
    write_video(attack.apply(clip, original, param, args.seed), args.output)
    return EXIT_OK


def cmd_psnr(args) -> int:
    report = psnr_clip(read_video(args.a), read_video(args.b))
    print(f"{report.psnr_mean:.4f}")
    return EXIT_OK


def cmd_nc(args) -> int:
    print(f"{nc_metric(read_pgm(args.a), read_pgm(args.b)):.4f}")
    return EXIT_OK


def cmd_shots(args) -> int:
    boundaries = detect_shots(read_video(args.input), args.threshold)
    print(",".join(str(b) for b in boundaries))
    return EXIT_OK


class _Attack(NamedTuple):
    apply: Callable  # (clip, original, param, seed) -> attacked clip
    option: str | None = None  # `attack` option that holds the parameter
    parse: Callable | None = None  # parser of a `bench --attacks` NAME:PARAM
    default: float | None = None


# The one attack table: `attack --type` choices, `bench --attacks` names
# and both commands' dispatch come from it.
_ATTACKS = {
    "drop": _Attack(lambda clip, original, param, seed: attack_drop(clip, original)),
    "average": _Attack(lambda clip, original, param, seed: attack_average(clip)),
    "swap": _Attack(lambda clip, original, param, seed: attack_swap(clip)),
    "compress": _Attack(
        lambda clip, original, quality, seed: attack_compress(clip, quality),
        "quality", int, 75,
    ),
    "noise": _Attack(
        lambda clip, original, sigma, seed: attack_noise(clip, sigma, seed),
        "sigma", float, 2.0,
    ),
}

# Three 0x0 frames: an attack applied to them checks its parameter and
# seed but has no pixel to work on.
_NO_PIXELS = VideoClip([np.zeros((0, 0), np.uint8)] * 3)

_BENCH_ATTACKS = ",".join(
    name if a.parse is None else f"{name}:{a.default:g}" for name, a in _ATTACKS.items()
)


def _parse_attack_list(text: str, seed: int):
    specs = []
    for part in text.split(","):
        name, colon, param = part.partition(":")
        attack = _ATTACKS.get(name)
        if attack is None:
            raise FormatError(f"unknown attack {name!r}")
        if colon and attack.parse is None:
            raise FormatError(f"attack {name!r} takes no parameter, got {part!r}")
        value = None
        if attack.parse is not None:
            value = attack.parse(param) if param else attack.default
        attack.apply(_NO_PIXELS, _NO_PIXELS, value, seed)  # its own checks only
        specs.append((name, value))
    return specs


def cmd_bench(args) -> int:
    # Arguments are checked before any output: here, then by the first embed.
    strengths = [EmbedParams(alpha=float(a)) for a in args.alphas.split(",")]
    specs = _parse_attack_list(args.attacks, args.seed)
    clip = read_video(args.input)
    watermark = read_pgm(args.wm)

    writer = csv.writer(sys.stdout)
    for params in strengths:
        marked, bundle = embed_clip(
            clip,
            watermark,
            seed1=args.seed1,
            seed2=args.seed2,
            seed3=args.seed3,
            params=params,
        )
        if params is strengths[0]:
            writer.writerow(["alpha", "attack", "parameter", "nc", "psnr_db"])
        baseline = extract_clip(marked, bundle, watermark)
        psnr0 = psnr_clip(clip, marked).psnr_mean
        writer.writerow(["%g" % params.alpha, "none", "", "%.4f" % baseline.nc, "%.4f" % psnr0])
        for name, param in specs:
            attacked = _ATTACKS[name].apply(marked, clip, param, args.seed)
            result = extract_clip(attacked, bundle, watermark)
            quality = psnr_clip(clip, attacked).psnr_mean
            cells = ["%g" % params.alpha, name, "" if param is None else "%g" % param]
            writer.writerow([*cells, "%.4f" % result.nc, "%.4f" % quality])
    return EXIT_OK


def _add_seed_options(p) -> None:
    p.add_argument("--seed1", type=int, default=DEFAULT_SEED1,
                   help="permutation key (default %(default)s)")
    p.add_argument("--seed2", type=int, default=DEFAULT_SEED2,
                   help="disorder key (default %(default)s)")
    p.add_argument("--seed3", type=int, default=DEFAULT_SEED3,
                   help="shot selection key (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wm3d",
        description="Blind video watermarking in a 3D Haar wavelet domain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a watermark and write the key file")
    p.add_argument("--in", dest="input", required=True, help="input video")
    p.add_argument("--wm", required=True, help="watermark PGM image")
    p.add_argument("--key-out", required=True, help="key file to write")
    p.add_argument("--out", dest="output", required=True, help="output video")
    p.add_argument("--alpha", type=float, default=EmbedParams.alpha,
                   help="embedding intensity (default %(default)s)")
    _add_seed_options(p)
    p.add_argument("--select-fraction", type=float, default=1.0,
                   help="fraction of eligible shots to watermark")
    p.add_argument("--shots", help="manual shot spans, e.g. 0:30,30:64")
    p.add_argument("--shot-threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="histogram cut threshold (default %(default)s)")
    p.add_argument("--band", default=EmbedParams.band, choices=BANDS,
                   help="target subband (default %(default)s)")
    p.add_argument("--offset", type=_parse_offset, default=(0, 0),
                   metavar="ROW,COL", help="watermark offset inside the subband")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="blind-extract a watermark using a key file")
    p.add_argument("--in", dest="input", required=True, help="received video")
    p.add_argument("--key", required=True, help="key file from embedding")
    p.add_argument("--out", dest="output", required=True,
                   help="output PGM for the extracted watermark")
    p.add_argument("--ref", help="reference watermark PGM; prints NC values")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="apply a frame-level attack")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--type", required=True, choices=list(_ATTACKS))
    p.add_argument("--original", help="original video (drop attack)")
    p.add_argument("--quality", type=int, default=_ATTACKS["compress"].default,
                   help="compression quality 1..100 (default %(default)s)")
    p.add_argument("--sigma", type=float, default=_ATTACKS["noise"].default,
                   help="noise standard deviation (default %(default)s)")
    p.add_argument("--seed", type=int, default=_NOISE_SEED,
                   help="noise seed (default %(default)s)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("psnr", help="mean PSNR between two videos")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_psnr)

    p = sub.add_parser("nc", help="normalized correlation between two PGM images")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_nc)

    p = sub.add_parser("shots", help="print detected shot boundaries")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_shots)

    p = sub.add_parser("bench", help="embed/attack/extract sweep as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--wm", required=True)
    p.add_argument("--alphas", default=str(EmbedParams.alpha), help="comma list of alphas")
    p.add_argument("--attacks", default=_BENCH_ATTACKS,
                   help=f"comma list, e.g. {_BENCH_ATTACKS}")
    p.add_argument("--seed", type=int, default=_NOISE_SEED, help="noise attack seed")
    _add_seed_options(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error or --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"wm3d: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (FormatError, OSError, ValueError) as exc:
        print(f"wm3d: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
