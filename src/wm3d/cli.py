"""Command line interface.

Every video argument, read or written, is a YUV4MPEG2 file or stream
whatever its name (a directory is exit 2); watermarks are single PGM
images. embed, extract and shots pass --in to embed_video, extract_video
and detect_shots, which open it and read it frame by frame. An output
that names one of the command's input files is a usage error. Exit codes:
0 success, 1 usage error, 2 data/format error, 3 capacity/geometry error.
"""

import argparse
import csv
import functools
import os
import sys
from typing import Callable, NamedTuple

from .attacks import (
    attack_average,
    attack_compress,
    attack_drop,
    attack_noise,
    attack_swap,
    check_quality,
    check_sigma,
)
from .embed import embed_clip, embed_video
from .errors import FormatError, GeometryError
from .extract import extract_clip, extract_video
from .keyfile import EmbedParams, _format_int_list, _parse_int_list, read_key, write_key
from .media_io import read_pgm, read_video, write_frames, write_pgm, write_video
from .metrics import nc as nc_metric
from .metrics import psnr_clip
from .prng import check_seed
from .shots import (
    DEFAULT_THRESHOLD, check_fraction, detect_shots, shot_spans, validate_boundaries,
)
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


def _parse_shots(text: str) -> tuple:
    """--shots, only as `wm3d shots` prints it; embed_video checks where it ends."""
    try:  # "" is a bad list, not a request to detect the cuts
        boundaries = _parse_int_list(text or ",")
    except ValueError:
        boundaries = None
    if boundaries is None or _format_int_list(boundaries) != text:
        raise FormatError(f"bad --shots {text[:64]!r}, expected a list 0,B1,...,N")
    validate_boundaries(boundaries)
    return boundaries


def cmd_embed(args) -> int:
    # Every value is checked before any input is read: a pipe may never end.
    for name in ("seed1", "seed2", "seed3"):
        check_seed(getattr(args, name), name)
    params = EmbedParams(args.alpha, *args.offset, band=args.band)
    check_fraction(args.select_fraction)
    check_fraction(args.shot_threshold, "threshold")
    boundaries = None if args.shots is None else _parse_shots(args.shots)
    # A file is read twice, one shot held; a pipe, or the file --out
    # rewrites, is read whole first.
    source = args.input
    if not os.path.isfile(source) or _same_file(args.output, source):
        source = read_video(source)
    watermark = read_pgm(args.wm)
    made = not os.path.lexists(args.key_out)
    with open(args.key_out, "a"):  # opened first: a refused key path leaves no video
        try:
            bundle = embed_video(
                source, functools.partial(write_frames, args.output), watermark,
                args.seed1, args.seed2, args.seed3, params, boundaries,
                args.select_fraction, args.shot_threshold,
            )
        except BaseException:
            if made:  # a refused run leaves no new key and an earlier one unchanged
                os.remove(args.key_out)
            raise
        write_key(bundle, args.key_out)
    spans = shot_spans(bundle.boundaries)
    for index in bundle.selected:
        a, b = spans[index]
        print(f"shot {index}: frames [{a},{b}) embedded")
    return EXIT_OK


def cmd_extract(args) -> int:
    bundle = read_key(args.key)
    reference = read_pgm(args.ref) if args.ref else None
    result = extract_video(args.input, bundle, reference)
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
    check_seed(args.seed, "noise seed")
    name, param = _parse_attack(args.type)
    if name == "drop" and not args.original:
        raise FormatError("attack type 'drop' requires --original")
    clip = read_video(args.input)
    original = read_video(args.original) if name == "drop" else None
    write_video(_ATTACKS[name].apply(clip, original, param, args.seed), args.output)
    return EXIT_OK


def cmd_psnr(args) -> int:
    report = psnr_clip(read_video(args.a), read_video(args.b))
    print(f"{report.psnr_mean:.4f}")
    return EXIT_OK


def cmd_nc(args) -> int:
    print(f"{nc_metric(read_pgm(args.a), read_pgm(args.b)):.4f}")
    return EXIT_OK


def cmd_shots(args) -> int:
    boundaries = detect_shots(args.input, args.threshold)
    print(_format_int_list(boundaries))
    return EXIT_OK


class _Attack(NamedTuple):
    apply: Callable  # (clip, original, param, seed) -> attacked clip
    parse: Callable | None = None  # PARAM of NAME:PARAM -> value, held to the attack's rule
    default: float | None = None


# The one attack table: the names `attack --type` and `bench --attacks`
# take, their parameters and both commands' dispatch come from it.
_ATTACKS = {
    "drop": _Attack(lambda clip, original, param, seed: attack_drop(clip, original)),
    "average": _Attack(lambda clip, original, param, seed: attack_average(clip)),
    "swap": _Attack(lambda clip, original, param, seed: attack_swap(clip)),
    "compress": _Attack(lambda clip, original, quality, seed: attack_compress(clip, quality),
                        lambda text: check_quality(int(text)), 75),
    "noise": _Attack(lambda clip, original, sigma, seed: attack_noise(clip, sigma, seed),
                     lambda text: check_sigma(float(text)), 2.0),
}

_BENCH_ATTACKS = ",".join(
    name if a.parse is None else f"{name}:{a.default:g}" for name, a in _ATTACKS.items()
)


def _parse_attack(part: str):
    """One attack spec NAME[:PARAM] -> (name, value): PARAM parsed, the
    table's default if there is no colon, None for an attack without one."""
    name, colon, param = part.partition(":")
    attack = _ATTACKS.get(name)
    if attack is None:
        raise FormatError(f"unknown attack {name!r}")
    if colon and attack.parse is None:
        raise FormatError(f"attack {name!r} takes no parameter, got {part!r}")
    if not colon:
        return name, attack.default
    try:
        return name, attack.parse(param)
    except ValueError:
        raise FormatError(f"bad {name} parameter {param!r}") from None


def _parse_alpha(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"bad --alphas value {text!r}") from None


def cmd_bench(args) -> int:
    # The table is written once the whole sweep has run, so a failed run
    # prints none of it. The seeds, alphas and attack specs, values
    # included, are checked here, before any input is read.
    for name in ("seed1", "seed2", "seed3"):
        check_seed(getattr(args, name), name)
    check_seed(args.seed, "noise seed")
    strengths = [EmbedParams(alpha=_parse_alpha(a)) for a in args.alphas.split(",")]
    specs = [_parse_attack(part) for part in args.attacks.split(",")]
    clip = read_video(args.input)
    watermark = read_pgm(args.wm)

    rows = [["alpha", "attack", "parameter", "nc", "psnr_db"]]
    for params in strengths:
        marked, bundle = embed_clip(
            clip,
            watermark,
            seed1=args.seed1,
            seed2=args.seed2,
            seed3=args.seed3,
            params=params,
        )
        for name, param in [("none", None), *specs]:
            attacked = marked
            if name != "none":
                attacked = _ATTACKS[name].apply(marked, clip, param, args.seed)
            result = extract_clip(attacked, bundle, watermark)
            quality = psnr_clip(clip, attacked).psnr_mean
            cells = ["%g" % params.alpha, name, "" if param is None else "%g" % param]
            rows.append([*cells, "%.4f" % result.nc, "%.4f" % quality])
    csv.writer(sys.stdout).writerows(rows)
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
    p.add_argument("--shots", help="shot boundaries as `wm3d shots` prints them, e.g. 0,30,64")
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
    p.add_argument("--type", required=True, metavar="ATTACK",
                   help=f"NAME or NAME:PARAM, one of {_BENCH_ATTACKS} (PARAM defaults shown)")
    p.add_argument("--original", help="original video (drop attack)")
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


# (command, an option it writes, the options it reads whose files that
# write must not replace). embed and attack may write --out over --in.
_KEEP_INPUTS = [
    ("embed", "--key-out", ("--in", "--wm", "--out")),
    ("embed", "--out", ("--wm",)),
    ("extract", "--out", ("--in", "--key", "--ref")),
    ("attack", "--out", ("--original",)),
]


def _same_file(a: str, b: str) -> bool:
    """One file by path, or by inode if both exist (hard links)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one is missing
        return False


def _overwritten_input(args) -> str | None:
    """Names the first input the command's output would overwrite, if any."""
    def value(option):  # --in is args.input, --out args.output, --key-out args.key_out
        dest = {"--in": "input", "--out": "output"}.get(option, option[2:].replace("-", "_"))
        return getattr(args, dest)

    for command, out, inputs in _KEEP_INPUTS:
        if command != args.command:
            continue
        for option in inputs:
            if value(option) is not None and _same_file(value(out), value(option)):
                return f"{out} and {option} name the same file"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error or --help
        return int(exc.code or 0)
    if clash := _overwritten_input(args):
        print(f"wm3d {args.command}: error: {clash}", file=sys.stderr)
        return EXIT_USAGE
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
