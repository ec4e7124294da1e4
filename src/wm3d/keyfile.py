"""Key bundle: everything blind extraction needs, and its file format.

It also declares EmbedParams, a mark's strength and placement, with its
rules; _check_bundle holds a key to them and returns the key's EmbedParams.

The file is line-oriented text. A header fixes the keys and geometry:

    WM3DKEY 1
    seed1=<u64> ... seed3=<u64>
    alpha=<float repr>
    wm_w=, wm_h=, band=, row0=, col0=
    boundaries=0,30,64
    selected=0,1

Then one block per selected shot, in ascending shot order:

    shot=<index>
    plane1=<base64> ... plane8=<base64>

Each plane is the realized sign matrix for one coefficient frame,
bit-packed row-major (1 bit per sign, 1 <-> +1, 0 <-> -1, MSB first,
padded to a byte boundary) and base64-encoded. Round-trips are exact.
"""

import base64
import binascii
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .media_io import _open
from .prng import MASK64
from .shots import MIN_EMBED_SHOT_LEN, PLANE_COUNT
from .wavelet3d import BANDS, SubbandRect, subband_rect

MAGIC = "WM3DKEY"
VERSION = 1


@dataclass(frozen=True)
class EmbedParams:
    """Embedding strength and watermark placement, checked when built.

    band names a level-3 subband ("lh3" by default, "hl3" for the
    transposed convention); the watermark rectangle sits at
    (region_row0, region_col0) inside that subband.
    """

    alpha: float = 0.1
    region_row0: int = 0
    region_col0: int = 0
    band: str = "lh3"

    def __post_init__(self):
        # alpha 0 is allowed as a degenerate no-op strength
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1)")
        if self.band not in BANDS:
            raise ValueError(f"unknown band {self.band!r}")
        if self.region_row0 < 0 or self.region_col0 < 0:
            raise ValueError("region offset must be non-negative")

    def rect_for(self, height: int, width: int) -> SubbandRect:
        return subband_rect(height, width, self.band)


@dataclass(eq=False)
class ShotRecord:
    """Realized sign planes of one embedded shot (the third key)."""

    shot_index: int
    planes: np.ndarray  # (8, wm_h, wm_w) int8 in {-1, +1}, coefficient frames 1..8


@dataclass(eq=False)
class KeyBundle:
    seed1: int
    seed2: int
    seed3: int
    alpha: float
    wm_width: int
    wm_height: int
    band: str = EmbedParams.band
    region_row0: int = EmbedParams.region_row0
    region_col0: int = EmbedParams.region_col0
    boundaries: tuple = ()
    selected: tuple = ()
    records: list = field(default_factory=list)


def _check_bundle(bundle: KeyBundle) -> EmbedParams:
    """The bundle's EmbedParams; FormatError if it breaks a key rule."""
    for name in ("seed1", "seed2", "seed3"):
        v = getattr(bundle, name)
        if not 0 <= v <= MASK64:
            raise FormatError(f"{name} out of 64-bit range")
    try:
        params = EmbedParams(
            bundle.alpha, bundle.region_row0, bundle.region_col0, bundle.band
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if bundle.wm_width < 1 or bundle.wm_height < 1:
        raise FormatError("watermark dimensions must be positive")
    b = bundle.boundaries
    if len(b) < 2 or b[0] != 0 or any(y <= x for x, y in zip(b, b[1:])):
        raise FormatError(f"bad shot boundaries {list(b)}")
    shot_count = len(bundle.boundaries) - 1
    if not bundle.selected:
        raise FormatError("key bundle selects no shots")
    if any(not 0 <= i < shot_count for i in bundle.selected):
        raise FormatError("selected shot index outside boundary range")
    if list(bundle.selected) != sorted(set(bundle.selected)):
        raise FormatError("selected shot indices must be sorted and unique")
    for i in bundle.selected:
        if b[i + 1] - b[i] < MIN_EMBED_SHOT_LEN:
            raise FormatError(
                f"selected shot {i} has {b[i + 1] - b[i]} frames, "
                f"fewer than the {MIN_EMBED_SHOT_LEN} a mark needs"
            )
    if [r.shot_index for r in bundle.records] != list(bundle.selected):
        raise FormatError("shot records do not match selected shots")
    shape = (PLANE_COUNT, bundle.wm_height, bundle.wm_width)
    for rec in bundle.records:
        arr = np.asarray(rec.planes)
        if arr.shape != shape:
            raise FormatError(
                f"shot {rec.shot_index} planes have shape {arr.shape}, "
                f"expected {shape}"
            )
        if np.any((arr != 1) & (arr != -1)):
            raise FormatError(f"shot {rec.shot_index} planes must be +-1")
    return params


def _pack_plane(plane: np.ndarray) -> str:
    bits = (np.asarray(plane).ravel() == 1).astype(np.uint8)
    return base64.b64encode(np.packbits(bits).tobytes()).decode("ascii")


def _unpack_plane(text: str, height: int, width: int) -> np.ndarray:
    if height < 1 or width < 1:
        raise FormatError("watermark dimensions must be positive")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise FormatError(f"corrupt base64 plane data: {exc}") from exc
    expected = (height * width + 7) // 8
    if len(raw) != expected:
        raise FormatError(
            f"plane payload is {len(raw)} bytes, expected {expected}"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=height * width)
    return (2 * bits.astype(np.int8) - 1).reshape(height, width)


def _parse_int_list(value: str) -> tuple:
    return tuple(int(v) for v in value.split(",")) if value else ()


def _format_int_list(values) -> str:
    return ",".join(str(v) for v in values)


# The header, in file order: (name in the file, KeyBundle attribute,
# parser, formatter). Alpha is written as the repr of a float, so an
# integer alpha 0 still reads back as 0.0.
_HEADER = (
    ("seed1", "seed1", int, str),
    ("seed2", "seed2", int, str),
    ("seed3", "seed3", int, str),
    ("alpha", "alpha", float, lambda v: repr(float(v))),
    ("wm_w", "wm_width", int, str),
    ("wm_h", "wm_height", int, str),
    ("band", "band", str, str),
    ("row0", "region_row0", int, str),
    ("col0", "region_col0", int, str),
    ("boundaries", "boundaries", _parse_int_list, _format_int_list),
    ("selected", "selected", _parse_int_list, _format_int_list),
)


def write_key(bundle: KeyBundle, sink) -> None:
    """Serialize a key bundle; fails on an inconsistent bundle."""
    _check_bundle(bundle)
    lines = [f"{MAGIC} {VERSION}"]
    lines += [f"{name}={fmt(getattr(bundle, attr))}" for name, attr, _, fmt in _HEADER]
    for rec in bundle.records:
        lines.append(f"shot={rec.shot_index}")
        for k in range(PLANE_COUNT):
            lines.append(f"plane{k + 1}={_pack_plane(rec.planes[k])}")
    with _open(sink, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key(source) -> KeyBundle:
    """Parse and validate a key file; exact inverse of write_key."""
    with _open(source, "rb") as fh:
        text = fh.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"key file is not ASCII: {exc}") from exc

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty key file")
    magic = lines[0].split(" ")
    if len(magic) != 2 or magic[0] != MAGIC:
        raise FormatError("bad magic: not a WM3DKEY file")
    if magic[1] != str(VERSION):
        raise FormatError(f"unknown key file version {magic[1]!r}")

    values = {}
    for pos, (name, attr, parse, _) in enumerate(_HEADER, start=1):
        if pos >= len(lines) or not lines[pos].startswith(f"{name}="):
            raise FormatError(f"missing or misplaced header field {name!r}")
        text = lines[pos].split("=", 1)[1]
        try:
            values[attr] = parse(text)
        except ValueError as exc:
            raise FormatError(f"bad {name} value {text!r}") from exc
    bundle = KeyBundle(**values)
    pos = len(_HEADER) + 1

    while pos < len(lines):
        if not lines[pos].startswith("shot="):
            raise FormatError(f"expected shot block, got {lines[pos]!r}")
        try:
            index = int(lines[pos].split("=", 1)[1])
        except ValueError as exc:
            raise FormatError(f"bad shot index line {lines[pos]!r}") from exc
        pos += 1
        # Each plane's payload length is checked against the header's
        # dimensions before anything of that size is allocated.
        planes = []
        for k in range(PLANE_COUNT):
            prefix = f"plane{k + 1}="
            if pos >= len(lines) or not lines[pos].startswith(prefix):
                raise FormatError(f"missing plane {k + 1} for shot {index}")
            text = lines[pos][len(prefix) :]
            planes.append(_unpack_plane(text, bundle.wm_height, bundle.wm_width))
            pos += 1
        bundle.records.append(ShotRecord(shot_index=index, planes=np.stack(planes)))

    _check_bundle(bundle)
    return bundle
