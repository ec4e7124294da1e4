"""Key bundle: everything blind extraction needs, and its file format.

A KeyBundle holds each fact once: seeds, EmbedParams (a mark's strength and
placement, with its rules), shot boundaries and one ShotRecord per selected
shot; the records give the selected shots and the mark's size.

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

After the magic line every line is NAME=VALUE in this fixed order; a line
out of place is refused naming the field expected ("expected wm_w=...").
read_key accepts a file only if it is, byte for byte, the text write_key
writes for the bundle it parses to; a refusal quotes the first line that differs.
"""

import base64
import binascii
import numbers
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .errors import FormatError, GeometryError
from .media_io import _is_int, _open
from .prng import MASK64
from .shots import MIN_EMBED_SHOT_LEN, PLANE_COUNT, validate_boundaries
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
        if not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        # alpha 0 is allowed as a degenerate no-op strength
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1)")
        if self.band not in BANDS:
            raise ValueError(f"unknown band {self.band!r}")
        for name in ("region_row0", "region_col0"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    params: EmbedParams
    boundaries: tuple
    records: list

    @property
    def selected(self) -> tuple:
        return tuple(rec.shot_index for rec in self.records)

    @property
    def wm_height(self) -> int:
        return np.shape(self.records[0].planes)[1]

    @property
    def wm_width(self) -> int:
        return np.shape(self.records[0].planes)[2]


def _check_bundle(bundle: KeyBundle) -> None:
    """FormatError if the bundle breaks a key rule."""
    seeds = (bundle.seed1, bundle.seed2, bundle.seed3)
    b, selected = bundle.boundaries, bundle.selected
    try:
        validate_boundaries(b)
    except GeometryError as exc:
        raise FormatError(str(exc)) from None
    for name, values in (("seeds", seeds), ("shot indices", selected)):
        if not all(map(_is_int, values)):
            raise FormatError(f"{name} must be integers, got {list(values)}")
    for name, v in zip(("seed1", "seed2", "seed3"), seeds):
        if not 0 <= v <= MASK64:
            raise FormatError(f"{name} out of 64-bit range")
    if not selected:
        raise FormatError("key bundle selects no shots")
    if any(not 0 <= i < len(b) - 1 for i in selected):
        raise FormatError("selected shot index outside boundary range")
    if list(selected) != sorted(set(selected)):
        raise FormatError("selected shot indices must be sorted and unique")
    for i in selected:
        if b[i + 1] - b[i] < MIN_EMBED_SHOT_LEN:
            raise FormatError(
                f"selected shot {i} has {b[i + 1] - b[i]} frames, "
                f"fewer than the {MIN_EMBED_SHOT_LEN} a mark needs"
            )
    # the first record fixes the mark's size; every record must share it
    shape = np.shape(bundle.records[0].planes)
    if len(shape) != 3:
        raise FormatError(f"shot {selected[0]} planes have shape {shape}, "
                          f"expected ({PLANE_COUNT}, height, width)")
    if 0 in shape[1:]:
        raise FormatError("watermark dimensions must be positive")
    shape = (PLANE_COUNT, *shape[1:])
    for rec in bundle.records:
        arr = np.asarray(rec.planes)
        if arr.shape != shape:
            raise FormatError(
                f"shot {rec.shot_index} planes have shape {arr.shape}, "
                f"expected {shape}"
            )
        if np.any((arr != 1) & (arr != -1)):
            raise FormatError(f"shot {rec.shot_index} planes must be +-1")


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
        raise FormatError(f"plane payload is {len(raw)} bytes, expected {expected}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=height * width)
    return (2 * bits.astype(np.int8) - 1).reshape(height, width)


def _parse_int_list(value: str) -> tuple:
    return tuple(map(int, value.split(","))) if value else ()


def _format_int_list(values) -> str:
    return ",".join(str(v) for v in values)


# The header in file order: (name, KeyBundle attribute path, parser, formatter).
# Alpha is written as the repr of a float, so an integer alpha 0 reads back
# as 0.0. wm_w, wm_h and selected repeat what the shot blocks hold.
_HEADER = (
    ("seed1", "seed1", int, str),
    ("seed2", "seed2", int, str),
    ("seed3", "seed3", int, str),
    ("alpha", "params.alpha", float, lambda v: repr(float(v))),
    ("wm_w", "wm_width", int, str),
    ("wm_h", "wm_height", int, str),
    ("band", "params.band", str, str),
    ("row0", "params.region_row0", int, str),
    ("col0", "params.region_col0", int, str),
    ("boundaries", "boundaries", _parse_int_list, _format_int_list),
    ("selected", "selected", _parse_int_list, _format_int_list),
)


def _key_text(bundle: KeyBundle) -> str:
    """The key file's text for a bundle; fails on an inconsistent bundle."""
    _check_bundle(bundle)
    lines = [f"{MAGIC} {VERSION}"]
    lines += [f"{name}={fmt(attrgetter(attr)(bundle))}" for name, attr, _, fmt in _HEADER]
    for rec in bundle.records:
        lines.append(f"shot={rec.shot_index}")
        lines += [f"plane{k}={_pack_plane(plane)}" for k, plane in enumerate(rec.planes, 1)]
    return "\n".join(lines) + "\n"


def write_key(bundle: KeyBundle, sink) -> None:
    """Serialize a key bundle; fails on an inconsistent bundle."""
    text = _key_text(bundle)
    with _open(sink, "w") as fh:
        fh.write(text)


def read_key(source) -> KeyBundle:
    """Parse and validate a key file: the text write_key writes, byte for byte."""
    with _open(source, "rb") as fh:
        text = fh.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"key file is not ASCII: {exc}") from exc

    lines = deque(text.splitlines())
    magic, _, version = (lines.popleft() if lines else "").partition(" ")
    if magic != MAGIC:
        raise FormatError("bad magic: not a WM3DKEY file" if text else "empty key file")
    if version != str(VERSION):
        raise FormatError(f"unknown key file version {version!r}")

    def field(name, parse):
        """The next line's value, which must be NAME=VALUE, through `parse`."""
        line = lines.popleft() if lines else ""
        key, eq, value = line.partition("=")
        if key != name or not eq:
            raise FormatError(f"expected {name}=..., got {line[:64]!r}")
        try:
            return parse(value)
        except FormatError:  # the plane reader's own, which name what is wrong
            raise
        except ValueError:
            raise FormatError(f"bad {name} value {value[:64]!r}") from None

    head = {name: field(name, parse) for name, _, parse, _ in _HEADER}
    # a plane's payload is held to the header's size before anything that size is allocated
    unpack = partial(_unpack_plane, height=head["wm_h"], width=head["wm_w"])
    records = []
    while lines:
        index = field("shot", int)
        planes = [field(f"plane{k}", unpack) for k in range(1, PLANE_COUNT + 1)]
        records.append(ShotRecord(shot_index=index, planes=np.stack(planes)))
    try:
        params = EmbedParams(head["alpha"], head["row0"], head["col0"], head["band"])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    bundle = KeyBundle(head["seed1"], head["seed2"], head["seed3"], params,
                       head["boundaries"], records)
    if text != (want := _key_text(bundle)):  # _key_text checks the bundle first
        pairs = zip(text.splitlines(True), want.splitlines(True))  # one line per field read
        n, (got, line) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
        raise FormatError(f"key line {n} is {got[:64]!r}; write_key writes {line[:64]!r}")
    return bundle
