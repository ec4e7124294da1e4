"""Video and image I/O: YUV4MPEG2 streams and binary PGM files.

Only the luma plane is ever processed. Chroma payloads read from 4:2:0
sources are kept verbatim and re-emitted untouched, so a pipeline run
never rewrites bytes it did not watermark. Parsing never rescales
sample values.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

# 4:2:0 chroma tokens we accept; payload is W/2 x H/2 per plane for all of them.
_C420_TOKENS = {"420", "420jpeg", "420paldv", "420mpeg2"}

_READ_PIECE = 1 << 24  # largest single read; payload sizes come from headers


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_luma(x: np.ndarray) -> np.ndarray:
    """Round half away from zero and clamp to the 8-bit luma range.

    For x >= 0, floor(x + 0.5) is exactly round_half_away's
    floor(|x| + 0.5); negative inputs clamp to 0 either way.
    """
    y = np.array(x, dtype=np.float64)
    y += 0.5
    np.floor(y, out=y)
    np.clip(y, 0, 255, out=y)
    return y.astype(np.uint8)


@dataclass
class VideoClip:
    """A sequence of 8-bit luma frames plus passthrough metadata.

    frames: list of HxW uint8 arrays, all the same shape.
    rate: frame rate as a (numerator, denominator) pair; metadata only.
    chroma_token: y4m C token of the source ("420jpeg", ...); None means
        luma-only.
    chroma: per-frame chroma payload bytes, verbatim from the source.
    extras: other y4m header tokens (interlacing, aspect, comments) kept
        for re-emission.
    """

    frames: list
    rate: tuple = (25, 1)
    chroma_token: str | None = None
    chroma: list | None = None
    extras: tuple = ()

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]


def _validate_clip(clip: VideoClip) -> None:
    if not clip.frames:
        raise ValueError("empty clip")
    shape = clip.frames[0].shape
    for f in clip.frames:
        if f.shape != shape:
            raise FormatError("dimension mismatch across frames")
    if clip.chroma_token is not None:
        if clip.chroma is None or len(clip.chroma) != len(clip.frames):
            raise FormatError("chroma payload count does not match frame count")


def _open(source, mode: str):
    """Return (stream, should_close) for a path or an open binary stream."""
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def _read_exact(stream, size: int, what: str) -> bytes:
    """Read exactly `size` bytes, in pieces of at most _READ_PIECE, so a
    short input fails with FormatError having allocated only what it held."""
    data = stream.read(min(size, _READ_PIECE))
    if len(data) < size:
        buf = bytearray(data)
        while data and len(buf) < size:
            data = stream.read(min(size - len(buf), _READ_PIECE))
            buf += data
        data = bytes(buf)
    if len(data) != size:
        raise FormatError(f"truncated {what}")
    return data


# --- YUV4MPEG2 ---------------------------------------------------------------


def _read_line(stream, what: str) -> bytes:
    line = bytearray()
    while True:
        ch = stream.read(1)
        if not ch:
            if line:
                raise FormatError(f"unterminated {what}")
            return b""
        if ch == b"\n":
            return bytes(line)
        line += ch
        if len(line) > 4096:
            raise FormatError(f"{what} too long")


def read_y4m(source) -> VideoClip:
    """Parse a YUV4MPEG2 stream (path or binary file object).

    Accepts 4:2:0 and mono (4:0:0) streams; chroma planes are stored
    verbatim for lossless re-emission.
    """
    stream, close = _open(source, "rb")
    try:
        header = _read_line(stream, "header")
        tokens = header.decode("ascii", "replace").split(" ")
        if not tokens or tokens[0] != "YUV4MPEG2":
            raise FormatError("malformed header: missing YUV4MPEG2 magic")

        width = height = None
        rate = None
        ctoken = None
        extras = []
        for tok in tokens[1:]:
            if not tok:
                continue
            key, val = tok[0], tok[1:]
            if key == "W":
                width = int(val)
            elif key == "H":
                height = int(val)
            elif key == "F":
                m = re.fullmatch(r"(\d+):(\d+)", val)
                if not m:
                    raise FormatError(f"malformed frame rate {tok!r}")
                rate = (int(m.group(1)), int(m.group(2)))
            elif key == "C":
                ctoken = val
            else:
                extras.append(tok)
        if not width or not height or width <= 0 or height <= 0:
            raise FormatError("malformed header: missing or invalid W/H")
        if rate is None:
            raise FormatError("malformed header: missing F token")

        if ctoken is None:
            ctoken = "420jpeg"  # y4m default when C is absent
        if ctoken == "mono":
            chroma_size = 0
        elif ctoken in _C420_TOKENS:
            if width % 2 or height % 2:
                raise FormatError("4:2:0 stream requires even dimensions")
            chroma_size = (width // 2) * (height // 2) * 2
        else:
            raise FormatError(f"unsupported chroma subsampling C{ctoken}")

        luma_size = width * height
        frames = []
        chroma = [] if chroma_size else None
        while True:
            marker = _read_line(stream, "frame marker")
            if marker == b"":
                break
            if marker != b"FRAME" and not marker.startswith(b"FRAME "):
                raise FormatError("malformed frame marker")
            luma = _read_exact(stream, luma_size, "frame payload")
            frames.append(
                np.frombuffer(luma, dtype=np.uint8).reshape(height, width).copy()
            )
            if chroma_size:
                chroma.append(_read_exact(stream, chroma_size, "frame payload"))
        if not frames:
            raise FormatError("truncated frame payload: no frames after header")

        return VideoClip(
            frames=frames,
            rate=rate,
            chroma_token=None if ctoken == "mono" else ctoken,
            chroma=chroma,
            extras=tuple(extras),
        )
    finally:
        if close:
            stream.close()


def write_y4m(clip: VideoClip, sink) -> None:
    """Emit a clip as YUV4MPEG2; luma-only clips are written as mono."""
    _validate_clip(clip)
    h, w = clip.frames[0].shape
    ctoken = clip.chroma_token if clip.chroma_token is not None else "mono"
    tokens = [
        "YUV4MPEG2",
        f"W{w}",
        f"H{h}",
        f"F{clip.rate[0]}:{clip.rate[1]}",
        *clip.extras,
        f"C{ctoken}",
    ]
    stream, close = _open(sink, "wb")
    try:
        stream.write((" ".join(tokens) + "\n").encode("ascii"))
        for k, frame in enumerate(clip.frames):
            stream.write(b"FRAME\n")
            stream.write(np.ascontiguousarray(frame, dtype=np.uint8).tobytes())
            if clip.chroma_token is not None:
                stream.write(clip.chroma[k])
    finally:
        if close:
            stream.close()


# --- PGM ---------------------------------------------------------------------


def _pgm_next_token(stream) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    tok = bytearray()
    while True:
        ch = stream.read(1)
        if not ch:
            raise FormatError("truncated PGM header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = stream.read(1)
            continue
        if ch.isspace():
            if tok:
                return bytes(tok)
            continue
        tok += ch


def read_pgm(source) -> np.ndarray:
    """Read a binary (P5) PGM image with maxval 255 as an HxW uint8 array."""
    stream, close = _open(source, "rb")
    try:
        if _pgm_next_token(stream) != b"P5":
            raise FormatError("not a binary PGM (P5) file")
        width = int(_pgm_next_token(stream))
        height = int(_pgm_next_token(stream))
        maxval = int(_pgm_next_token(stream))
        if width <= 0 or height <= 0:
            raise FormatError("invalid PGM dimensions")
        if maxval != 255:
            raise FormatError(f"unsupported PGM maxval {maxval} (must be 255)")
        data = _read_exact(stream, width * height, "PGM payload")
        return np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy()
    finally:
        if close:
            stream.close()


def write_pgm(image: np.ndarray, sink) -> None:
    """Write an HxW uint8 array as binary PGM, maxval 255."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a nonempty 2-D array")
    h, w = arr.shape
    stream, close = _open(sink, "wb")
    try:
        stream.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        stream.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())
    finally:
        if close:
            stream.close()


def read_pgm_sequence(source) -> VideoClip:
    """Read an ordered PGM frame sequence as a luma-only clip.

    `source` is a directory (its *.pgm files are taken in lexicographic
    name order) or an iterable of file paths taken as given.
    """
    if isinstance(source, (str, Path)):
        directory = Path(source)
        paths = sorted(directory.glob("*.pgm"), key=lambda p: p.name)
    else:
        paths = [Path(p) for p in source]
    if not paths:
        raise FormatError("no PGM frames found")
    frames = [read_pgm(p) for p in paths]
    shape = frames[0].shape
    for p, f in zip(paths, frames):
        if f.shape != shape:
            raise FormatError(f"dimension mismatch across frames: {p.name}")
    return VideoClip(frames=frames)


def write_pgm_sequence(
    clip: VideoClip, directory, pattern: str = "frame_{:06d}.pgm"
) -> None:
    """Write clip frames as zero-padded PGM files (frame_000001.pgm, ...).

    Chroma and frame rate have no PGM representation and are dropped.
    """
    _validate_clip(clip)
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(clip.frames, start=1):
        write_pgm(frame, out / pattern.format(k))
