"""Video and image I/O: YUV4MPEG2 streams and binary PGM files.

Readers and writers take a path (str or any os.PathLike) or an open
binary io stream (readers call its readline); a stream is left open.
Only the luma plane is ever processed. Chroma payloads read from 4:2:0
sources are kept verbatim and re-emitted untouched, so a pipeline run
never rewrites bytes it did not watermark. Parsing never rescales sample
values.
"""

import io
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError

# 4:2:0 chroma tokens we accept; payload is W/2 x H/2 per plane for all of them.
_C420_TOKENS = {"420", "420jpeg", "420paldv", "420mpeg2"}

_READ_PIECE = 1 << 24  # largest single read; payload sizes come from headers
_HEADER_MAX = 4096  # longest y4m header line, PGM header token or PGM comment


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


def _require_uint8(frames, what: str) -> None:
    """ValueError unless every frame is uint8, as integer kernels need."""
    for f in frames:
        if f.dtype != np.uint8:
            raise ValueError(f"{what} needs uint8 frames, got {f.dtype}")


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
    """Context manager over `source`: a path (str or os.PathLike) is opened
    in `mode` and closed on exit; an open stream is used as is, left open."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode)
    return nullcontext(source)


def _read_array(stream, size: int, what: str) -> np.ndarray:
    """Read exactly `size` bytes into a fresh uint8 array with readinto.

    The array starts at most _READ_PIECE long and at most doubles while
    data arrives, so short input fails having allocated little."""
    out = np.empty(min(size, _READ_PIECE), np.uint8)
    filled = 0
    while filled < size:
        if filled == out.size:
            out = np.resize(out, min(size, 2 * filled))
        got = stream.readinto(memoryview(out)[filled:])
        if not got:
            raise FormatError(f"truncated {what}")
        filled += got
    return out


def _skip(stream, size: int, what: str) -> None:
    """Consume `size` bytes unread, seeking to the last one if the stream can."""
    if stream.seekable():
        stream.seek(size - 1, io.SEEK_CUR)
        size = 1
    while size:
        got = len(stream.read(min(size, _READ_PIECE)))
        if not got:
            raise FormatError(f"truncated {what}")
        size -= got


def _header_int(token, what: str) -> int:
    """A header number (str or bytes token) as an int, else FormatError."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"malformed {what} {token[:32]!r}") from None


# --- YUV4MPEG2 ---------------------------------------------------------------


def _read_line(stream, what: str) -> bytes:
    """Next line without its newline, b"" at end of input."""
    line = stream.readline(_HEADER_MAX + 1)
    if line.endswith(b"\n") or not line:
        return line[:-1]
    if len(line) > _HEADER_MAX:
        raise FormatError(f"{what} too long")
    raise FormatError(f"unterminated {what}")


class Y4mHeader(NamedTuple):
    width: int
    height: int
    rate: tuple  # (numerator, denominator)
    chroma_token: str | None  # None for mono
    extras: tuple  # other header tokens, kept for re-emission


def iter_y4m(stream, keep=None, chroma=None) -> tuple:
    """Read a YUV4MPEG2 stream (binary file object) frame by frame.

    Parses the header at once and returns (Y4mHeader, frames). `frames`
    yields each frame's HxW uint8 luma in order, or None for a frame
    whose index is not in `keep` (None keeps every frame), whose
    payload is skipped unread. Each kept frame's chroma payload is
    appended to the list `chroma` if one is given, else skipped.
    """
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
            width = _header_int(val, "y4m width")
        elif key == "H":
            height = _header_int(val, "y4m height")
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
        ctoken = None
    elif ctoken in _C420_TOKENS:
        if width % 2 or height % 2:
            raise FormatError("4:2:0 stream requires even dimensions")
    else:
        raise FormatError(f"unsupported chroma subsampling C{ctoken}")
    header = Y4mHeader(width, height, rate, ctoken, tuple(extras))
    return header, _y4m_frames(stream, header, keep, chroma)


def _y4m_frames(stream, header: Y4mHeader, keep, chroma):
    h, w = header.height, header.width
    chroma_size = 0 if header.chroma_token is None else (w // 2) * (h // 2) * 2
    count = 0
    while marker := _read_line(stream, "frame marker"):
        if marker != b"FRAME" and not marker.startswith(b"FRAME "):
            raise FormatError("malformed frame marker")
        luma = None
        if keep is None or count in keep:
            luma = _read_array(stream, h * w, "frame payload").reshape(h, w)
            if chroma is not None and chroma_size:
                payload = _read_array(stream, chroma_size, "frame payload")
                chroma.append(payload.tobytes())
            elif chroma_size:
                _skip(stream, chroma_size, "frame payload")
        else:
            _skip(stream, h * w + chroma_size, "frame payload")
        count += 1
        yield luma
    if not count:
        raise FormatError("truncated frame payload: no frames after header")


def read_y4m(source) -> VideoClip:
    """Parse a YUV4MPEG2 stream (path or binary file object).

    Accepts 4:2:0 and mono (4:0:0) streams; chroma planes are stored
    verbatim for lossless re-emission: iter_y4m keeping every frame.
    """
    chroma = []
    with _open(source, "rb") as stream:
        header, frames = iter_y4m(stream, chroma=chroma)
        frames = list(frames)
    return VideoClip(
        frames=frames,
        rate=header.rate,
        chroma_token=header.chroma_token,
        chroma=None if header.chroma_token is None else chroma,
        extras=header.extras,
    )


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
    with _open(sink, "wb") as stream:
        stream.write((" ".join(tokens) + "\n").encode("ascii"))
        for k, frame in enumerate(clip.frames):
            stream.write(b"FRAME\n")
            stream.write(np.ascontiguousarray(frame, dtype=np.uint8).tobytes())
            if clip.chroma_token is not None:
                stream.write(clip.chroma[k])


# --- PGM ---------------------------------------------------------------------


def _pgm_next_token(stream) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments.

    Tokens and comments are capped like y4m header lines, so a damaged
    header is refused without reading on through the file.
    """
    tok = bytearray()
    while True:
        ch = stream.read(1)
        if not ch:
            raise FormatError("truncated PGM header")
        if ch == b"#":
            _read_line(stream, "PGM comment")
            continue
        if ch.isspace():
            if tok:
                return bytes(tok)
            continue
        tok += ch
        if len(tok) > _HEADER_MAX:
            raise FormatError(f"malformed PGM header: token over {_HEADER_MAX} bytes")


def read_pgm(source) -> np.ndarray:
    """Read a binary (P5) PGM image with maxval 255 as an HxW uint8 array."""
    with _open(source, "rb") as stream:
        if _pgm_next_token(stream) != b"P5":
            raise FormatError("not a binary PGM (P5) file")
        width = _header_int(_pgm_next_token(stream), "PGM width")
        height = _header_int(_pgm_next_token(stream), "PGM height")
        maxval = _header_int(_pgm_next_token(stream), "PGM maxval")
        if width <= 0 or height <= 0:
            raise FormatError("invalid PGM dimensions")
        if maxval != 255:
            raise FormatError(f"unsupported PGM maxval {maxval} (must be 255)")
        return _read_array(stream, width * height, "PGM payload").reshape(height, width)


def write_pgm(image: np.ndarray, sink) -> None:
    """Write an HxW uint8 array as binary PGM, maxval 255."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a nonempty 2-D array")
    h, w = arr.shape
    with _open(sink, "wb") as stream:
        stream.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        stream.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def read_pgm_sequence(directory) -> VideoClip:
    """Read a directory's *.pgm files, in lexicographic name order, as a
    luma-only clip."""
    paths = sorted(Path(directory).glob("*.pgm"), key=lambda p: p.name)
    if not paths:
        raise FormatError("no PGM frames found")
    frames = [read_pgm(p) for p in paths]
    shape = frames[0].shape
    for p, f in zip(paths, frames):
        if f.shape != shape:
            raise FormatError(f"dimension mismatch across frames: {p.name}")
    return VideoClip(frames=frames)


def write_pgm_sequence(clip: VideoClip, directory) -> None:
    """Write clip frames as frame_000001.pgm, frame_000002.pgm, ... in
    `directory`, which is made if missing.

    Chroma and frame rate have no PGM representation and are dropped.
    """
    _validate_clip(clip)
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(clip.frames, start=1):
        write_pgm(frame, out / f"frame_{k:06d}.pgm")
