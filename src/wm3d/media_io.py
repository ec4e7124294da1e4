"""Video and image I/O: YUV4MPEG2 streams and binary PGM files.

A video is a y4m file or stream, or a directory of PGM frames; only
open_video, read_video and write_video tell the two forms apart. Readers
and writers take a path (str or any os.PathLike) or an open binary io
stream (readers call its readline); a stream is left open. Only the luma
plane is ever processed. Chroma payloads read from 4:2:0 sources are kept
verbatim and re-emitted untouched, so a pipeline run never rewrites bytes
it did not watermark. Parsing never rescales sample values.
"""

import io
import os
import re
from contextlib import contextmanager, nullcontext
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

    Checked at construction, so by dataclasses.replace too (frames changed
    in place later are not re-checked): ValueError for no frames or a frame
    that is not a 2-D uint8 array (0x0 is fine), FormatError for mixed
    shapes or a chroma_token without one payload per frame.
    """

    frames: list
    rate: tuple = (25, 1)
    chroma_token: str | None = None
    chroma: list | None = None
    extras: tuple = ()

    def __post_init__(self):
        if not self.frames:
            raise ValueError("empty clip")
        for k, f in enumerate(self.frames):
            if not isinstance(f, np.ndarray) or f.dtype != np.uint8 or f.ndim != 2:
                got = f"{getattr(f, 'dtype', type(f).__name__)} of shape {np.shape(f)}"
                raise ValueError(f"frame {k} must be a 2-D uint8 array, got {got}")
            _check_shape(k, f, 0, self.frames[0])
        if self.chroma_token is not None and len(self.chroma or ()) != len(self.frames):
            raise FormatError("chroma payload count does not match frame count")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]


def _check_shape(k: int, frame, first: int, first_frame) -> None:
    if frame.shape != first_frame.shape:
        got = f"frame {k} is {frame.shape}, frame {first} is {first_frame.shape}"
        raise FormatError(f"dimension mismatch across frames: {got}")


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


def _read_line(stream, what: str) -> bytes | None:
    """Next line without its newline, None at end of input."""
    line = stream.readline(_HEADER_MAX + 1)
    if line.endswith(b"\n") or not line:
        return line[:-1] if line else None
    if len(line) > _HEADER_MAX:
        raise FormatError(f"{what} too long")
    raise FormatError(f"unterminated {what}")


class VideoHeader(NamedTuple):
    width: int
    height: int
    rate: tuple  # (numerator, denominator)
    chroma_token: str | None  # None for mono
    extras: tuple  # other header tokens, kept for re-emission


def iter_y4m(stream, keep=None, chroma=None) -> tuple:
    """Read a YUV4MPEG2 stream (binary file object) frame by frame.

    Parses the header at once and returns (VideoHeader, frames). `frames`
    yields each frame's HxW uint8 luma in order, or None for a frame
    whose index is not in `keep` (None keeps every frame), whose
    payload is skipped unread. Each kept frame's chroma payload is
    appended to the list `chroma` if one is given, else skipped. Only end
    of input ends the frames: any line but a FRAME marker, an empty one
    too, where a marker belongs is a FormatError.
    """
    tokens = (_read_line(stream, "header") or b"").decode("ascii", "replace").split(" ")
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
    header = VideoHeader(width, height, rate, ctoken, tuple(extras))
    return header, _y4m_frames(stream, header, keep, chroma)


def _y4m_frames(stream, header: VideoHeader, keep, chroma):
    h, w = header.height, header.width
    chroma_size = 0 if header.chroma_token is None else (w // 2) * (h // 2) * 2
    count = 0
    while (marker := _read_line(stream, "frame marker")) is not None:
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


def write_y4m(clip: VideoClip, sink) -> None:
    """Emit a clip as YUV4MPEG2; luma-only clips are written as mono."""
    ctoken = clip.chroma_token if clip.chroma_token is not None else "mono"
    tokens = [
        "YUV4MPEG2",
        f"W{clip.width}",
        f"H{clip.height}",
        f"F{clip.rate[0]}:{clip.rate[1]}",
        *clip.extras,
        f"C{ctoken}",
    ]
    with _open(sink, "wb") as stream:
        stream.write((" ".join(tokens) + "\n").encode("ascii"))
        for k, frame in enumerate(clip.frames):
            stream.write(b"FRAME\n")
            stream.write(frame.tobytes())
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


def write_pgm_sequence(clip: VideoClip, directory) -> None:
    """Write clip frames as frame_000001.pgm, frame_000002.pgm, ... in
    `directory`, which is made if missing and must hold no *.pgm file yet
    (FormatError), so no stale frame is left to read back. Chroma and frame
    rate have no PGM representation and are dropped.
    """
    out = Path(directory)
    if any(out.glob("*.pgm")):
        raise FormatError(f"{out} already holds PGM frames")
    out.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(clip.frames, start=1):
        write_pgm(frame, out / f"frame_{k:06d}.pgm")


# --- either form -------------------------------------------------------------


@contextmanager
def open_video(source, keep=None, chroma=None):
    """Open a video to read frame by frame: (VideoHeader, frames) as from
    iter_y4m. A directory is its *.pgm files in name order, luma only at
    25:1; it is listed once, only frames in `keep` are opened, the header
    is the first kept frame's (frame 0's if none is), and a kept frame of
    another size is a FormatError when read. Anything else is y4m."""
    if isinstance(source, (str, os.PathLike)) and os.path.isdir(source):
        paths = sorted(Path(source).glob("*.pgm"), key=lambda p: p.name)
        if not paths:
            raise FormatError("no PGM frames found")
        kept = [keep is None or k in keep for k in range(len(paths))]
        first = kept.index(True) if True in kept else 0
        image = read_pgm(paths[first])
        header = VideoHeader(image.shape[1], image.shape[0], (25, 1), None, ())
        yield header, _pgm_frames(paths, kept, first, image)
    else:
        with _open(source, "rb") as stream:
            yield iter_y4m(stream, keep, chroma)


def _pgm_frames(paths, kept, first: int, image):
    for k, (path, take) in enumerate(zip(paths, kept)):
        frame = None
        if take:
            frame = image if k == first else read_pgm(path)
            _check_shape(k, frame, first, image)
        yield frame


def read_video(source) -> VideoClip:
    """Read a whole video, every frame and its chroma, through open_video."""
    chroma = []
    with open_video(source, chroma=chroma) as (header, frames):
        frames = list(frames)
    return VideoClip(frames, header.rate, header.chroma_token, chroma or None, header.extras)


read_y4m = read_pgm_sequence = read_video  # its older names, one per form


def write_video(clip: VideoClip, path) -> None:
    """Write a clip as y4m to a path named *.y4m (any case), else as PGM frames."""
    write = write_y4m if Path(path).suffix.lower() == ".y4m" else write_pgm_sequence
    write(clip, path)
