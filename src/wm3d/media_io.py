"""Video and image I/O: YUV4MPEG2 streams and binary PGM files.

A video is a y4m file or stream, read whole by read_video, frame by frame
by open_video (from a VideoClip too) and written frame by frame by
write_frames (write_video writes a clip through it). Watermarks and
extracted marks are PGM images. Readers and writers take a path (str or
any os.PathLike) or an open binary io stream, left open (readers call its
readline). Frames move as the (luma, payload) pairs open_video yields and
write_frames takes; only luma is processed, and a 4:2:0 payload (None for
mono) is its chroma verbatim, so a run never rewrites bytes it did not
watermark. Reading never rescales, nor writing wraps (_check_frame, _uint8_image).
"""

import io
import itertools
import os
import re
import stat
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
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
    chroma_token: y4m C token of the source ("420jpeg", ...); None for mono.
    chroma: per-frame chroma payload bytes, verbatim from the source.
    extras: other y4m header tokens (interlacing, aspect, comments) kept
        for re-emission.

    Checked at construction, so by dataclasses.replace too (frames changed
    in place later are not re-checked): ValueError for no frames,
    FormatError for a chroma_token without one payload per frame, then
    _check_frame's rule for each frame against frame 0 (0x0 is fine).
    """

    frames: list
    rate: tuple = (25, 1)
    chroma_token: str | None = None
    chroma: list | None = None
    extras: tuple = ()

    def __post_init__(self):
        if not self.frames:
            raise ValueError("empty clip")
        chroma = self.chroma_token is not None
        if chroma and len(self.chroma or ()) != len(self.frames):
            raise FormatError("chroma payload count does not match frame count")
        shape = np.shape(self.frames[0])  # frame 0 is checked against itself first
        for k, (f, payload) in enumerate(_clip_frames(self)):
            _check_frame(k, f, payload, shape, chroma)

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]

    @property
    def header(self) -> "VideoHeader":
        return VideoHeader(self.width, self.height, self.rate, self.chroma_token, self.extras)


def _check_frame(k: int, frame, payload, shape: tuple, chroma: bool, ref="frame 0") -> tuple:
    """Frame k read or written, returned with its payload once checked: a 2-D
    uint8 array (ValueError) of `shape`, the size of `ref`, and if the video
    has `chroma` a bytes payload of the 4:2:0 size W/2 x H/2 x 2 (else FormatError)."""
    if not isinstance(frame, np.ndarray) or frame.dtype != np.uint8 or frame.ndim != 2:
        got = f"{getattr(frame, 'dtype', type(frame).__name__)} of shape {np.shape(frame)}"
        raise ValueError(f"frame {k} must be a 2-D uint8 array, got {got}")
    if frame.shape != shape:
        got = f"frame {k} is {frame.shape}, {ref} is {shape}"
        raise FormatError(f"dimension mismatch across frames: {got}")
    size = (shape[0] // 2) * (shape[1] // 2) * 2
    if chroma and (not isinstance(payload, (bytes, bytearray)) or len(payload) != size):
        raise FormatError(f"chroma payload {k} is not {size} bytes")
    return frame, payload


def _uint8_image(image) -> np.ndarray:
    """`image` as HxW uint8, else ValueError: nonempty, 2-D, integers in [0, 255] cast exactly."""
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a nonempty 2-D array")
    if img.dtype != np.uint8 and not (img.dtype.kind in "biuf" and np.all(
            (img >= 0) & (img <= 255) & (np.floor(img) == img))):
        raise ValueError("image values must be integers in [0, 255]")
    return img.astype(np.uint8, copy=False)


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: a value y4m and key files store as is."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def iter_y4m(stream, keep=None, chroma=True) -> tuple:
    """Read a YUV4MPEG2 stream (binary file object) frame by frame.

    Parses the header at once and returns (VideoHeader, frames). `frames`
    yields in order each frame's (luma, payload) pair, the HxW uint8 luma
    and the chroma bytes (None for mono, or if not `chroma`, when they
    are skipped unread), or None for a frame whose index is not in `keep`
    (None keeps every frame), skipped unread. Only end of input ends the
    frames: any line but a FRAME marker, an empty one too, where a marker
    belongs is a FormatError.
    """
    tokens = (_read_line(stream, "header") or b"").decode("ascii", "replace").split(" ")
    if not tokens or tokens[0] != "YUV4MPEG2":
        raise FormatError("malformed header: missing YUV4MPEG2 magic")

    width = height = rate = ctoken = None
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
    ctoken = {None: "420jpeg", "mono": None}.get(ctoken, ctoken)  # 420jpeg: y4m's default
    header = VideoHeader(width, height, rate, ctoken, tuple(extras))
    _check_header(header)
    return header, _y4m_frames(stream, header, keep, chroma)


def _y4m_frames(stream, header: VideoHeader, keep, chroma):
    h, w = header.height, header.width
    chroma_size = 0 if header.chroma_token is None else (w // 2) * (h // 2) * 2
    count = 0
    while (marker := _read_line(stream, "frame marker")) is not None:
        if marker != b"FRAME" and not marker.startswith(b"FRAME "):
            raise FormatError("malformed frame marker")
        pair = None
        if keep is None or count in keep:
            luma = _read_array(stream, h * w, "frame payload").reshape(h, w)
            payload = None
            if chroma and chroma_size:
                payload = _read_array(stream, chroma_size, "frame payload").tobytes()
            elif chroma_size:
                _skip(stream, chroma_size, "frame payload")
            pair = luma, payload
        else:
            _skip(stream, h * w + chroma_size, "frame payload")
        count += 1
        yield pair
    if not count:
        raise FormatError("truncated frame payload: no frames after header")


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
    """Write an image _uint8_image takes (checked first) as binary PGM, maxval 255."""
    arr = _uint8_image(image)
    h, w = arr.shape
    with _open(sink, "wb") as stream:
        stream.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        stream.write(np.ascontiguousarray(arr))


# --- video -------------------------------------------------------------------


@contextmanager
def open_video(source, keep=None, chroma=True):
    """Open a video to read frame by frame: (VideoHeader, frames) as from
    iter_y4m, the pairs write_frames takes (payloads None if not `chroma`).
    A VideoClip yields its own frames and payloads; anything else is y4m."""
    if isinstance(source, VideoClip):
        yield source.header, _clip_frames(source, keep, chroma)
    else:
        with _open(source, "rb") as stream:
            yield iter_y4m(stream, keep, chroma)


def _clip_frames(clip: VideoClip, keep=None, chroma=True):
    payloads = clip.chroma if chroma and clip.chroma_token is not None else itertools.repeat(None)
    for k, pair in enumerate(zip(clip.frames, payloads)):
        yield pair if keep is None or k in keep else None


def read_video(source) -> VideoClip:
    """Read a whole video, every frame and its chroma, through open_video."""
    with open_video(source) as (header, frames):
        frames, chroma = zip(*frames)
    chroma = list(chroma) if header.chroma_token is not None else None
    return VideoClip(list(frames), header.rate, header.chroma_token, chroma, header.extras)


def _check_header(header: VideoHeader) -> None:
    """FormatError for a header with no pixels, a rate not two non-negative
    integers, or a chroma token not None (mono) or 4:2:0 (with even sizes)."""
    width, height, rate, ctoken, _ = header
    if not all(_is_int(v) and v > 0 for v in (width, height)):
        raise FormatError("malformed header: missing or invalid W/H")
    rate_ok = isinstance(rate, tuple) and len(rate) == 2
    if not (rate_ok and all(_is_int(v) and v >= 0 for v in rate)):
        raise FormatError(f"malformed header: missing or invalid frame rate {rate!r}")
    if ctoken not in {None, *_C420_TOKENS}:
        raise FormatError(f"unsupported chroma subsampling C{ctoken}")
    if ctoken and (width % 2 or height % 2):
        raise FormatError("4:2:0 stream requires even dimensions")


def write_frames(sink, header: VideoHeader, frames) -> None:
    """Write a video from `frames`, (luma, chroma payload) pairs (the
    payload is ignored for a mono header), each as it arrives.

    FormatError, before the sink is opened, for a header iter_y4m would
    refuse to read back (one _check_header refuses, an extra token that is
    empty, holds whitespace or non-ASCII, or starts with W, H, F or C, or a
    header line over _HEADER_MAX bytes),
    and before each frame, _check_frame's to the header's size. Any sink
    gets y4m, luma-only as mono. A path is opened without O_TRUNC (and made
    if missing) and written from its start; a regular file, so one that
    already existed is rewritten in place, is then cut to the bytes
    written, after an exception too, so no tail of the old file survives
    it. A run killed midway leaves the new frames followed by the old
    file's later ones. A FIFO or /dev/null is written as it comes; a
    directory is refused by the OS (IsADirectoryError).
    """
    _check_header(header)
    if not all(isinstance(t, str) and t.isascii() and re.fullmatch(r"[^WHFC\s]\S*", t)
               for t in header.extras):
        raise FormatError(f"y4m header tokens {header.extras!r} would not read back")
    width, height, rate, ctoken, extras = header
    line = " ".join(["YUV4MPEG2", f"W{width}", f"H{height}", f"F{rate[0]}:{rate[1]}", *extras,
                     f"C{ctoken or 'mono'}"])
    if len(line) > _HEADER_MAX:
        raise FormatError(f"y4m header line too long: {len(line)} bytes, over {_HEADER_MAX}")
    shape, chroma = (height, width), ctoken is not None
    frames = (_check_frame(k, *p, shape, chroma, "the header") for k, p in enumerate(frames))
    path = isinstance(sink, (str, os.PathLike))
    if path:
        opened = open(os.open(sink, os.O_WRONLY | os.O_CREAT, 0o666), "wb")
    with opened if path else nullcontext(sink) as stream:
        regular = path and stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
        try:
            stream.write(f"{line}\n".encode("ascii"))
            for frame, payload in frames:
                stream.write(b"FRAME\n")
                stream.write(np.ascontiguousarray(frame))
                if chroma:
                    stream.write(payload)
            stream.flush()
        finally:
            # cut where the bytes that reached the file end, which a failed
            # flush cannot overstate; close then adds what is still buffered
            if regular:
                os.ftruncate(stream.fileno(), stream.raw.tell())


def write_video(clip: VideoClip, sink) -> None:
    """Write a clip as y4m through write_frames."""
    write_frames(sink, clip.header, _clip_frames(clip))
