"""Property tests for y4m and PGM headers: a damaged header parses or
raises FormatError, never another exception.

Derandomized, so every run draws the same examples.
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wm3d.errors import FormatError  # noqa: E402
from wm3d.media_io import (  # noqa: E402
    _HEADER_MAX,
    VideoClip,
    read_pgm,
    read_video,
    write_pgm,
    write_video,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def y4m_files(draw):
    """(file bytes, header length incl. newline) of a small valid y4m."""
    w, h = 2 * draw(st.integers(1, 12)), 2 * draw(st.integers(1, 12))
    frames = [np.full((h, w), v, np.uint8)
              for v in draw(st.lists(st.integers(0, 255), min_size=1, max_size=2))]
    chroma = draw(st.sampled_from([None, "420jpeg", "420mpeg2"]))
    clip = VideoClip(
        frames=frames,
        rate=(draw(st.integers(1, 60)), draw(st.integers(1, 1001))),
        chroma_token=chroma,
        chroma=None if chroma is None else [bytes(w * h // 2)] * len(frames),
        extras=tuple(draw(st.sampled_from([(), ("Ip",), ("Ip", "A1:1")]))),
    )
    buf = io.BytesIO()
    write_video(clip, buf)
    data = buf.getvalue()
    return data, data.index(b"\n") + 1


@st.composite
def pgm_files(draw):
    """(file bytes, header length) of a small valid PGM."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    buf = io.BytesIO()
    write_pgm(np.full((h, w), draw(st.integers(0, 255)), np.uint8), buf)
    data = buf.getvalue()
    return data, len(data) - h * w


READERS = {"y4m": (y4m_files(), read_video), "pgm": (pgm_files(), read_pgm)}


def _parses_or_format_error(read, data: bytes) -> None:
    try:
        read(io.BytesIO(data))
    except FormatError:
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_mutated_header_parses_or_raises_format_error(kind, data):
    files, read = READERS[kind]
    raw, header = data.draw(files)
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        buf[data.draw(st.integers(0, header - 1))] = data.draw(st.integers(0, 255))
    _parses_or_format_error(read, bytes(buf))


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_header_insertion_parses_or_raises_format_error(kind, data):
    files, read = READERS[kind]
    raw, header = data.draw(files)
    pos = data.draw(st.integers(0, header))
    byte = bytes([data.draw(st.integers(0, 255))])
    _parses_or_format_error(read, raw[:pos] + byte + raw[pos:])


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_truncated_file_parses_or_raises_format_error(kind, data):
    files, read = READERS[kind]
    raw, _ = data.draw(files)
    _parses_or_format_error(read, raw[: data.draw(st.integers(0, len(raw) - 1))])


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_long_header_run_raises_format_error_early(kind, data):
    # a run of non-space bytes longer than any header line, token or
    # comment may hold is refused within the cap, not read to its end
    files, read = READERS[kind]
    raw, header = data.draw(files)
    pos = data.draw(st.integers(0, header - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: not bytes([b]).isspace()))
    run = bytes([byte]) * data.draw(st.integers(_HEADER_MAX + 1, 3 * _HEADER_MAX))
    stream = io.BytesIO(raw[:pos] + run + raw[pos:])
    with pytest.raises(FormatError):
        read(stream)
    assert stream.tell() <= pos + _HEADER_MAX + 2


@pytest.mark.parametrize(
    "data",
    [b"P5\n" + b"9" * 10**6 + b" 2\n255\n", b"P5\n#" + b"x" * 10**6 + b"\n4 2\n255\n"],
    ids=["width-1mb", "comment-1mb"],
)
def test_pgm_long_token_or_comment_stops_at_cap(data):
    stream = io.BytesIO(data)
    with pytest.raises(FormatError, match="4096 bytes|too long"):
        read_pgm(stream)
    assert stream.tell() <= 4096 + 8


@pytest.mark.parametrize(
    "data",
    [
        b"YUV4MPEG2 W1\xff6 H2 F25:1 Cmono\nFRAME\n" + bytes(32),
        b"YUV4MPEG2 W4 H16\xffF25:1 Cmono\nFRAME\n" + bytes(64),
        b"YUV4MPEG2 W0x4 H2 F25:1 Cmono\nFRAME\n" + bytes(8),
    ],
    ids=["width-ff", "height-ff-rate", "width-hex"],
)
def test_y4m_bad_dimension_token_raises_format_error(data):
    with pytest.raises(FormatError, match="malformed y4m"):
        read_video(io.BytesIO(data))


@pytest.mark.parametrize(
    "data",
    [b"P5\n4: 2\n255\n" + bytes(8), b"P5\n4 2\n255x\n" + bytes(8),
     b"P5\n" + b"9" * 5000 + b" 2\n255\n"],
    ids=["width-colon", "maxval-x", "width-5000-digits"],
)
def test_pgm_bad_header_token_raises_format_error(data):
    with pytest.raises(FormatError, match="malformed PGM"):
        read_pgm(io.BytesIO(data))
