import io
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import PATH_KINDS, corpus_watermark, make_noise_clip
from wm3d import media_io
from oracles import quantize_luma, round_half_away
from wm3d.attacks import _round_half_away
from wm3d.errors import FormatError
from wm3d.media_io import (
    VideoClip,
    iter_y4m,
    open_video,
    read_pgm,
    read_video,
    write_pgm,
    write_frames,
    write_video,
)


def _y4m_bytes(clip):
    buf = io.BytesIO()
    write_video(clip, buf)
    return buf.getvalue()


def _clip(frames, **kw):
    return VideoClip(frames=[np.asarray(f, dtype=np.uint8) for f in frames], **kw)


def test_quantize_rounding_rules():
    x = np.array([0.4, 0.5, 1.5, -0.4, -3.0, 254.5, 300.0])
    assert quantize_luma(x).tolist() == [0, 1, 2, 0, 0, 255, 255]
    x = np.array([-1.5, -0.5, -0.4, 0.4, 2.5])
    out = np.empty_like(x)
    _round_half_away(x, out)
    assert out.tolist() == round_half_away(x).tolist() == [-2.0, -1.0, 0.0, 0.0, 3.0]
    # bit for bit, signed zeros too, on edge values and random float64 bit patterns
    bits = np.random.RandomState(10).randint(0, 2**63, 4096, dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)
    edges = [-0.0, 0.0, 0.49999999999999994, -0.49999999999999994, 4503599627370495.5,
             -2.0**52 - 0.5, 2.0**53, np.inf, -np.inf, 5e-324, -5e-324]
    x = np.concatenate([edges, bits.view(np.float64)])
    x = x[~np.isnan(x)]
    out = np.empty_like(x)
    _round_half_away(x, out)
    assert np.array_equal(out.view(np.uint64), round_half_away(x).view(np.uint64))


def test_quantize_equals_clamped_round_half_away():
    rs = np.random.RandomState(9)
    # 0.49999999999999994 rounds to 1, not 0: the rule is floor(|x| + 0.5)
    # with the sign of x, as the attacks._round_half_away docstring states
    special = [-0.5, 0.5, -0.0, 254.5, 255.5, 127.49999999999999, 0.49999999999999994]
    halves = rs.randint(-40, 300, 1000) + 0.5
    x = np.concatenate([rs.uniform(-300.0, 600.0, 10000), halves, special])
    expected = np.clip(round_half_away(x), 0, 255).astype(np.uint8)
    assert np.array_equal(quantize_luma(x), expected)


def test_read_y4m_minimal_420():
    luma = bytes(range(8))
    chroma = bytes([7, 8, 9, 10])  # 2x1 U plane + 2x1 V plane
    data = b"YUV4MPEG2 W4 H2 F25:1 C420\nFRAME\n" + luma + chroma
    clip = read_video(io.BytesIO(data))
    assert clip.frame_count == 1
    assert clip.frames[0].shape == (2, 4)
    assert clip.frames[0].tobytes() == luma
    assert clip.rate == (25, 1)
    assert clip.chroma_token == "420"
    assert clip.chroma == [chroma]


def test_read_y4m_mono_and_default_chroma():
    mono = b"YUV4MPEG2 W2 H2 F30:1 Cmono\nFRAME\n" + bytes(4)
    clip = read_video(io.BytesIO(mono))
    assert clip.chroma_token is None and clip.chroma is None

    # no C token means 4:2:0
    dflt = b"YUV4MPEG2 W2 H2 F30:1\nFRAME\n" + bytes(4) + bytes(2)
    assert read_video(io.BytesIO(dflt)).chroma_token == "420jpeg"


def test_read_y4m_no_frames_is_truncated():
    with pytest.raises(FormatError, match="truncated frame payload"):
        read_video(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 C420\n"))


def test_read_y4m_short_payload():
    data = b"YUV4MPEG2 W4 H4 F25:1 Cmono\nFRAME\n" + bytes(3)
    with pytest.raises(FormatError, match="truncated"):
        read_video(io.BytesIO(data))


def test_read_y4m_bad_magic_and_unsupported_chroma():
    with pytest.raises(FormatError, match="magic"):
        read_video(io.BytesIO(b"JUNK W4 H2 F25:1\nFRAME\n" + bytes(8)))
    with pytest.raises(FormatError, match="unsupported chroma"):
        read_video(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 C444\nFRAME\n" + bytes(24)))
    with pytest.raises(FormatError, match="header"):
        read_video(io.BytesIO(b"YUV4MPEG2 W4 F25:1\nFRAME\n"))


def test_y4m_roundtrip_mono_bytes_identical():
    rs = np.random.RandomState(3)
    clip = _clip([rs.randint(0, 256, (6, 8)) for _ in range(3)], rate=(30, 1))
    data = _y4m_bytes(clip)
    again = read_video(io.BytesIO(data))
    assert _y4m_bytes(again) == data
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))


def test_y4m_roundtrip_420_preserves_chroma():
    rs = np.random.RandomState(4)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(3)]
    chroma = [rs.bytes(12) for _ in range(3)]
    clip = _clip(frames, rate=(24, 1), chroma_token="420mpeg2", chroma=chroma)
    data = _y4m_bytes(clip)
    assert b"C420mpeg2" in data.split(b"\n", 1)[0]
    again = read_video(io.BytesIO(data))
    assert again.chroma == chroma
    assert _y4m_bytes(again) == data


def test_y4m_extras_passthrough():
    data = b"YUV4MPEG2 W2 H2 F25:1 Ip A1:1 Cmono\nFRAME\n" + bytes(4)
    clip = read_video(io.BytesIO(data))
    assert clip.extras == ("Ip", "A1:1")
    assert _y4m_bytes(clip) == data


def test_write_y4m_empty_clip_rejected():
    with pytest.raises(ValueError, match="empty"):
        write_video(VideoClip(frames=[]), io.BytesIO())


@pytest.mark.parametrize("keep", [None, {0}, {1}, ()], ids=["all", "0", "1", "none"])
def test_y4m_empty_line_for_frame_marker_is_refused(keep):
    # a stray newline after frame 0's payload used to end the stream there
    data = b"YUV4MPEG2 W4 H2 F25:1 Cmono\nFRAME\n" + bytes(8)
    bad = data + b"\nFRAME\n" + bytes(8)
    assert read_video(io.BytesIO(data)).frame_count == 1
    with pytest.raises(FormatError, match="malformed frame marker"):
        if keep is None:
            read_video(io.BytesIO(bad))
        else:
            list(iter_y4m(io.BytesIO(bad), keep=keep)[1])


def test_write_y4m_frame_parameters_tolerated():
    data = b"YUV4MPEG2 W2 H1 F25:1 Cmono\nFRAME Xtag\n" + bytes(2)
    clip = read_video(io.BytesIO(data))
    assert clip.frame_count == 1


def test_pgm_roundtrip(tmp_path):
    rs = np.random.RandomState(5)
    img = rs.randint(0, 256, (9, 7)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


@pytest.mark.parametrize("kind", sorted(PATH_KINDS))
def test_readers_and_writers_take_any_path(tmp_path, kind):
    to_path = PATH_KINDS[kind]
    img = np.arange(35, dtype=np.uint8).reshape(5, 7)
    write_pgm(img, to_path(tmp_path / "x.pgm"))
    assert np.array_equal(read_pgm(to_path(tmp_path / "x.pgm")), img)
    clip = _clip([img[:4, :6], img[1:, 1:]], chroma_token="420", chroma=[b"ab" * 6, b"cd" * 6])
    write_video(clip, to_path(tmp_path / "x.y4m"))
    again = read_video(to_path(tmp_path / "x.y4m"))
    assert (tmp_path / "x.y4m").read_bytes() == _y4m_bytes(again)
    assert again.chroma == clip.chroma


def test_streams_are_left_open():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    buf = io.BytesIO()
    write_pgm(img, buf)
    buf.seek(0)
    assert np.array_equal(read_pgm(buf), img) and not buf.closed
    buf = io.BytesIO()
    write_video(_clip([img]), buf)
    buf.seek(0)
    assert np.array_equal(read_video(buf).frames[0], img) and not buf.closed


def test_pgm_comments_and_errors():
    ok = b"P5\n# a comment\n2 2\n255\n" + bytes(4)
    assert read_pgm(io.BytesIO(ok)).shape == (2, 2)
    with pytest.raises(FormatError, match="maxval"):
        read_pgm(io.BytesIO(b"P5\n2 2\n65535\n" + bytes(8)))
    with pytest.raises(FormatError, match="P5"):
        read_pgm(io.BytesIO(b"P2\n2 2\n255\n0 1 2 3"))
    with pytest.raises(FormatError, match="truncated"):
        read_pgm(io.BytesIO(b"P5\n4 4\n255\n" + bytes(3)))


# Short inputs whose headers declare 20000x20000 (400 MB) payloads.
HUGE_HEADERS = {
    "y4m": (read_video, b"YUV4MPEG2 W20000 H20000 F25:1 Cmono\nFRAME\nabc"),
    "pgm": (read_pgm, b"P5\n20000 20000\n255\nabc"),
}


@pytest.mark.parametrize("kind", sorted(HUGE_HEADERS))
def test_short_payload_allocates_only_what_it_holds(kind, tmp_path):
    # a file, not BytesIO: a buffered file read allocates what it is asked for
    reader, data = HUGE_HEADERS[kind]
    path = tmp_path / f"short.{kind}"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"{kind}: peak {peak / 2**20:.1f} MB"


def test_payloads_read_in_pieces(monkeypatch):
    monkeypatch.setattr(media_io, "_READ_PIECE", 3)
    rs = np.random.RandomState(9)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(2)]
    chroma = [rs.bytes(12) for _ in range(2)]
    data = _y4m_bytes(_clip(frames, chroma_token="420jpeg", chroma=chroma))
    clip = read_video(io.BytesIO(data))
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, frames))
    assert clip.chroma == chroma
    with pytest.raises(FormatError, match="truncated"):
        read_video(io.BytesIO(data[:-1]))
    assert np.array_equal(read_pgm(io.BytesIO(b"P5\n6 4\n255\n" + bytes(range(24)))),
                          np.arange(24, dtype=np.uint8).reshape(4, 6))
    with pytest.raises(FormatError, match="truncated"):
        read_pgm(io.BytesIO(b"P5\n6 4\n255\n" + bytes(23)))


class _Pipe(io.RawIOBase):
    """A byte source that cannot seek, like a pipe."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._data.readinto(b)


def _source(kind, data):
    return io.BytesIO(data) if kind == "seekable" else io.BufferedReader(_Pipe(data))


@pytest.mark.parametrize("kind", ["seekable", "pipe"])
@pytest.mark.parametrize("token", [None, "420jpeg"])
def test_iter_y4m_decodes_only_kept_frames(kind, token):
    rs = np.random.RandomState(12)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(5)]
    chroma = None if token is None else [rs.bytes(12) for _ in range(5)]
    data = _y4m_bytes(_clip(frames, chroma_token=token, chroma=chroma, rate=(30, 1)))
    for want_chroma in (True, False):
        header, frames_in = iter_y4m(_source(kind, data), {1, 3}, want_chroma)
        assert header == (6, 4, (30, 1), token, ())
        got = list(frames_in)
        assert [g is None for g in got] == [True, False, True, False, True]
        for k in (1, 3):
            luma, payload = got[k]
            assert np.array_equal(luma, frames[k]) and luma.flags.writeable
            # the payload is read for a kept 4:2:0 frame only if asked for
            assert payload == (chroma[k] if want_chroma and token else None)
        assert not np.shares_memory(got[1][0], got[3][0])


@pytest.mark.parametrize("kind", ["seekable", "pipe"])
@pytest.mark.parametrize("cut", [1, 12, 24])
def test_iter_y4m_truncated_skipped_frame(kind, cut):
    # the last frame's luma (24 bytes) and chroma (12) are skipped, not read
    rs = np.random.RandomState(13)
    clip = _clip([rs.randint(0, 256, (4, 6)) for _ in range(3)],
                 chroma_token="420jpeg", chroma=[rs.bytes(12) for _ in range(3)])
    _, frames = iter_y4m(_source(kind, _y4m_bytes(clip)[:-cut]), {0})
    with pytest.raises(FormatError, match="truncated frame payload"):
        list(frames)


@pytest.mark.parametrize("kind", ["seekable", "pipe"])
def test_skipped_short_payload_allocates_little(kind, tmp_path):
    # a 400 MB payload declared, 3 bytes held, no frame kept
    data = HUGE_HEADERS["y4m"][1]
    path = tmp_path / "short.y4m"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            stream = fh if kind == "seekable" else io.BufferedReader(_Pipe(data))
            _, frames = iter_y4m(stream, keep=())
            with pytest.raises(FormatError, match="truncated frame payload"):
                list(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"{kind}: peak {peak / 2**20:.1f} MB"


FRAME_STREAM_FORMS = [(form, token) for form in ("path", "seekable", "pipe", "clip")
                      for token in (None, "420jpeg")]


@pytest.mark.parametrize("form, token", FRAME_STREAM_FORMS)
def test_open_video_yields_what_write_frames_takes(tmp_path, form, token):
    # the frame stream, written as it is read, gives read_video's clip's bytes
    rs = np.random.RandomState(16)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(3)]
    chroma = None if token is None else [rs.bytes(12) for _ in range(3)]
    clip = _clip(frames, chroma_token=token, chroma=chroma, rate=(30, 1), extras=("Ip",))
    data = _y4m_bytes(clip)
    (tmp_path / "in.y4m").write_bytes(data)
    sources = {"path": lambda: tmp_path / "in.y4m", "seekable": lambda: io.BytesIO(data),
               "pipe": lambda: _source("pipe", data), "clip": lambda: clip}
    streamed, whole = io.BytesIO(), io.BytesIO()
    with open_video(sources[form]()) as (header, frames_in):
        write_frames(streamed, header, frames_in)
    write_video(read_video(sources[form]()), whole)
    assert streamed.getvalue() == whole.getvalue() == data


@pytest.mark.parametrize("kind", sorted(PATH_KINDS))
def test_every_video_path_is_y4m(tmp_path, kind):
    # whatever its name; a directory is refused by the OS, read or written
    to_path = PATH_KINDS[kind]
    rs = np.random.RandomState(15)
    clip = _clip([rs.randint(0, 256, (4, 6)) for _ in range(3)])
    for name in ("frames", "clip.Y4M", "clip.yuv"):
        write_video(clip, to_path(tmp_path / name))
        assert (tmp_path / name).read_bytes() == _y4m_bytes(clip)
        again = read_video(to_path(tmp_path / name))
        assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        write_video(clip, to_path(tmp_path / "dir"))
    with pytest.raises(IsADirectoryError):
        read_video(to_path(tmp_path / "dir"))
    assert list((tmp_path / "dir").iterdir()) == []


def test_the_package_exports_one_video_api():
    import wm3d

    assert wm3d.read_video is read_video
    assert wm3d.open_video is open_video
    assert wm3d.write_video is write_video
    assert {"read_video", "open_video", "write_video"} <= set(wm3d.__all__)
    # the four form-named readers and writers the package no longer exports
    forms = ("y4m", "pgm_sequence")
    gone = {f"{verb}_{form}" for verb in ("read", "write") for form in forms}
    assert not gone & set(wm3d.__all__)
    for form in forms:
        assert not hasattr(wm3d, f"read_{form}") and not hasattr(media_io, f"read_{form}")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    example = library[start:library.index("\n```", start)]
    write_video(make_noise_clip(n=16), tmp_path / "in.y4m")
    write_pgm(corpus_watermark(), tmp_path / "logo.pgm")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    nc, shape = capsys.readouterr().out.split(" ", 1)
    assert float(nc) > 0.9 and shape.strip() == str(corpus_watermark().shape)
    assert read_video(tmp_path / "marked.y4m").frame_count == 16


def test_frame_views_write_the_bytes_of_their_copies(tmp_path):
    rs = np.random.RandomState(16)
    views = [rs.randint(0, 256, (4, 12)).astype(np.uint8)[:, ::2] for _ in range(3)]
    assert not any(v.flags.c_contiguous for v in views)
    copies = [v.copy() for v in views]
    assert _y4m_bytes(VideoClip(views)) == _y4m_bytes(VideoClip(copies))
    write_video(VideoClip(views), tmp_path / "views.y4m")
    assert (tmp_path / "views.y4m").read_bytes() == _y4m_bytes(VideoClip(copies))


def test_a_missing_video_path_is_file_not_found(tmp_path):
    # every path is opened as y4m, whatever the name
    with pytest.raises(FileNotFoundError):
        read_video(tmp_path / "missing")


def _writer_clip():
    rs = np.random.RandomState(17)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(5)]
    chroma = [rs.randint(0, 256, 12).astype(np.uint8).tobytes() for _ in frames]
    return _clip(frames, chroma_token="420jpeg", chroma=chroma)


@pytest.mark.parametrize("old", ["longer", "shorter", "symlink", "hard-link"])
def test_an_existing_output_ends_equal_to_a_fresh_write(tmp_path, monkeypatch, old):
    clip = _writer_clip()
    fresh = _y4m_bytes(clip)
    target = tmp_path / "target.y4m"
    target.write_bytes(b"\xff" * (len(fresh) + 999 if old != "shorter" else 17))
    out = tmp_path / "out.y4m"
    if old == "symlink":
        out.symlink_to(target)
    elif old == "hard-link":
        os.link(target, out)
    else:
        out = target
    flags = []
    real_open = os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", spy)
    write_video(clip, out)
    assert flags and not any(f & os.O_TRUNC for f in flags)  # rewritten in place
    assert out.read_bytes() == fresh and target.read_bytes() == fresh
    assert out.is_symlink() == (old == "symlink")


@pytest.mark.parametrize("k", [0, 2, 5])
def test_a_source_that_raises_leaves_exactly_the_bytes_written(tmp_path, k):
    clip = _writer_clip()
    out = tmp_path / "out.y4m"
    out.write_bytes(b"\xff" * (len(_y4m_bytes(clip)) + 999))
    first = list(zip(clip.frames, clip.chroma))[:k]

    def pairs():
        yield from first
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_frames(out, clip.header, pairs())
    want = io.BytesIO()
    write_frames(want, clip.header, first)
    assert out.read_bytes() == want.getvalue()


WRITE_UNDER_A_SIZE_LIMIT = """
import resource, signal, sys
from wm3d.media_io import read_video, write_video
clip = read_video(sys.argv[1])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit is EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[3]),) * 2)
try:
    write_video(clip, sys.argv[2])
except OSError:
    sys.exit(0)
sys.exit("the write did not fail")
"""


def test_a_failed_write_leaves_no_tail_of_the_old_file(tmp_path):
    # the flush fails part way, so only the fd's offset says what reached the file
    clip = _writer_clip()
    fresh = _y4m_bytes(clip)
    write_video(clip, tmp_path / "in.y4m")
    out = tmp_path / "out.y4m"
    out.write_bytes(b"\xff" * (len(fresh) + 999))
    limit = len(fresh) // 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run(
        [sys.executable, "-c", WRITE_UNDER_A_SIZE_LIMIT, str(tmp_path / "in.y4m"), str(out),
         str(limit)],
        check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.read_bytes() == fresh[:limit]


def test_a_fifo_and_dev_null_are_written_without_a_truncate(tmp_path):
    # either would refuse a truncate (EINVAL)
    clip = _writer_clip()
    null = tmp_path / "null.y4m"  # a *.y4m name, so write_video writes y4m to it
    null.symlink_to(os.devnull)
    write_video(clip, null)
    fifo = tmp_path / "fifo.y4m"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_video(clip, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [_y4m_bytes(clip)]
    write_video(clip, tmp_path / "new.y4m")  # a new file is created, not rewritten
    assert (tmp_path / "new.y4m").read_bytes() == _y4m_bytes(clip)


_F = np.zeros((4, 6), np.uint8)  # its 4:2:0 payload is 2 * 3 * 2 = 12 bytes

# VideoClip values write_video refuses. Before it did, rate-one-number and
# payload-str crashed it, extra-empty wrote a token that does not read back,
# extra-tab and extra-non-ascii ones that y4m does not allow, and the rest a
# y4m that read_video refuses.
_UNWRITABLE = {
    "rate-negative": dict(rate=(-1, 1)),
    "rate-float": dict(rate=(25.0, 1)),
    "rate-one-number": dict(rate=(25,)),
    "token-444": dict(chroma_token="444", chroma=[bytes(12)]),
    "token-mono-with-payloads": dict(chroma_token="mono", chroma=[bytes(12)]),
    "payload-short": dict(chroma_token="420", chroma=[bytes(11)]),
    "payload-str": dict(chroma_token="420", chroma=["x" * 12]),
    "odd-420": dict(frames=[np.zeros((3, 5), np.uint8)], chroma_token="420", chroma=[bytes(4)]),
    "extra-newline": dict(extras=("X\nY",)),
    "extra-W": dict(extras=("W16",)),
    "extra-H": dict(extras=("Ip", "H8")),
    "extra-F": dict(extras=("F1:1",)),
    "extra-C": dict(extras=("C420",)),
    "extra-empty": dict(extras=("Ip", "")),
    "extra-space": dict(extras=("A B",)),
    "extra-tab": dict(extras=("X\tY",)),
    "extra-non-ascii": dict(extras=("X\u00e9",)),
    # within the reader's 4096-byte cap until the writer adds its C token
    "extra-over-long": dict(extras=("X" * 4070,)),
    "zero-size": dict(frames=[np.zeros((0, 0), np.uint8)]),
}


# "frames" is a path of another name, which gets y4m too
@pytest.mark.parametrize("sink", ["out.y4m", "frames"])
@pytest.mark.parametrize("name", sorted(_UNWRITABLE))
def test_write_video_refuses_what_read_video_would_refuse(tmp_path, name, sink):
    out = tmp_path / sink
    with pytest.raises(FormatError):
        write_video(VideoClip(**{"frames": [_F], **_UNWRITABLE[name]}), out)
    assert not out.exists()


def test_write_frames_refuses_a_bad_payload_before_its_frame():
    header = VideoClip([_F], chroma_token="420", chroma=[bytes(12)]).header
    buf, want = io.BytesIO(), io.BytesIO()
    for payload in (bytes(11), "x" * 12, None):
        with pytest.raises(FormatError, match="chroma payload 1 is not 12 bytes"):
            write_frames(buf, header, [(_F, bytes(12)), (_F, payload)])
        write_frames(want, header, [(_F, bytes(12))])
        assert buf.getvalue() == want.getvalue()


# The frames of the writer's FOUND case: frame 0 is 2x2 under a 4x6 header,
# frame 1 float64; each used to be written as bytes read_video refuses.
# Every sink, "frames" too, gets y4m.
@pytest.mark.parametrize("sink", ["stream", "out.y4m", "frames"])
@pytest.mark.parametrize("bad, error", [(np.zeros((2, 2), np.uint8), FormatError),
                                        (np.zeros((4, 6)), ValueError)],
                         ids=["2x2", "float64"])
@pytest.mark.parametrize("k", [0, 1])
def test_write_frames_refuses_a_bad_frame_before_its_bytes(tmp_path, sink, bad, error, k):
    header = VideoClip([_F]).header
    good = [(_F + j, None) for j in range(k)]
    out = io.BytesIO() if sink == "stream" else tmp_path / sink
    with pytest.raises(error, match=f"frame {k} "):
        write_frames(out, header, [*good, (bad, None), (np.zeros((4, 6)), None)])
    want = io.BytesIO()
    write_frames(want, header, good)  # the header, then the frames before the bad one
    assert (out.getvalue() if sink == "stream" else out.read_bytes()) == want.getvalue()


# name: (frames, chroma payloads, error) that both VideoClip and
# write_frames refuse, at frame 1
_BAD_FRAMES = {
    "float-frame": ([_F, _F / 2], None, ValueError),
    "3d-frame": ([_F, _F[None]], None, ValueError),
    "size-mismatch": ([_F, _F[:2]], None, FormatError),
    "short-payload": ([_F, _F], [bytes(12), bytes(11)], FormatError),
    "str-payload": ([_F, _F], [bytes(12), "x" * 12], FormatError),
}


@pytest.mark.parametrize("name", sorted(_BAD_FRAMES))
def test_write_frames_refuses_every_frame_videoclip_refuses(tmp_path, name):
    frames, chroma, error = _BAD_FRAMES[name]
    token = chroma and "420"
    with pytest.raises(error, match="frame 1|payload 1"):
        VideoClip(frames, chroma_token=token, chroma=chroma)
    header = VideoClip(frames[:1], chroma_token=token, chroma=chroma and chroma[:1]).header
    for sink in (io.BytesIO(), tmp_path / "out.y4m", tmp_path / "frames"):
        with pytest.raises(error, match="frame 1|payload 1"):
            write_frames(sink, header, zip(frames, chroma or itertools.repeat(None)))


@pytest.mark.parametrize("kind", ["stream", "path"])
def test_write_pgm_refuses_values_it_would_wrap(tmp_path, kind):
    # each used to be cast unsafely: [[300.7, -1.0]] read back as [[44, 255]]
    for k, image in enumerate([[[300.7, -1.0]], np.array([[1000, 2]], np.int64), [[0.5]]]):
        sink = io.BytesIO() if kind == "stream" else tmp_path / f"{k}.pgm"
        with pytest.raises(ValueError, match=r"image values must be integers in \[0, 255\]"):
            write_pgm(np.array(image), sink)
        assert sink.getvalue() == b"" if kind == "stream" else not sink.exists()
    buf = io.BytesIO()
    write_pgm(np.array([[0, 255]], np.int64), buf)  # exact integers are cast
    assert buf.getvalue() == b"P5\n2 1\n255\n\x00\xff"
