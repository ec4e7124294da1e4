import io
import tracemalloc

import numpy as np
import pytest

from conftest import PATH_KINDS
from wm3d import media_io
from oracles import quantize_luma, round_half_away
from wm3d.attacks import _round_half_away
from wm3d.errors import FormatError
from wm3d.media_io import (
    VideoClip,
    iter_y4m,
    open_video,
    read_pgm,
    read_pgm_sequence,
    read_video,
    read_y4m,
    write_pgm,
    write_pgm_sequence,
    write_video,
    write_y4m,
)


def _y4m_bytes(clip):
    buf = io.BytesIO()
    write_y4m(clip, buf)
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
    clip = read_y4m(io.BytesIO(data))
    assert clip.frame_count == 1
    assert clip.frames[0].shape == (2, 4)
    assert clip.frames[0].tobytes() == luma
    assert clip.rate == (25, 1)
    assert clip.chroma_token == "420"
    assert clip.chroma == [chroma]


def test_read_y4m_mono_and_default_chroma():
    mono = b"YUV4MPEG2 W2 H2 F30:1 Cmono\nFRAME\n" + bytes(4)
    clip = read_y4m(io.BytesIO(mono))
    assert clip.chroma_token is None and clip.chroma is None

    # no C token means 4:2:0
    dflt = b"YUV4MPEG2 W2 H2 F30:1\nFRAME\n" + bytes(4) + bytes(2)
    assert read_y4m(io.BytesIO(dflt)).chroma_token == "420jpeg"


def test_read_y4m_no_frames_is_truncated():
    with pytest.raises(FormatError, match="truncated frame payload"):
        read_y4m(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 C420\n"))


def test_read_y4m_short_payload():
    data = b"YUV4MPEG2 W4 H4 F25:1 Cmono\nFRAME\n" + bytes(3)
    with pytest.raises(FormatError, match="truncated"):
        read_y4m(io.BytesIO(data))


def test_read_y4m_bad_magic_and_unsupported_chroma():
    with pytest.raises(FormatError, match="magic"):
        read_y4m(io.BytesIO(b"JUNK W4 H2 F25:1\nFRAME\n" + bytes(8)))
    with pytest.raises(FormatError, match="unsupported chroma"):
        read_y4m(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 C444\nFRAME\n" + bytes(24)))
    with pytest.raises(FormatError, match="header"):
        read_y4m(io.BytesIO(b"YUV4MPEG2 W4 F25:1\nFRAME\n"))


def test_y4m_roundtrip_mono_bytes_identical():
    rs = np.random.RandomState(3)
    clip = _clip([rs.randint(0, 256, (6, 8)) for _ in range(3)], rate=(30, 1))
    data = _y4m_bytes(clip)
    again = read_y4m(io.BytesIO(data))
    assert _y4m_bytes(again) == data
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))


def test_y4m_roundtrip_420_preserves_chroma():
    rs = np.random.RandomState(4)
    frames = [rs.randint(0, 256, (4, 6)) for _ in range(3)]
    chroma = [rs.bytes(12) for _ in range(3)]
    clip = _clip(frames, rate=(24, 1), chroma_token="420mpeg2", chroma=chroma)
    data = _y4m_bytes(clip)
    assert b"C420mpeg2" in data.split(b"\n", 1)[0]
    again = read_y4m(io.BytesIO(data))
    assert again.chroma == chroma
    assert _y4m_bytes(again) == data


def test_y4m_extras_passthrough():
    data = b"YUV4MPEG2 W2 H2 F25:1 Ip A1:1 Cmono\nFRAME\n" + bytes(4)
    clip = read_y4m(io.BytesIO(data))
    assert clip.extras == ("Ip", "A1:1")
    assert _y4m_bytes(clip) == data


def test_write_y4m_empty_clip_rejected():
    with pytest.raises(ValueError, match="empty"):
        write_y4m(VideoClip(frames=[]), io.BytesIO())


@pytest.mark.parametrize("keep", [None, {0}, {1}, ()], ids=["all", "0", "1", "none"])
def test_y4m_empty_line_for_frame_marker_is_refused(keep):
    # a stray newline after frame 0's payload used to end the stream there
    data = b"YUV4MPEG2 W4 H2 F25:1 Cmono\nFRAME\n" + bytes(8)
    bad = data + b"\nFRAME\n" + bytes(8)
    assert read_y4m(io.BytesIO(data)).frame_count == 1
    with pytest.raises(FormatError, match="malformed frame marker"):
        if keep is None:
            read_y4m(io.BytesIO(bad))
        else:
            list(iter_y4m(io.BytesIO(bad), keep=keep)[1])


def test_write_y4m_frame_parameters_tolerated():
    data = b"YUV4MPEG2 W2 H1 F25:1 Cmono\nFRAME Xtag\n" + bytes(2)
    clip = read_y4m(io.BytesIO(data))
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
    write_y4m(clip, to_path(tmp_path / "x.y4m"))
    again = read_y4m(to_path(tmp_path / "x.y4m"))
    assert (tmp_path / "x.y4m").read_bytes() == _y4m_bytes(again)
    assert again.chroma == clip.chroma


def test_streams_are_left_open():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    buf = io.BytesIO()
    write_pgm(img, buf)
    buf.seek(0)
    assert np.array_equal(read_pgm(buf), img) and not buf.closed
    buf = io.BytesIO()
    write_y4m(_clip([img]), buf)
    buf.seek(0)
    assert np.array_equal(read_y4m(buf).frames[0], img) and not buf.closed


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
    "y4m": (read_y4m, b"YUV4MPEG2 W20000 H20000 F25:1 Cmono\nFRAME\nabc"),
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
    clip = read_y4m(io.BytesIO(data))
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, frames))
    assert clip.chroma == chroma
    with pytest.raises(FormatError, match="truncated"):
        read_y4m(io.BytesIO(data[:-1]))
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
        kept_chroma = [] if want_chroma else None
        header, frames_in = iter_y4m(_source(kind, data), {1, 3}, kept_chroma)
        assert header == (6, 4, (30, 1), token, ())
        got = list(frames_in)
        assert [g is None for g in got] == [True, False, True, False, True]
        for k in (1, 3):
            assert np.array_equal(got[k], frames[k]) and got[k].flags.writeable
        assert not np.shares_memory(got[1], got[3])
        if want_chroma:
            assert kept_chroma == ([] if token is None else [chroma[1], chroma[3]])


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


def test_pgm_sequence_roundtrip(tmp_path):
    rs = np.random.RandomState(6)
    clip = _clip([rs.randint(0, 256, (4, 4)) for _ in range(3)])
    write_pgm_sequence(clip, tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.pgm"))
    assert names == ["frame_000001.pgm", "frame_000002.pgm", "frame_000003.pgm"]
    again = read_pgm_sequence(tmp_path)
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))


def test_pgm_sequence_dimension_mismatch(tmp_path):
    write_pgm(np.zeros((2, 2), np.uint8), tmp_path / "a.pgm")
    write_pgm(np.zeros((3, 3), np.uint8), tmp_path / "b.pgm")
    with pytest.raises(FormatError, match="dimension mismatch"):
        read_pgm_sequence(tmp_path)


def test_pgm_sequence_refuses_a_directory_holding_frames(tmp_path):
    rs = np.random.RandomState(7)
    write_pgm_sequence(_clip([rs.randint(0, 256, (4, 4)) for _ in range(5)]), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FormatError, match=f"{tmp_path} already holds PGM frames"):
        write_pgm_sequence(_clip([np.zeros((4, 4))] * 3), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert read_pgm_sequence(tmp_path).frame_count == 5


def test_pgm_sequence_empty_dir(tmp_path):
    with pytest.raises(FormatError, match="no PGM frames"):
        read_pgm_sequence(tmp_path)


def test_open_video_pgm_directory_opens_only_kept_frames(tmp_path, monkeypatch):
    # frame 2 is another size but not kept, so never opened; frame 3 is
    # kept and fails when it is read, after frame 1 was yielded
    rs = np.random.RandomState(14)
    frames = [rs.randint(0, 256, (4, 6)).astype(np.uint8) for _ in range(5)]
    frames[2] = frames[3] = np.zeros((5, 6), np.uint8)
    for k, frame in enumerate(frames):
        write_pgm(frame, tmp_path / f"f{k}.pgm")
    opened = []
    real_open = media_io._open

    def counting(source, mode):
        opened.append(source.name)
        return real_open(source, mode)

    monkeypatch.setattr(media_io, "_open", counting)
    with open_video(tmp_path, {1, 4}) as (header, frames_in):
        assert header == (6, 4, (25, 1), None, ())
        got = list(frames_in)
    assert [g is None for g in got] == [True, False, True, True, False]
    assert np.array_equal(got[1], frames[1]) and np.array_equal(got[4], frames[4])
    assert opened == ["f1.pgm", "f4.pgm"]
    with open_video(tmp_path, {1, 3}) as (header, frames_in):
        assert next(frames_in) is None and next(frames_in) is not None
        assert next(frames_in) is None
        with pytest.raises(FormatError, match=r"frame 3 is \(5, 6\), frame 1 is \(4, 6\)"):
            next(frames_in)


@pytest.mark.parametrize("kind", sorted(PATH_KINDS))
def test_one_reader_and_writer_for_both_forms(tmp_path, kind):
    to_path = PATH_KINDS[kind]
    rs = np.random.RandomState(15)
    clip = _clip([rs.randint(0, 256, (4, 6)) for _ in range(3)])
    write_video(clip, to_path(tmp_path / "frames"))
    write_video(clip, to_path(tmp_path / "clip.Y4M"))
    assert (tmp_path / "clip.Y4M").read_bytes() == _y4m_bytes(clip)
    assert len(list((tmp_path / "frames").glob("*.pgm"))) == 3
    for name in ("frames", "clip.Y4M"):
        again = read_video(to_path(tmp_path / name))
        assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))
    assert read_y4m is read_pgm_sequence is read_video


def test_a_missing_video_path_is_file_not_found(tmp_path):
    # a missing path is no directory, so it is opened as y4m, whatever the name
    with pytest.raises(FileNotFoundError):
        read_pgm_sequence(tmp_path / "missing")
