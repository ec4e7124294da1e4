import io
import re

import numpy as np
import pytest

from conftest import PATH_KINDS
from wm3d.errors import FormatError, GeometryError
from wm3d.keyfile import EmbedParams, KeyBundle, ShotRecord, read_key, write_key
from wm3d.shots import validate_boundaries


def _planes(seed, h=16, w=16):
    rs = np.random.RandomState(seed)
    return np.where(rs.rand(8, h, w) < 0.5, 1, -1).astype(np.int8)


def _bundle(**overrides):
    kw = dict(
        seed1=0x0123456789ABCDEF,
        seed2=42,
        seed3=2**64 - 1,
        params=EmbedParams(),
        boundaries=(0, 30, 64),
        records=[
            ShotRecord(shot_index=0, planes=_planes(1)),
            ShotRecord(shot_index=1, planes=_planes(2)),
        ],
    )
    kw.update(overrides)
    return KeyBundle(**kw)


def _roundtrip(bundle):
    buf = io.StringIO()
    write_key(bundle, buf)
    return read_key(io.StringIO(buf.getvalue())), buf.getvalue()


def test_roundtrip_exact():
    bundle = _bundle()
    again, _ = _roundtrip(bundle)
    for name in ("seed1", "seed2", "seed3", "params", "boundaries", "selected",
                 "wm_height", "wm_width"):
        assert getattr(again, name) == getattr(bundle, name)
    assert len(again.records) == 2
    for a, b in zip(again.records, bundle.records):
        assert a.shot_index == b.shot_index
        assert np.array_equal(a.planes, b.planes)


def test_alpha_repr_roundtrips_exactly():
    for alpha in (0.1, 1.0 / 3.0, 0.07500000000000001, 0.0):
        again, _ = _roundtrip(_bundle(params=EmbedParams(alpha)))
        assert again.params.alpha == alpha
    # an integer alpha is written as a float, as EmbedParams(alpha=0) gives it
    again, text = _roundtrip(_bundle(params=EmbedParams(alpha=0)))
    assert "\nalpha=0.0\n" in text
    assert again.params.alpha == 0.0 and isinstance(again.params.alpha, float)


def test_plane_lines_are_44_base64_chars():
    # 16x16 plane -> 256 bits -> 32 bytes -> 44 base64 characters
    _, text = _roundtrip(_bundle())
    plane_lines = [ln for ln in text.splitlines() if ln.startswith("plane")]
    assert len(plane_lines) == 16
    assert all(len(ln.split("=", 1)[1]) == 44 for ln in plane_lines)


def test_file_layout(tmp_path):
    path = tmp_path / "k.key"
    write_key(_bundle(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "WM3DKEY 1"
    assert lines[1].startswith("seed1=")
    assert lines[11].startswith("selected=")
    again = read_key(path)
    assert again.boundaries == (0, 30, 64)


@pytest.mark.parametrize("kind", sorted(PATH_KINDS))
def test_key_io_takes_any_path(tmp_path, kind):
    path = PATH_KINDS[kind](tmp_path / "k.key")
    write_key(_bundle(), path)
    _, text = _roundtrip(read_key(path))
    assert text == (tmp_path / "k.key").read_text()


def test_key_io_leaves_streams_open():
    sink = io.StringIO()
    write_key(_bundle(), sink)
    assert not sink.closed
    for source in (io.StringIO(sink.getvalue()), io.BytesIO(sink.getvalue().encode())):
        assert read_key(source).selected == (0, 1) and not source.closed


def test_bad_magic_and_version():
    with pytest.raises(FormatError, match="magic"):
        read_key(io.StringIO("NOPE 1\n"))
    with pytest.raises(FormatError, match="version"):
        read_key(io.StringIO("WM3DKEY 9\n"))
    with pytest.raises(FormatError, match="empty"):
        read_key(io.StringIO(""))


def test_corrupt_base64_rejected():
    _, text = _roundtrip(_bundle())
    corrupted = text.replace("plane1=", "plane1=!!", 1)
    with pytest.raises(FormatError, match="base64"):
        read_key(io.StringIO(corrupted))


def test_wrong_payload_length_rejected():
    _, text = _roundtrip(_bundle())
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("plane1="))
    lines[idx] = "plane1=AAAA"
    with pytest.raises(FormatError, match="bytes"):
        read_key(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("wm_w, wm_h", [(10**6, 10**6), (0, 16), (-8, -1)])
def test_header_dims_checked_before_allocating(wm_w, wm_h):
    # (8, 10**6, 10**6) planes would be 8 TB; the 32-byte payloads must
    # be rejected before anything of the header's size is allocated.
    _, text = _roundtrip(_bundle())
    text = text.replace("wm_w=16", f"wm_w={wm_w}").replace("wm_h=16", f"wm_h={wm_h}")
    with pytest.raises(FormatError):
        read_key(io.StringIO(text))


def test_missing_plane_rejected():
    _, text = _roundtrip(_bundle())
    lines = [ln for ln in text.splitlines() if not ln.startswith("plane8=")]
    with pytest.raises(FormatError, match="expected plane8=..., got 'shot=1'"):
        read_key(io.StringIO("\n".join(lines) + "\n"))


# every line after the magic, in file order
_FIELDS = ["seed1", "seed2", "seed3", "alpha", "wm_w", "wm_h", "band", "row0", "col0",
           "boundaries", "selected", "shot", *(f"plane{k}" for k in range(1, 9))]


def test_the_fields_are_the_lines_write_key_writes():
    _, text = _roundtrip(_bundle())
    names = [ln.split("=", 1)[0] for ln in text.splitlines()[1:]]
    assert names == _FIELDS + _FIELDS[-9:]  # two shot blocks


@pytest.mark.parametrize("name", _FIELDS)
def test_a_missing_field_is_named(name):
    # a 36x44 mark's planes are 264 base64 characters; what the message
    # quotes of the line it got instead is capped at 64 of them
    _, text = _roundtrip(_bundle(records=[ShotRecord(0, _planes(1, 36, 44))]))
    lines = text.splitlines()
    del lines[next(i for i, ln in enumerate(lines) if ln.startswith(f"{name}="))]
    with pytest.raises(FormatError) as error:
        read_key(io.StringIO("\n".join(lines) + "\n"))
    message = str(error.value)
    assert message.startswith(f"expected {name}=..., got ")
    assert len(message) <= len(f"expected {name}=..., got ") + 66


@pytest.mark.parametrize(
    "name, value",
    [("seed1", "x"), ("seed2", "-"), ("seed3", "1.5"), ("alpha", "x"),
     ("wm_w", "1.5"), ("wm_h", ""), ("band", "lh9"), ("row0", "x"), ("col0", "0x1"),
     ("boundaries", "0,a"), ("selected", "a")],
)
def test_bad_header_value_names_its_field(name, value):
    _, text = _roundtrip(_bundle())
    lines = [f"{name}={value}" if ln.startswith(f"{name}=") else ln
             for ln in text.splitlines()]
    with pytest.raises(FormatError, match=name):
        read_key(io.StringIO("\n".join(lines) + "\n"))


def test_empty_selection_rejected():
    with pytest.raises(FormatError, match="selects no shots"):
        write_key(_bundle(records=[]), io.StringIO())
    _, text = _roundtrip(_bundle())
    header = text.split("shot=")[0].replace("selected=0,1", "selected=")
    with pytest.raises(FormatError, match="selects no shots"):
        read_key(io.StringIO(header))


def test_missing_header_field_rejected():
    _, text = _roundtrip(_bundle())
    lines = [ln for ln in text.splitlines() if not ln.startswith("alpha=")]
    with pytest.raises(FormatError, match="alpha"):
        read_key(io.StringIO("\n".join(lines) + "\n"))


def test_inconsistent_bundles_rejected_on_write():
    with pytest.raises(FormatError, match="boundaries"):
        write_key(_bundle(boundaries=(0, 30, 20)), io.StringIO())
    # written as "seed1=1.5", it would fail read_key
    with pytest.raises(FormatError, match="seeds must be integers"):
        write_key(_bundle(seed1=1.5), io.StringIO())
    with pytest.raises(FormatError, match="selected"):
        write_key(_bundle(records=[ShotRecord(0, _planes(1)), ShotRecord(5, _planes(2))]),
                  io.StringIO())
    # a bundle's params are checked when they are built
    with pytest.raises(ValueError, match="alpha"):
        _bundle(params=EmbedParams(alpha=1.5))
    bad = _bundle()
    bad.records[0].planes = np.zeros((8, 16, 16), np.int8)
    with pytest.raises(FormatError, match="must be"):
        write_key(bad, io.StringIO())


def test_numpy_integer_fields_roundtrip():
    records = [ShotRecord(np.int64(0), _planes(1)), ShotRecord(np.int64(1), _planes(2))]
    bundle = _bundle(seed1=np.uint64(7), boundaries=tuple(np.array([0, 30, 64])),
                     params=EmbedParams(region_row0=np.int64(2)), records=records)
    again, text = _roundtrip(bundle)
    assert "\nseed1=7\n" in text and "\nrow0=2\n" in text and "\nselected=0,1\n" in text
    assert (again.seed1, again.boundaries, again.selected) == (7, (0, 30, 64), (0, 1))
    assert again.params == EmbedParams(region_row0=2)


def test_selected_records_mismatch_on_read():
    _, text = _roundtrip(_bundle())
    # drop the whole second shot block
    lines = text.splitlines()
    start = lines.index("shot=1")
    with pytest.raises(FormatError, match=re.escape(
            r"key line 12 is 'selected=0,1\n'; write_key writes 'selected=0\n'")):
        read_key(io.StringIO("\n".join(lines[:start]) + "\n"))


# A 3x3 mark packs to bytes 0x60 0x80 ("YIA="): 9 signs, then 7 pad bits
# in the last byte and 2 unused bits in the last base64 digit.
_PROBE_BUNDLE = KeyBundle(1, 2, 3, EmbedParams(), (0, 9), [ShotRecord(0, np.tile(
    np.array([-1, 1, 1, -1, -1, -1, -1, -1, 1], np.int8).reshape(3, 3), (8, 1, 1)))])

# Edits of a valid key that Python's parsers and the base64 decoder read as
# the same bundle, each with the message that names the first differing line
_PROBES = {
    "alpha-spelling": (lambda t: t.replace("alpha=0.1\n", "alpha=0.10\n"),
                       r"key line 5 is 'alpha=0.10\n'; write_key writes 'alpha=0.1\n'"),
    "blank-line": (lambda t: t.replace("seed2=2\n", "seed2=2\n\n"),
                   "expected seed3=..., got ''"),
    "crlf": (lambda t: t.replace("\n", "\r\n"),
             r"key line 1 is 'WM3DKEY 1\r\n'; write_key writes 'WM3DKEY 1\n'"),
    "no-final-newline": (lambda t: t[:-1],
                         r"key line 21 is 'plane8=YIA='; write_key writes 'plane8=YIA=\n'"),
    "plane-pad-bit": (lambda t: t.replace("plane1=YIA=", "plane1=YIE="),  # 0x80 -> 0x81
                      r"key line 14 is 'plane1=YIE=\n'; write_key writes 'plane1=YIA=\n'"),
    "base64-pad-bit": (lambda t: t.replace("plane1=YIA=", "plane1=YIB="),  # same bytes
                       r"key line 14 is 'plane1=YIB=\n'; write_key writes 'plane1=YIA=\n'"),
}


@pytest.mark.parametrize("name", sorted(_PROBES))
def test_key_text_write_key_would_not_write_is_refused(name):
    edit, message = _PROBES[name]
    _, text = _roundtrip(_PROBE_BUNDLE)
    assert "\nplane1=YIA=\n" in text and edit(text) != text
    with pytest.raises(FormatError, match=re.escape(message)):
        read_key(io.BytesIO(edit(text).encode()))


def test_selected_shot_shorter_than_minimum_rejected():
    with pytest.raises(FormatError, match="selected shot 0 has 3 frames"):
        write_key(_bundle(boundaries=(0, 3, 20)), io.StringIO())
    _, text = _roundtrip(_bundle())
    with pytest.raises(FormatError, match="selected shot 1 has 8 frames"):
        read_key(io.StringIO(text.replace("boundaries=0,30,64", "boundaries=0,30,38")))
    # an unselected short shot is fine
    again, _ = _roundtrip(_bundle(boundaries=(0, 30, 33, 64),
                                  records=[ShotRecord(0, _planes(1)),
                                           ShotRecord(2, _planes(2))]))
    assert again.boundaries == (0, 30, 33, 64)


# each breaks one part of the shot boundary rule: (boundaries, message fragment)
_BAD_BOUNDARIES = {
    "empty": ((), "bad shot boundaries"),
    "one": ((0,), "bad shot boundaries"),
    "from-one": ((1, 30, 64), "bad shot boundaries"),
    "repeated": ((0, 30, 30, 64), "strictly increasing"),
    "falling": ((0, 40, 30, 64), "strictly increasing"),
    "float": ((0, 30.0, 64), "shot boundaries must be integers"),
    "bool": ((False, 30, 64), "shot boundaries must be integers"),
}


@pytest.mark.parametrize("name", sorted(_BAD_BOUNDARIES))
def test_shots_and_keys_hold_one_boundary_rule(name):
    bad, fragment = _BAD_BOUNDARIES[name]
    with pytest.raises(GeometryError) as shot_error:
        validate_boundaries(bad)
    with pytest.raises(FormatError) as key_error:
        write_key(_bundle(boundaries=bad), io.StringIO())
    assert not isinstance(key_error.value, GeometryError)
    assert str(key_error.value) == str(shot_error.value)
    assert fragment in str(shot_error.value)
