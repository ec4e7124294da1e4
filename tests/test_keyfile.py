import io

import numpy as np
import pytest

from wm3d.errors import FormatError
from wm3d.keyfile import KeyBundle, ShotRecord, read_key, write_key


def _planes(seed, h=16, w=16):
    rs = np.random.RandomState(seed)
    return np.where(rs.rand(8, h, w) < 0.5, 1, -1).astype(np.int8)


def _bundle(**overrides):
    kw = dict(
        seed1=0x0123456789ABCDEF,
        seed2=42,
        seed3=2**64 - 1,
        alpha=0.1,
        wm_width=16,
        wm_height=16,
        band="lh3",
        region_row0=0,
        region_col0=0,
        boundaries=(0, 30, 64),
        selected=(0, 1),
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
    for name in ("seed1", "seed2", "seed3", "alpha", "wm_width", "wm_height",
                 "band", "region_row0", "region_col0", "boundaries", "selected"):
        assert getattr(again, name) == getattr(bundle, name)
    assert len(again.records) == 2
    for a, b in zip(again.records, bundle.records):
        assert a.shot_index == b.shot_index
        assert np.array_equal(a.planes, b.planes)


def test_alpha_repr_roundtrips_exactly():
    for alpha in (0.1, 1.0 / 3.0, 0.07500000000000001, 0.0):
        again, _ = _roundtrip(_bundle(alpha=alpha))
        assert again.alpha == alpha
    # an integer alpha is written as a float, as EmbedParams(alpha=0) gives it
    again, text = _roundtrip(_bundle(alpha=0))
    assert "\nalpha=0.0\n" in text
    assert again.alpha == 0.0 and isinstance(again.alpha, float)


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
    with pytest.raises(FormatError, match="plane 8"):
        read_key(io.StringIO("\n".join(lines) + "\n"))


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
        write_key(_bundle(selected=(), records=[]), io.StringIO())
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
    with pytest.raises(FormatError, match="selected"):
        write_key(_bundle(selected=(0, 5)), io.StringIO())
    with pytest.raises(FormatError, match="records"):
        write_key(_bundle(selected=(0,)), io.StringIO())
    with pytest.raises(FormatError, match="alpha"):
        write_key(_bundle(alpha=1.5), io.StringIO())
    bad = _bundle()
    bad.records[0].planes = np.zeros((8, 16, 16), np.int8)
    with pytest.raises(FormatError, match="must be"):
        write_key(bad, io.StringIO())


def test_selected_records_mismatch_on_read():
    _, text = _roundtrip(_bundle())
    # drop the whole second shot block
    lines = text.splitlines()
    start = lines.index("shot=1")
    with pytest.raises(FormatError, match="records"):
        read_key(io.StringIO("\n".join(lines[:start]) + "\n"))


def test_selected_shot_shorter_than_minimum_rejected():
    with pytest.raises(FormatError, match="selected shot 0 has 3 frames"):
        write_key(_bundle(boundaries=(0, 3, 20)), io.StringIO())
    _, text = _roundtrip(_bundle())
    with pytest.raises(FormatError, match="selected shot 1 has 8 frames"):
        read_key(io.StringIO(text.replace("boundaries=0,30,64", "boundaries=0,30,38")))
    # an unselected short shot is fine
    again, _ = _roundtrip(_bundle(boundaries=(0, 30, 33, 64), selected=(0, 2),
                                  records=[ShotRecord(0, _planes(1)),
                                           ShotRecord(2, _planes(2))]))
    assert again.boundaries == (0, 30, 33, 64)
