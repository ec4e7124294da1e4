"""Property tests for the key file: round trips and typed errors.

Derandomized, so every run draws the same examples.
"""

import io
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wm3d.errors import FormatError  # noqa: E402
from wm3d.keyfile import EmbedParams, KeyBundle, ShotRecord, read_key, write_key  # noqa: E402
from wm3d.shots import MIN_EMBED_SHOT_LEN  # noqa: E402
from wm3d.wavelet3d import BANDS  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
U64 = st.integers(0, 2**64 - 1)
INT_FIELDS = {"seed1", "seed2", "seed3", "wm_w", "wm_h", "row0", "col0", "boundaries",
              "selected", "shot"}


@st.composite
def bundles(draw):
    steps = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    boundaries = tuple(np.cumsum([0] + steps).tolist())
    # only shots long enough to carry a mark can be selected, and a key
    # selects at least one
    long_enough = [i for i, n in enumerate(steps) if n >= MIN_EMBED_SHOT_LEN]
    hypothesis.assume(long_enough)
    selected = tuple(sorted(draw(st.sets(st.sampled_from(long_enough), min_size=1))))
    wm_h, wm_w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    records = []
    for index in selected:
        rs = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
        planes = np.where(rs.rand(8, wm_h, wm_w) < 0.5, 1, -1).astype(np.int8)
        records.append(ShotRecord(shot_index=index, planes=planes))
    params = EmbedParams(
        alpha=draw(st.floats(0.0, 1.0, exclude_max=True)),
        region_row0=draw(st.integers(0, 500)),
        region_col0=draw(st.integers(0, 500)),
        band=draw(st.sampled_from(BANDS)),
    )
    return KeyBundle(draw(U64), draw(U64), draw(U64), params, boundaries, records)


def _key_bytes(bundle) -> bytes:
    buf = io.StringIO()
    write_key(bundle, buf)
    return buf.getvalue().encode("ascii")


def _assert_same_key(again, bundle) -> None:
    for name in ("seed1", "seed2", "seed3", "params", "boundaries", "selected",
                 "wm_height", "wm_width"):
        assert getattr(again, name) == getattr(bundle, name)
    for a, b in zip(again.records, bundle.records, strict=True):
        assert np.array_equal(a.planes, b.planes)


@PROPERTY
@given(bundles())
def test_any_valid_bundle_roundtrips(bundle):
    data = _key_bytes(bundle)
    again = read_key(io.BytesIO(data))
    _assert_same_key(again, bundle)
    assert _key_bytes(again) == data


@PROPERTY
@given(bundles(), st.data())
def test_any_bundle_write_key_accepts_reads_back_equal(bundle, data):
    # Where a key stores an integer, a caller may hand a numpy integer, a
    # float or a bool. write_key takes the first and refuses the others;
    # EmbedParams refuses them when built. One field is loosened per example.
    field = data.draw(st.sampled_from(["seed1", "seed2", "seed3", "boundaries",
                                       "records", "region_row0", "region_col0"]))
    numpy_int = np.uint64 if field.startswith("seed") else np.int64
    kind = data.draw(st.sampled_from([int, numpy_int, float, bool]))
    if field.startswith("seed"):
        setattr(bundle, field, kind(getattr(bundle, field)))
    elif field == "boundaries":
        bundle.boundaries = tuple(map(kind, bundle.boundaries))
    elif field == "records":
        for rec in bundle.records:
            rec.shot_index = kind(rec.shot_index)
    else:
        try:
            bundle.params = replace(bundle.params, **{field: kind(getattr(bundle.params, field))})
        except ValueError:
            return
    try:
        key = _key_bytes(bundle)
    except FormatError:
        return
    _assert_same_key(read_key(io.BytesIO(key)), bundle)


@PROPERTY
@given(bundles(), st.data())
def test_short_selected_shot_raises_format_error(bundle, data):
    shot = data.draw(st.sampled_from(bundle.selected))
    length = data.draw(st.integers(1, MIN_EMBED_SHOT_LEN - 1))
    b = bundle.boundaries
    steps = [y - x for x, y in zip(b, b[1:])]
    steps[shot] = length
    short = ",".join(str(v) for v in np.cumsum([0] + steps).tolist())
    old = "boundaries=" + ",".join(str(v) for v in b) + "\n"
    key = _key_bytes(bundle).replace(old.encode(), f"boundaries={short}\n".encode())
    with pytest.raises(FormatError, match=f"selected shot {shot} has {length} frames"):
        read_key(io.BytesIO(key))


def _parses_or_format_error(data: bytes) -> None:
    """read_key refuses `data`, or reads a bundle write_key writes back as `data`."""
    try:
        again = read_key(io.BytesIO(data))
    except FormatError:
        return
    assert _key_bytes(again) == data


@PROPERTY
@given(bundles(), st.data())
def test_mutated_key_parses_or_raises_format_error(bundle, data):
    key = bytearray(_key_bytes(bundle))
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(key) - 1))
        key[pos] = data.draw(st.integers(0, 255))
    _parses_or_format_error(bytes(key))


@PROPERTY
@given(bundles(), st.data())
def test_truncated_key_parses_or_raises_format_error(bundle, data):
    key = _key_bytes(bundle)
    _parses_or_format_error(key[: data.draw(st.integers(0, len(key) - 1))])


@PROPERTY
@given(bundles(), st.data())
def test_a_key_with_a_line_moved_or_lost_reads_back_as_written_or_not_at_all(bundle, data):
    # read_key takes only the lines write_key writes, in its order: with
    # one line deleted, duplicated or moved, the file cut after a line, or
    # one integer re-spelled in a form Python's int reads as the same value,
    # it refuses the key, or reads a bundle that writes back the same text
    lines = _key_bytes(bundle).decode().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["delete", "duplicate", "move", "cut", "respell"]))
    if edit == "respell":
        i = data.draw(st.sampled_from([j for j, line in enumerate(lines)
                                       if line.partition("=")[0] in INT_FIELDS]))
        name, _, value = lines[i].rstrip("\n").partition("=")
        items = value.split(",")
        k = data.draw(st.integers(0, len(items) - 1))
        items[k] = data.draw(st.sampled_from(["0{}", "+{}", " {} ", "0_{}"])).format(items[k])
        lines[i] = f"{name}={','.join(items)}\n"
    elif edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    elif edit == "move":
        lines.insert(data.draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    else:
        del lines[i + 1:]
    text = "".join(lines).encode()
    try:
        again = read_key(io.BytesIO(text))
    except FormatError:
        return
    assert _key_bytes(again) == text


def test_non_ascii_key_raises_format_error(tmp_path):
    record = ShotRecord(shot_index=0, planes=np.ones((8, 1, 1), np.int8))
    key = _key_bytes(KeyBundle(1, 2, 3, EmbedParams(), (0, 9), [record]))
    path = tmp_path / "k.key"
    path.write_bytes(key.replace(b"alpha=0.1", b"alpha=0.\xe91"))
    with pytest.raises(FormatError, match="ASCII"):
        read_key(path)
