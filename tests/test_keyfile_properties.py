"""Property tests for the key file: round trips and typed errors.

Derandomized, so every run draws the same examples.
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wm3d.errors import FormatError  # noqa: E402
from wm3d.keyfile import KeyBundle, ShotRecord, read_key, write_key  # noqa: E402
from wm3d.shots import MIN_EMBED_SHOT_LEN  # noqa: E402
from wm3d.wavelet3d import BANDS  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
U64 = st.integers(0, 2**64 - 1)


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
    return KeyBundle(
        seed1=draw(U64),
        seed2=draw(U64),
        seed3=draw(U64),
        alpha=draw(st.floats(0.0, 1.0, exclude_max=True)),
        wm_width=wm_w,
        wm_height=wm_h,
        band=draw(st.sampled_from(BANDS)),
        region_row0=draw(st.integers(0, 500)),
        region_col0=draw(st.integers(0, 500)),
        boundaries=boundaries,
        selected=selected,
        records=records,
    )


def _key_bytes(bundle) -> bytes:
    buf = io.StringIO()
    write_key(bundle, buf)
    return buf.getvalue().encode("ascii")


@PROPERTY
@given(bundles())
def test_any_valid_bundle_roundtrips(bundle):
    data = _key_bytes(bundle)
    again = read_key(io.BytesIO(data))
    for name in ("seed1", "seed2", "seed3", "alpha", "wm_width", "wm_height",
                 "band", "region_row0", "region_col0", "boundaries", "selected"):
        assert getattr(again, name) == getattr(bundle, name)
    assert [r.shot_index for r in again.records] == list(bundle.selected)
    for a, b in zip(again.records, bundle.records):
        assert np.array_equal(a.planes, b.planes)
    assert _key_bytes(again) == data


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
    try:
        read_key(io.BytesIO(data))
    except FormatError:
        pass


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


def test_non_ascii_key_raises_format_error(tmp_path):
    record = ShotRecord(shot_index=0, planes=np.ones((8, 1, 1), np.int8))
    key = _key_bytes(KeyBundle(1, 2, 3, 0.1, 1, 1, boundaries=(0, 9), selected=(0,),
                               records=[record]))
    path = tmp_path / "k.key"
    path.write_bytes(key.replace(b"alpha=0.1", b"alpha=0.\xe91"))
    with pytest.raises(FormatError, match="ASCII"):
        read_key(path)
