"""Property test for the exact band sums: on any uint8 frames, every
band's int16 sums are 8 times the float spatial oracle's band, rounded.

Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import spatial_forward3  # noqa: E402
from wm3d.wavelet3d import BANDS, band_sums, subband_rect  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def uint8_frames(draw):
    """(frames, H, W) uint8 stacks of 1-2 frames, 8-32 pixels a side."""
    shape = (draw(st.integers(1, 2)), 8 * draw(st.integers(1, 4)), 8 * draw(st.integers(1, 4)))
    return draw(arrays(np.uint8, shape, elements=st.integers(0, 255)))


@PROPERTY
@given(x=uint8_frames())
def test_band_sums_equal_rounded_oracle_times_8(x):
    full = spatial_forward3(x)
    for band in BANDS:
        want = np.rint(8 * full[(..., *subband_rect(*x.shape[-2:], band).slices())])
        got = band_sums(x, band)
        assert got.dtype == np.int16
        assert np.array_equal(got, want)
