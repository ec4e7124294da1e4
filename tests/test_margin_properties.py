"""Property test for the signed-margin kernel: on any int64 regions, the
sign rule on wm3d.embed._window_margins equals the scalar oracle's
window_signs, and each margin is t - r exactly, so 0 exactly at a tie.

Values in -2..2 force ties; scaled by 1e12 they also check the margins
far past float32's exact range. Derandomized, so every run draws the
same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import neighbor_max, window_signs  # noqa: E402
from wm3d.embed import _window_margins, _window_signs  # noqa: E402
from wm3d.wavelet3d import SubbandRect  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def windowed_regions(draw):
    """(sub, plane, win): (..., h, w) int64 regions of at least two
    coefficients, 1xN and Nx1 included, with or without a leading plane
    axis; a random window in them, and matching +-1 planes."""
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    h = draw(st.integers(1, 6))
    w = draw(st.integers(2 if h == 1 else 1, 6))
    scale = draw(st.sampled_from([1, 10**12]))
    sub = draw(arrays(np.int64, (*lead, h, w), elements=st.integers(-2, 2))) * scale
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
    signs = st.sampled_from([-1, 1])
    plane = draw(arrays(np.int8, (*lead, r1 - r0, c1 - c0), elements=signs))
    return sub, plane, (slice(r0, r1), slice(c0, c1))


@PROPERTY
@given(case=windowed_regions())
def test_signs_of_margins_equal_scalar_oracle(case):
    sub, plane, win = case
    margins = _window_margins(sub, win)
    assert margins.dtype == np.int64
    assert np.array_equal(_window_signs(margins, plane), window_signs(sub, plane, win))

    # t from the oracle is exact in float64 at these magnitudes
    rect = SubbandRect(0, 0, *sub.shape[-2:])
    window = sub[(..., *win)]
    want = np.empty(margins.shape, dtype=np.int64)
    for *lead, i, j in np.ndindex(*margins.shape):
        r, c = win[0].start + i, win[1].start + j
        want[(*lead, i, j)] = int(neighbor_max(sub[tuple(lead)], rect, r, c))
    assert np.array_equal(margins, want - window)
    assert np.array_equal(margins == 0, want == window)
