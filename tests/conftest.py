"""Shared fixtures: the fixed synthetic corpus and embedding runs.

Everything here is seeded and deterministic; the empirical floors in
the acceptance suite are calibrated against exactly these clips.
"""

from pathlib import PurePosixPath
from types import SimpleNamespace

import numpy as np
import pytest

from wm3d.embed import embed_clip
from wm3d.extract import extract_clip
from oracles import quantize_luma
from wm3d.media_io import VideoClip

# Keys used by every end-to-end test.
SEED1, SEED2, SEED3 = 1, 2, 3


class FsPath:
    """The least os.PathLike: nothing but __fspath__."""

    def __init__(self, path):
        self.path = str(path)

    def __fspath__(self) -> str:
        return self.path


# The path forms every reader and writer takes, each made from a pathlib.Path.
PATH_KINDS = {"str": str, "pure-posix": PurePosixPath, "fspath": FsPath}


def make_gradient_clip(n=64, h=128, w=128, seed=2024) -> VideoClip:
    """Moving sinusoidal gradient over drifting texture plus film grain."""
    rs = np.random.RandomState(seed)
    tex = rs.randint(-22, 23, size=(h, w)).astype(np.float64)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    frames = []
    for k in range(n):
        base = (
            118.0
            + 48.0 * np.sin(2 * np.pi * (ii / 28.0 - k / 26.0))
            + 20.0 * np.sin(2 * np.pi * (jj / 36.0 + k / 40.0))
        )
        grain = rs.randn(h, w) * 22.0
        frames.append(
            quantize_luma(base + np.roll(tex, (k // 2, k // 3), (0, 1)) + grain)
        )
    return VideoClip(frames=frames)


def make_noise_clip(n=64, h=128, w=128, seed=7) -> VideoClip:
    """Independent per-frame Gaussian texture around mid gray."""
    rs = np.random.RandomState(seed)
    return VideoClip(
        frames=[quantize_luma(128.0 + 52.0 * rs.randn(h, w)) for _ in range(n)]
    )


def make_flat_noise_clip(n, mean, sigma=30.0, h=128, w=128, seed=5) -> VideoClip:
    """Noise clip with a controllable mean, for multi-shot constructions."""
    rs = np.random.RandomState(seed)
    return VideoClip(
        frames=[quantize_luma(mean + sigma * rs.randn(h, w)) for _ in range(n)]
    )


def corpus_watermark() -> np.ndarray:
    """16x16 high-contrast glyph with one gray ramp row.

    Mostly {0, 255} so chance-level NC sits near 0.5; the ramp keeps
    all 8 bitplanes distinct.
    """
    wm = np.zeros((16, 16), np.uint8)
    wm[1:4, 1:15] = 255
    wm[4:13, 6:10] = 255
    wm[13:15, 1:6] = 255
    wm[13:15, 10:15] = 255
    wm[8, 0:16] = np.arange(16, dtype=np.uint16) * 17
    return wm


@pytest.fixture(scope="session")
def watermark():
    return corpus_watermark()


@pytest.fixture(scope="session")
def corpus():
    return {
        "gradient": make_gradient_clip(),
        "noise": make_noise_clip(),
    }


@pytest.fixture(scope="session")
def embedded(corpus, watermark):
    """One embedding run per corpus clip, with its no-attack NC."""
    out = {}
    for name, clip in corpus.items():
        marked, bundle = embed_clip(clip, watermark, SEED1, SEED2, SEED3)
        nc0 = extract_clip(marked, bundle, watermark).nc
        out[name] = SimpleNamespace(
            original=clip, marked=marked, bundle=bundle, nc0=nc0
        )
    return out
