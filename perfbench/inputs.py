"""Seeded synthetic inputs for the wm3d benchmark.

Every workload gets a y4m clip of textured, panning content and a PGM
watermark glyph. Each shot has its own brightness band (shots alternate
between a dark and a bright band), so the luma histograms of adjacent
shots never overlap and every planned boundary is a hard cut. The shot
plan and geometry are fixed per workload; the seed drives the texture,
the motion, the brightness of each shot, the chroma bytes and the glyph.
Only numpy is used, and the program under test is never imported.
"""

from dataclasses import dataclass

import numpy as np

TEXTURE_RANGE = 112  # texture levels inside one shot, uniform over [0, 112)
GRAIN = 8  # per-frame grain, uniform over [0, GRAIN)
BLUR_RADIUS = 5  # texture correlation length, pixels
# Shot base levels: a dark shot stays at or below 129 and a bright one at
# or above 130, so adjacent shots are a hard cut for any histogram test.
DARK_BAND = (4, 12)
BRIGHT_BAND = (130, 138)
MAX_SPEED = 2  # pan speed per frame, pixels


@dataclass(frozen=True)
class Spec:
    """Geometry, shot plan and watermark placement of one workload."""

    width: int
    height: int
    shot_lengths: tuple
    chroma: str  # "420jpeg" or "mono"
    wm_width: int
    wm_height: int
    band: str = "lh3"
    offset: tuple = (0, 0)

    @property
    def frames(self) -> int:
        return sum(self.shot_lengths)

    @property
    def boundaries(self) -> list:
        return [0, *np.cumsum(self.shot_lengths).tolist()]

    @property
    def chroma_bytes(self) -> int:
        return 0 if self.chroma == "mono" else self.width * self.height // 2

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height + self.chroma_bytes

    def header(self) -> bytes:
        return (
            f"YUV4MPEG2 W{self.width} H{self.height} F25:1 Ip A1:1 C{self.chroma}\n"
        ).encode("ascii")


def many_shot_lengths(count: int) -> tuple:
    """Fixed plan of `count` shots of 9..20 frames in a scrambled order."""
    return tuple(9 + (5 * i) % 12 for i in range(count))


def _box_blur(x: np.ndarray, radius: int) -> np.ndarray:
    """Separable mean filter via cumulative sums (edges use a short window)."""
    for axis in (0, 1):
        c = np.cumsum(x, axis=axis)
        c = np.concatenate([np.zeros_like(c.take([0], axis=axis)), c], axis=axis)
        n = x.shape[axis]
        hi = np.minimum(np.arange(n) + radius + 1, n)
        lo = np.maximum(np.arange(n) - radius, 0)
        shape = [1, 1]
        shape[axis] = n
        x = (c.take(hi, axis=axis) - c.take(lo, axis=axis)) / (hi - lo).reshape(shape)
    return x


def _texture(rng, height: int, width: int) -> np.ndarray:
    """Blurred noise, rank-mapped to a uniform spread over TEXTURE_RANGE.

    A uniform spread gives the level-3 coefficients enough energy that
    embedding changes many pixels instead of a few rounding survivors.
    """
    x = _box_blur(rng.standard_normal((height, width)), BLUR_RADIUS)
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[np.argsort(x, axis=None)] = np.arange(x.size)
    return (ranks * TEXTURE_RANGE // x.size).astype(np.uint8).reshape(height, width)


def make_luma(spec: Spec, rng) -> np.ndarray:
    """(frames, H, W) uint8 luma: one panning, grainy texture per shot."""
    h, w = spec.height, spec.width
    out = np.empty((spec.frames, h, w), dtype=np.uint8)
    pos = 0
    for k, length in enumerate(spec.shot_lengths):
        margin = MAX_SPEED * length
        tex = _texture(rng, h + margin, w + margin)
        band = DARK_BAND if k % 2 == 0 else BRIGHT_BAND
        base = np.uint8(rng.integers(*band))
        vy, vx = rng.integers(1, MAX_SPEED + 1, size=2)
        for t in range(length):
            y, x = vy * t, vx * t
            out[pos + t] = tex[y : y + h, x : x + w] + base
        out[pos : pos + length] += rng.integers(
            0, GRAIN, size=(length, h, w), dtype=np.uint8
        )
        pos += length
    return out


def make_glyph(spec: Spec, rng) -> np.ndarray:
    """Watermark image: a shaded background with a few bright strokes."""
    h, w = spec.wm_height, spec.wm_width
    yy, xx = np.mgrid[0:h, 0:w]
    angle = rng.uniform(0, 2 * np.pi)
    ramp = np.cos(angle) * yy / h + np.sin(angle) * xx / w
    img = 70 + 50 * (ramp - ramp.min()) / max(np.ptp(ramp), 1e-9)
    for _ in range(4):
        r0, c0 = rng.integers(0, h), rng.integers(0, w)
        if rng.random() < 0.5:  # horizontal stroke
            img[r0 : r0 + max(1, h // 10), c0 : c0 + w // 2] = rng.integers(200, 256)
        else:
            img[r0 : r0 + h // 2, c0 : c0 + max(1, w // 10)] = rng.integers(200, 256)
    return img.astype(np.uint8)


def y4m_bytes(spec: Spec, luma: np.ndarray, rng) -> bytes:
    """Serialize luma plus seeded 4:2:0 chroma (if any) as one y4m stream."""
    n = luma.shape[0]
    marker = np.frombuffer(b"FRAME\n", dtype=np.uint8)
    body = np.empty((n, len(marker) + spec.frame_bytes), dtype=np.uint8)
    body[:, : len(marker)] = marker
    luma_end = len(marker) + spec.width * spec.height
    body[:, len(marker) : luma_end] = luma.reshape(n, -1)
    if spec.chroma_bytes:
        body[:, luma_end:] = rng.integers(
            96, 160, size=(n, spec.chroma_bytes), dtype=np.uint8
        )
    return spec.header() + body.tobytes()


def pgm_bytes(image: np.ndarray) -> bytes:
    h, w = image.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes()


def generate(spec: Spec, seed: int, clip_path, wm_path) -> dict:
    """Write the clip and watermark for `seed`; return their sizes."""
    rng = np.random.default_rng(seed)
    luma = make_luma(spec, rng)
    glyph = make_glyph(spec, rng)
    clip = y4m_bytes(spec, luma, rng)
    with open(clip_path, "wb") as fh:
        fh.write(clip)
    with open(wm_path, "wb") as fh:
        fh.write(pgm_bytes(glyph))
    return {
        "frames": spec.frames,
        "width": spec.width,
        "height": spec.height,
        "chroma": spec.chroma,
        "pixels": spec.frames * spec.width * spec.height,
        "bytes": len(clip),
        "shots": len(spec.shot_lengths),
        "watermark": f"{spec.wm_width}x{spec.wm_height}",
    }
