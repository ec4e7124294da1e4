"""Output checks and quality figures computed without the program.

The benchmark reads every file the CLI writes with these few lines of
numpy, so a change to wm3d's own readers, key parser or metrics cannot
move the gates that judge it. Each check raises CheckFailed with a
one-line reason.
"""

import base64
import binascii
import hashlib
import math

import numpy as np

FRAME_MARKER = b"FRAME\n"
KEY_HEADER = (
    "seed1", "seed2", "seed3", "alpha", "wm_w", "wm_h", "band", "row0", "col0",
    "boundaries", "selected",
)
PLANES = 8


class CheckFailed(Exception):
    """An output did not meet the benchmark's expectations."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Y4M:
    """A y4m file written with plain FRAME markers, viewed as arrays."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.find(b"\n")
        require(end > 0, f"{path}: no y4m header line")
        self.header = data[:end].decode("ascii", "replace").split(" ")
        require(self.header[0] == "YUV4MPEG2", f"{path}: bad magic")
        fields = {t[0]: t[1:] for t in self.header[1:] if t}
        self.width, self.height = int(fields["W"]), int(fields["H"])
        chroma = fields.get("C", "420jpeg")
        luma = self.width * self.height
        stride = len(FRAME_MARKER) + luma + (0 if chroma == "mono" else luma // 2)
        body = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
        require(body.size % stride == 0, f"{path}: payload is not whole frames")
        frames = body.reshape(-1, stride)
        marker = np.frombuffer(FRAME_MARKER, dtype=np.uint8)
        require(
            bool(np.all(frames[:, : len(marker)] == marker)),
            f"{path}: frame marker other than a plain FRAME line",
        )
        start = len(marker)
        self.luma = frames[:, start : start + luma].reshape(-1, self.height, self.width)
        self.chroma = frames[:, start + luma :]


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(maxsplit=4)
    require(len(parts) == 5 and parts[0] == b"P5", f"{path}: not a binary PGM")
    w, h, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    require(maxval == 255, f"{path}: maxval {maxval}")
    pixels = data[len(data) - w * h :]
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def parse_key(path) -> dict:
    """Check a key file's layout; return the header fields the checks use."""
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    require(bool(lines) and lines[0] == "WM3DKEY 1", f"{path}: bad key magic")
    fields = {}
    for name, line in zip(KEY_HEADER, lines[1:]):
        key, sep, value = line.partition("=")
        require(key == name and sep == "=", f"{path}: expected {name}=, got {line!r}")
        fields[name] = value
    require(len(fields) == len(KEY_HEADER), f"{path}: truncated key header")
    wm_w, wm_h = int(fields["wm_w"]), int(fields["wm_h"])
    boundaries = [int(v) for v in fields["boundaries"].split(",")]
    selected = [int(v) for v in fields["selected"].split(",") if v]
    blocks = lines[1 + len(KEY_HEADER) :]
    block = 1 + PLANES
    require(len(blocks) == block * len(selected), f"{path}: wrong number of shot blocks")
    plane_bytes = (wm_w * wm_h + 7) // 8
    for i, shot in enumerate(selected):
        chunk = blocks[i * block : (i + 1) * block]
        require(chunk[0] == f"shot={shot}", f"{path}: expected shot={shot}")
        for k, line in enumerate(chunk[1:], start=1):
            key, _, value = line.partition("=")
            require(key == f"plane{k}", f"{path}: expected plane{k}")
            try:
                raw = base64.b64decode(value, validate=True)
            except binascii.Error:
                raise CheckFailed(f"{path}: shot {shot} plane {k} is not base64") from None
            require(len(raw) == plane_bytes, f"{path}: shot {shot} plane {k} size")
    return {
        "wm_w": wm_w,
        "wm_h": wm_h,
        "boundaries": boundaries,
        "selected": selected,
    }


def nc(reference: np.ndarray, extracted: np.ndarray) -> float:
    """sum(W * W') / sum(W^2) over grayscale values."""
    ref = reference.astype(np.float64)
    return float(np.sum(ref * extracted)) / float(np.sum(ref * ref))


def bit_error_rate(reference: np.ndarray, extracted: np.ndarray) -> float:
    return float(np.mean(np.unpackbits(reference) != np.unpackbits(extracted)))


def psnr_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over frames with a finite PSNR (255 peak); inf if all are equal."""
    values = []
    for fa, fb in zip(a, b):
        diff = fa.astype(np.int32) - fb
        mse = float(np.mean(diff * diff))
        if mse:
            values.append(20.0 * math.log10(255.0 / math.sqrt(mse)))
    return sum(values) / len(values) if values else math.inf
