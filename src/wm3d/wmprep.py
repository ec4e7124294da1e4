"""Watermark preprocessing: bitplanes, keyed permutation, keyed signs.

A grayscale watermark is split into its 8 bitplanes. One keyed position
permutation (first key) scatters every plane the same way; a keyed XOR
mask (second key, salted with the plane index so planes decorrelate)
then maps each plane to a +-1 sign matrix. All steps invert exactly.
"""

from functools import lru_cache

import numpy as np

from . import prng


def decompose_bitplanes(image: np.ndarray) -> np.ndarray:
    """Split an 8-bit grayscale image into an (8, H, W) bit stack.

    Plane b holds bit b of each pixel; index 0 is the least significant
    bit. An image of another real dtype must hold integers in [0, 255].
    """
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("watermark must be a nonempty 2-D image")
    if img.dtype != np.uint8:
        if not np.all((img >= 0) & (img <= 255) & (np.floor(img) == img)):
            raise ValueError("watermark values must be integers in [0, 255]")
        img = img.astype(np.uint8)
    return np.unpackbits(img[None], axis=0, bitorder="little")


def compose_bitplanes(planes: np.ndarray) -> np.ndarray:
    """Rebuild the grayscale image from an (8, H, W) bit stack."""
    arr = np.asarray(planes)
    if arr.ndim != 3 or arr.shape[0] != 8:
        raise ValueError(f"expected 8 stacked bitplanes, got shape {arr.shape}")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("bitplanes must be binary")
    return np.packbits(arr, axis=0, bitorder="little")[0]


@lru_cache(maxsize=64)
def _perm(size: int, seed1: int) -> np.ndarray:
    # All 8 planes share one permutation, and embed/extract reuse it;
    # every caller shares the cached array, so it is read-only.
    p = prng.permutation(size, seed1)
    p.setflags(write=False)
    return p


def permute(plane: np.ndarray, seed1: int) -> np.ndarray:
    """Scatter positions with the keyed permutation shared by all planes.

    Output position t takes input position p[t], where p is the
    Fisher-Yates permutation drawn from splitmix64(seed1) over the
    row-major flattening.
    """
    arr = np.asarray(plane)
    p = _perm(arr.size, seed1)
    return arr.ravel()[p].reshape(arr.shape)


def unpermute(plane: np.ndarray, seed1: int) -> np.ndarray:
    """Exact inverse of permute for the same seed."""
    arr = np.asarray(plane)
    p = _perm(arr.size, seed1)
    out = np.empty(arr.size, dtype=arr.dtype)
    out[p] = arr.ravel()
    return out.reshape(arr.shape)


@lru_cache(maxsize=64)
def _mask(shape, plane_index: int, seed2: int) -> np.ndarray:
    """Keyed binary mask: cell (i, j) is the low bit of mix(mix(mix(seed2
    XOR plane_index) XOR i) XOR j), mix the splitmix64 step mod 2**64.

    Every shot reuses the same 8 masks; cached, so shared and read-only."""
    h, w = shape
    base = prng.mix64_np(np.array([(seed2 ^ plane_index) & prng.MASK64], np.uint64))
    rows = prng.mix64_np(base ^ np.arange(h, dtype=np.uint64))
    cells = prng.mix64_np(rows[:, None] ^ np.arange(w, dtype=np.uint64)[None, :])
    m = (cells & np.uint64(1)).astype(np.uint8)
    m.setflags(write=False)
    return m


def disorder(plane: np.ndarray, plane_index: int, seed2: int) -> np.ndarray:
    """Map a bitplane to a keyed +-1 sign matrix.

    XORs the bits with the plane's mask and maps 1 -> +1, 0 -> -1.
    """
    bits = np.asarray(plane, dtype=np.uint8)
    if np.any(bits > 1):
        raise ValueError("plane must be binary")
    m = _mask(bits.shape, plane_index, seed2)
    return (2 * (bits ^ m).astype(np.int8) - 1).astype(np.int8)


def undisorder(signs: np.ndarray, plane_index: int, seed2: int) -> np.ndarray:
    """Recover the bitplane from a sign matrix under the same key."""
    arr = np.asarray(signs)
    if np.any((arr != 1) & (arr != -1)):
        raise ValueError("sign plane values must be +1 or -1")
    bits = ((arr + 1) // 2).astype(np.uint8)
    m = _mask(arr.shape, plane_index, seed2)
    return bits ^ m
