"""Watermark preprocessing: the (8, H, W) bitplane stack and its keys.

A grayscale watermark is split into its 8 bitplanes, and the stack is
prepared in one step: one keyed position permutation (first key)
scatters every plane the same way, and a keyed XOR mask per plane
(second key, salted with the plane index so planes decorrelate) maps
each plane to a +-1 sign matrix. restore_bitplanes inverts it exactly.
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
def _keys(shape, seed1: int, seed2: int) -> tuple:
    """(permutation, masks) of (H, W) marks, cached and so read-only: the
    permutation is prng.permutation(H * W, seed1) of row-major positions;
    cell (b, i, j) of the masks is the low bit of mix(mix(mix(seed2 XOR b)
    XOR i) XOR j), mix the splitmix64 step mod 2**64."""
    h, w = shape
    perm = prng.permutation(h * w, seed1)
    salts = np.uint64(seed2 & prng.MASK64) ^ np.arange(8, dtype=np.uint64)
    rows = prng.mix64_np(prng.mix64_np(salts)[:, None] ^ np.arange(h, dtype=np.uint64))
    cells = prng.mix64_np(rows[..., None] ^ np.arange(w, dtype=np.uint64))
    masks = (cells & np.uint64(1)).astype(np.uint8)
    perm.setflags(write=False)
    masks.setflags(write=False)
    return perm, masks


def prepare_sign_planes(watermark: np.ndarray, seed1: int, seed2: int) -> np.ndarray:
    """Watermark image -> (8, H, W) int8 +-1 sign planes.

    Output position t of every bitplane takes its input position p[t],
    p the keyed permutation over the row-major flattening; each plane is
    then XORed with its mask and mapped 1 -> +1, 0 -> -1.
    """
    bits = decompose_bitplanes(watermark)
    perm, masks = _keys(bits.shape[1:], seed1, seed2)
    moved = bits.reshape(8, -1)[:, perm].reshape(bits.shape)
    return 2 * (moved ^ masks).astype(np.int8) - 1


def restore_bitplanes(signs: np.ndarray, seed1: int, seed2: int) -> np.ndarray:
    """Exact inverse of prepare_sign_planes: the (8, H, W) bit stack."""
    arr = np.asarray(signs)
    if np.any((arr != 1) & (arr != -1)):
        raise ValueError("sign plane values must be +1 or -1")
    perm, masks = _keys(arr.shape[1:], seed1, seed2)
    bits = np.empty((8, perm.size), dtype=np.uint8)
    bits[:, perm] = ((arr > 0) ^ masks).reshape(8, -1)
    return bits.reshape(arr.shape)
