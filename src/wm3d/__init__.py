"""Blind video watermarking in a temporal+spatial Haar wavelet domain.

Embeds an 8-bit grayscale watermark into the 3D wavelet coefficients of
video shots, extracts it again from key material alone, and ships the
attack simulators and metrics used to judge robustness.
"""

__version__ = "0.1.0"

from .attacks import (
    attack_average,
    attack_compress,
    attack_drop,
    attack_noise,
    attack_swap,
)
from .embed import embed_clip
from .errors import FormatError, GeometryError
from .extract import extract_clip
from .keyfile import EmbedParams, KeyBundle, ShotRecord, read_key, write_key
from .media_io import (
    VideoClip,
    read_pgm,
    read_pgm_sequence,
    read_y4m,
    write_pgm,
    write_pgm_sequence,
    write_y4m,
)
from .metrics import nc, psnr, psnr_clip
from .shots import detect_shots, select_shots

__all__ = [
    "EmbedParams",
    "FormatError",
    "GeometryError",
    "KeyBundle",
    "ShotRecord",
    "VideoClip",
    "attack_average",
    "attack_compress",
    "attack_drop",
    "attack_noise",
    "attack_swap",
    "detect_shots",
    "embed_clip",
    "extract_clip",
    "nc",
    "psnr",
    "psnr_clip",
    "read_key",
    "read_pgm",
    "read_pgm_sequence",
    "read_y4m",
    "select_shots",
    "write_key",
    "write_pgm",
    "write_pgm_sequence",
    "write_y4m",
]
