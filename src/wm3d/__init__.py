"""Blind video watermarking in a temporal+spatial Haar wavelet domain.

Embeds an 8-bit grayscale watermark into the 3D wavelet coefficients of
video shots, extracts it again from key material alone, and ships the
attack simulators and metrics used to judge robustness. A video, always
a y4m file or stream, is read whole with read_video, frame by frame with
open_video, and written with write_video; read_pgm and write_pgm read and
write one image, such as a watermark.
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
    open_video,
    read_pgm,
    read_video,
    write_pgm,
    write_video,
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
    "open_video",
    "psnr",
    "psnr_clip",
    "read_key",
    "read_pgm",
    "read_video",
    "select_shots",
    "write_key",
    "write_pgm",
    "write_video",
]
