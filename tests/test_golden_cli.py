"""Golden digests of whole CLI runs on two tiny clips.

The clips and watermarks are drawn from wm3d.prng.stream, not numpy's
Generator, whose streams numpy does not promise to keep across versions.
The stdout of extract, psnr and the bench sweeps, the robustness numbers,
is pinned as text; every other stdout and every file a command writes is
pinned by sha256. So a change that moves one output byte fails here; a
deliberate output change updates the pins in the same change. The compression proxy is not pinned:
the float order of its DCT decides its rounding ties.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from wm3d.cli import main
from wm3d.media_io import VideoClip, write_pgm, write_y4m
from wm3d.prng import stream


def _luma(seed, shots, h, w):
    """Independent frames of 4x4 blocks (+-48) and grain (+-8) around
    alternating dark and bright shot levels, so every planned boundary is
    a hard cut and the level-3 coefficients the mark moves are large."""
    n = sum(shots)
    words = stream(seed, n * h * w).reshape(n, h, w)
    blocks = (words[:, ::4, ::4] >> np.uint64(57)).astype(np.int16).repeat(4, 1).repeat(4, 2)
    grain = (words & np.uint64(15)).astype(np.int16)
    levels = np.repeat([(64, 192)[s % 2] for s in range(len(shots))], shots)
    return list((levels[:, None, None] + (blocks * 3) // 4 - 48 + grain - 8).astype(np.uint8))


def _byte_image(seed, h, w):
    return (stream(seed, h * w) >> np.uint64(56)).astype(np.uint8).reshape(h, w)


def _mono(tmp):
    # shots of 9-20 frames: 9, 14 and 12 pad to 16 frames, 20 pads to 32
    write_y4m(VideoClip(_luma(11, (9, 14, 20, 12), 64, 64)), tmp / "in.y4m")
    write_pgm(_byte_image(12, 7, 6), tmp / "wm.pgm")
    return ["--band", "hl3", "--offset", "1,0"]


def _c420(tmp):
    # 4:2:0 with power-of-two shots; the mark fills lh3 (6x8 at 48x64)
    frames = _luma(21, (16, 16), 48, 64)
    chroma = [_byte_image(22 + k, 1, 48 * 64 // 2).tobytes() for k in range(len(frames))]
    write_y4m(VideoClip(frames, chroma_token="420jpeg", chroma=chroma), tmp / "in.y4m")
    write_pgm(_byte_image(23, 6, 8), tmp / "wm.pgm")
    return []


CLIPS = {"mono": _mono, "420": _c420}

# name -> (argv, files it writes), run in this order in the clip's directory;
# embed also takes the clip's own options
COMMANDS = {
    "embed": (["embed", "--in", "in.y4m", "--wm", "wm.pgm", "--key-out", "k.key",
               "--out", "marked.y4m"], ["marked.y4m", "k.key"]),
    "extract": (["extract", "--in", "marked.y4m", "--key", "k.key", "--out", "ext.pgm",
                 "--ref", "wm.pgm"], ["ext.pgm"]),
    "drop": (["attack", "--in", "marked.y4m", "--out", "drop.y4m", "--type", "drop",
              "--original", "in.y4m"], ["drop.y4m"]),
    "average": (["attack", "--in", "marked.y4m", "--out", "average.y4m",
                 "--type", "average"], ["average.y4m"]),
    "swap": (["attack", "--in", "marked.y4m", "--out", "swap.y4m", "--type", "swap"],
             ["swap.y4m"]),
    "psnr": (["psnr", "in.y4m", "marked.y4m"], []),
    "bench": (["bench", "--in", "in.y4m", "--wm", "wm.pgm", "--attacks", "drop,average,swap"],
              []),
    "noise": (["attack", "--in", "marked.y4m", "--out", "noise.y4m", "--type", "noise",
               "--sigma", "3", "--seed", "77"], ["noise.y4m"]),
    "bench-noise": (["bench", "--in", "in.y4m", "--wm", "wm.pgm",
                     "--attacks", "noise:2,noise:6"], []),
}

# Commands whose stdout is pinned as text rather than by sha256.
READABLE = {"extract", "psnr", "bench", "bench-noise"}


def _text(*lines, end="\n"):
    return "".join(line + end for line in lines)


_CSV_HEAD = "alpha,attack,parameter,nc,psnr_db"

# stdout (text or sha256) and sha256 of each written file. Every pin but the
# noise ones was taken before the noise draw became table-driven and did not
# move with it.
GOLDEN = {
    "mono": {
        "embed": {
            "stdout": "94fa271a9ed9022b312067b716f3ad9e2dce8bf4675663eb129f2eaa3f786533",
            "marked.y4m": "ae4c702298aaf4bee5633a207cc4b3ac44b5e2506c47c20305b2fbc42b5039e8",
            "k.key": "ddd280927018cc90210021b2567d70cdd5727d7b4713d3cfcdb8518725e0b832",
        },
        "extract": {
            "stdout": _text("shot 0: nc=0.9476", "shot 1: nc=1.0041", "shot 2: nc=0.9362",
                            "shot 3: nc=0.9931", "aggregate: nc=0.9984"),
            "ext.pgm": "4d687cd85b580262577fae96fbaab98020c06c5fde9ddd8d36027b09dc989112",
        },
        "drop": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "drop.y4m": "0604d811d3a53634d57a8741c02b07adf9c7875c59ee89462d45d48e88bbcb70",
        },
        "average": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "average.y4m": "041952a25a9df0e9e10b6fdecce45a163e425e25a4764d27392e2af2af8fe8a4",
        },
        "swap": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "swap.y4m": "8363f820a9d1af90a6c98ad280c940958aa8367f8d11e5fe1f6ca929d06b404f",
        },
        "psnr": {
            "stdout": _text("49.3660"),
        },
        "bench": {
            "stdout": _text(_CSV_HEAD, "0.1,none,,0.9856,49.7733", "0.1,drop,,0.9871,49.7299",
                            "0.1,average,,0.9663,21.2286", "0.1,swap,,0.8716,32.7229",
                            end="\r\n"),
        },
        "noise": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "noise.y4m": "e0cd442ec976f5eeefa891bd7812972cf71dc7172da80c073d732b597d2c9256",
        },
        "bench-noise": {
            "stdout": _text(_CSV_HEAD, "0.1,none,,0.9856,49.7733", "0.1,noise,2,0.9856,41.2936",
                            "0.1,noise,6,0.9824,32.4666", end="\r\n"),
        },
    },
    "420": {
        "embed": {
            "stdout": "fc508f6fab3ce5a9463dd96cba6c409ede7adccd656ebc11b8f789278e9654df",
            "marked.y4m": "75eb4a3f148dd8dfa1404151eecec999058a04c3148b3d45519d7fbf72329627",
            "k.key": "7090b88e77af908499beb42b74c4b1389eb314a480bcb780b372f11a1f733f2d",
        },
        "extract": {
            "stdout": _text("shot 0: nc=1.0203", "shot 1: nc=0.9841", "aggregate: nc=1.0203"),
            "ext.pgm": "c849d3b00fe33c1016c59bcf0207ce14fbf7539b78be02bc56d84119958afe9a",
        },
        "drop": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "drop.y4m": "e51f8ae909a9758f823c93c52914dde23a83814d0c9b6f88177d6c43ae8b0391",
        },
        "average": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "average.y4m": "fe9f1da8a9a9f6110b1857874f2cb9a9f3a7276ed59cdaa74306f134f1d5f6dd",
        },
        "swap": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "swap.y4m": "1735cef5d0a7a3e80d1d08793e7449f9548d5470ea49562f912265211119a0d1",
        },
        "psnr": {
            "stdout": _text("48.1178"),
        },
        "bench": {
            "stdout": _text(_CSV_HEAD, "0.1,none,,1.0203,48.1178", "0.1,drop,,0.9880,48.0883",
                            "0.1,average,,0.9338,22.1134", "0.1,swap,,0.7221,32.1582",
                            end="\r\n"),
        },
        "noise": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "noise.y4m": "5bcc04ace9a7b4df330002d54b8756feb2abfedc7d082d4bfb8210541ce33e07",
        },
        "bench-noise": {
            "stdout": _text(_CSV_HEAD, "0.1,none,,1.0203,48.1178", "0.1,noise,2,1.0195,41.0443",
                            "0.1,noise,6,1.0011,32.4421", end="\r\n"),
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(tmp_path_factory) -> dict:
    """{(clip, command): {"stdout" or file name: text or sha256}} for every pair."""
    digests = {}
    home = os.getcwd()
    for clip, make in CLIPS.items():
        tmp = tmp_path_factory.mktemp(clip)
        embed_opts = make(tmp)
        os.chdir(tmp)
        try:
            for name, (argv, outputs) in COMMANDS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv + embed_opts if name == "embed" else argv)
                assert code == 0, (clip, name)
                text = out.getvalue()
                got = {"stdout": text if name in READABLE else _sha(text.encode())}
                got.update({f: _sha((tmp / f).read_bytes()) for f in outputs})
                digests[clip, name] = got
        finally:
            os.chdir(home)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory)


@pytest.mark.parametrize("clip", list(CLIPS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_output_digests(digests, clip, command):
    assert digests[clip, command] == GOLDEN[clip][command]
