"""Golden digests of whole CLI runs on two tiny clips.

The clips and watermarks are drawn from wm3d.prng.stream, not numpy's
Generator, whose streams numpy does not promise to keep across versions.
Each command's stdout and every file it writes are pinned by sha256, so a
change that moves one output byte fails here; a deliberate output change
updates the pins in the same change. The compression proxy is not pinned:
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

# sha256 of stdout and of each written file. Every pin but noise's was
# taken before the noise draw became table-driven and did not move with it.
GOLDEN = {
    "mono": {
        "embed": {
            "stdout": "94fa271a9ed9022b312067b716f3ad9e2dce8bf4675663eb129f2eaa3f786533",
            "marked.y4m": "ae4c702298aaf4bee5633a207cc4b3ac44b5e2506c47c20305b2fbc42b5039e8",
            "k.key": "ddd280927018cc90210021b2567d70cdd5727d7b4713d3cfcdb8518725e0b832",
        },
        "extract": {
            "stdout": "b3a69cb1facf740dad32f1fed5bfd928bbbcd70ce910b82ef778df3dd9da3bf9",
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
            "stdout": "8ea37f215c27f2fed9be519e21c010df88813470db82668f9068ded75f0ea3eb",
        },
        "bench": {
            "stdout": "0c0e265fc4cc65c468432b55edbe9d5e5597adf75486d4d71e365027989697d8",
        },
        "noise": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "noise.y4m": "e0cd442ec976f5eeefa891bd7812972cf71dc7172da80c073d732b597d2c9256",
        },
        "bench-noise": {
            "stdout": "4a79f986052eddc6e16c978b60ee58a8da4bce395c14737da0ca60fcef160a39",
        },
    },
    "420": {
        "embed": {
            "stdout": "fc508f6fab3ce5a9463dd96cba6c409ede7adccd656ebc11b8f789278e9654df",
            "marked.y4m": "75eb4a3f148dd8dfa1404151eecec999058a04c3148b3d45519d7fbf72329627",
            "k.key": "7090b88e77af908499beb42b74c4b1389eb314a480bcb780b372f11a1f733f2d",
        },
        "extract": {
            "stdout": "18720097c0bde24fe521fbbf8adfda4aa830a463a9f55e121ba55a9830634988",
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
            "stdout": "3a83d6585487f2e95b705a4382417089fb96e585549f6039aead2416b7fed860",
        },
        "bench": {
            "stdout": "ee728a212443cb63886e30851b11f45e6ce8965c665bc0c9fb9c391ab6c59928",
        },
        "noise": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "noise.y4m": "5bcc04ace9a7b4df330002d54b8756feb2abfedc7d082d4bfb8210541ce33e07",
        },
        "bench-noise": {
            "stdout": "145ad7ec66cf6ceb1f7380230a6c2d6231036560385b58c9a26d489e69de3c8b",
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(tmp_path_factory) -> dict:
    """{(clip, command): {"stdout" or file name: sha256}} for every pair."""
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
                got = {"stdout": _sha(out.getvalue().encode())}
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
