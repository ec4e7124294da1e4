import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SEED1,
    SEED2,
    corpus_watermark,
    make_flat_noise_clip,
    make_noise_clip,
)
import wm3d
from wm3d import cli, media_io
from wm3d.attacks import attack_average, attack_compress, attack_noise
from wm3d.cli import main
from wm3d.embed import embed_clip
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_clip
from wm3d.keyfile import EmbedParams, KeyBundle, ShotRecord, read_key, write_key
from wm3d.media_io import (
    VideoClip,
    read_pgm,
    read_video,
    write_pgm,
    write_video,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN_CLI = "import sys; from wm3d.cli import main; sys.exit(main())"


@pytest.fixture()
def workdir(tmp_path):
    clip = make_noise_clip(n=16)
    write_video(clip, tmp_path / "in.y4m")
    write_pgm(corpus_watermark(), tmp_path / "wm.pgm")
    return tmp_path


def _embed(workdir, *extra):
    return main(
        [
            "embed",
            "--in", str(workdir / "in.y4m"),
            "--wm", str(workdir / "wm.pgm"),
            "--key-out", str(workdir / "k.key"),
            "--out", str(workdir / "marked.y4m"),
            *extra,
        ]
    )


def test_embed_extract_flow(workdir, capsys):
    assert _embed(workdir) == 0
    out = capsys.readouterr().out
    assert "shot 0" in out
    code = main(
        [
            "extract",
            "--in", str(workdir / "marked.y4m"),
            "--key", str(workdir / "k.key"),
            "--out", str(workdir / "ext.pgm"),
            "--ref", str(workdir / "wm.pgm"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("aggregate:")][0]
    assert float(line.split("nc=")[1]) >= 0.95
    assert (workdir / "ext.pgm").exists()


def test_extract_mismatched_dims_exits_3(workdir, tmp_path):
    assert _embed(workdir) == 0
    small = VideoClip(frames=[np.zeros((64, 64), np.uint8)] * 16)
    write_video(small, tmp_path / "small.y4m")
    code = main(
        [
            "extract",
            "--in", str(tmp_path / "small.y4m"),
            "--key", str(workdir / "k.key"),
            "--out", str(tmp_path / "x.pgm"),
        ]
    )
    assert code == 3


def test_extract_huge_key_dims_exits_2(workdir, capsys):
    assert _embed(workdir) == 0
    key = workdir / "k.key"
    text = key.read_text().replace("wm_w=16", "wm_w=1000000")
    key.write_text(text.replace("wm_h=16", "wm_h=1000000"))
    capsys.readouterr()
    code = main(
        [
            "extract",
            "--in", str(workdir / "marked.y4m"),
            "--key", str(key),
            "--out", str(workdir / "x.pgm"),
        ]
    )
    assert code == 2
    assert "payload" in capsys.readouterr().err


def test_extract_key_with_short_shot_exits_2(workdir, capsys):
    assert _embed(workdir) == 0
    key = workdir / "k.key"
    key.write_text(key.read_text().replace("boundaries=0,16", "boundaries=0,3,16"))
    capsys.readouterr()
    code = main(
        [
            "extract",
            "--in", str(workdir / "marked.y4m"),
            "--key", str(key),
            "--out", str(workdir / "x.pgm"),
        ]
    )
    assert code == 2
    assert "selected shot 0 has 3 frames" in capsys.readouterr().err


def test_extract_key_selecting_no_shots_exits_2(workdir, capsys):
    assert _embed(workdir) == 0
    key = workdir / "k.key"
    header = key.read_text().split("shot=")[0]
    key.write_text(header.replace("selected=0\n", "selected=\n"))
    capsys.readouterr()
    code = main(
        [
            "extract",
            "--in", str(workdir / "marked.y4m"),
            "--key", str(key),
            "--out", str(workdir / "x.pgm"),
        ]
    )
    assert code == 2
    assert "selects no shots" in capsys.readouterr().err


def test_extract_key_claiming_a_million_frames_allocates_little(workdir, capsys):
    # the kept frames and the length repair follow the 16 frames received,
    # not the one shot of 10**6 frames the key claims
    assert _embed(workdir) == 0
    key = workdir / "k.key"
    key.write_text(key.read_text().replace("boundaries=0,16", "boundaries=0,1000000"))
    video = workdir / "marked.y4m"
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["extract", "--in", str(video), "--key", str(key),
                     "--out", str(workdir / "x.pgm")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "shot 0: extracted (length mismatch)\n"
    assert peak < 8 * 2**20


def test_capacity_error_exits_3(tmp_path):
    clip = VideoClip(frames=[np.full((288, 352), 99, np.uint8)] * 9)
    write_video(clip, tmp_path / "cif.y4m")
    write_pgm(np.zeros((42, 42), np.uint8), tmp_path / "wm42.pgm")
    code = main(
        [
            "embed",
            "--in", str(tmp_path / "cif.y4m"),
            "--wm", str(tmp_path / "wm42.pgm"),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "out.y4m"),
        ]
    )
    assert code == 3


def test_one_coefficient_subband_exits_3_and_writes_nothing(tmp_path, capsys):
    # 8x8 frames give a 1x1 subband, whose coefficient has no neighbor:
    # the realized signs would carry the mark in the key alone
    frames = np.random.RandomState(4).randint(0, 256, (9, 8, 8)).astype(np.uint8)
    write_video(VideoClip(frames=list(frames)), tmp_path / "tiny.y4m")
    write_pgm(np.full((1, 1), 200, np.uint8), tmp_path / "wm1.pgm")
    code = main(
        [
            "embed",
            "--in", str(tmp_path / "tiny.y4m"),
            "--wm", str(tmp_path / "wm1.pgm"),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "out.y4m"),
            "--shots", "0,9",
        ]
    )
    assert code == 3
    assert "subband too small" in capsys.readouterr().err
    assert not (tmp_path / "k.key").exists() and not (tmp_path / "out.y4m").exists()


def test_usage_error_exits_1(workdir):
    assert main(["embed", "--in", str(workdir / "in.y4m")]) == 1
    assert main([]) == 1


def test_missing_file_exits_2(tmp_path):
    code = main(
        ["psnr", str(tmp_path / "nope.y4m"), str(tmp_path / "nope2.y4m")]
    )
    assert code == 2


def test_malformed_video_exits_2(tmp_path):
    (tmp_path / "junk.y4m").write_bytes(b"not a video")
    code = main(["shots", "--in", str(tmp_path / "junk.y4m")])
    assert code == 2


def test_bad_offset_says_what_it_expects(workdir, capsys):
    assert _embed(workdir, "--offset", "1,2,3") == 1
    err = capsys.readouterr().err
    assert "expected ROW,COL, got '1,2,3'" in err
    assert "_parse_offset" not in err


def _two_shot_key() -> str:
    records = [ShotRecord(i, np.ones((8, 4, 4), np.int8)) for i in (0, 1)]
    bundle = KeyBundle(1, 2, 3, EmbedParams(), (0, 9, 18), records)
    sink = io.StringIO()
    write_key(bundle, sink)
    return sink.getvalue()


_KEY = _two_shot_key()
_EMBED = ["embed", "--in", "in.y4m", "--wm", "wm.pgm", "--key-out", "k.key",
          "--out", "out.y4m"]


_EXTRACT_BAD_KEY = ["extract", "--in", "in.y4m", "--key", "bad.key", "--out", "x.pgm"]


def _bad_key(*edits: str) -> tuple:
    """Key text with each old, new pair of `edits` replaced at once, so two
    pairs may swap text."""
    swap = dict(zip(edits[::2], edits[1::2]))
    assert all(old in _KEY for old in swap)
    text = re.sub("|".join(map(re.escape, swap)), lambda m: swap[m.group()], _KEY)
    return _EXTRACT_BAD_KEY, {"bad.key": text.encode()}


# name: (argv, files written first, exit code, a fragment of stderr);
# paths are relative to the working directory, which holds in.y4m and wm.pgm
_REJECTED = {
    "shots-repeated": (_EMBED + ["--shots", "0,8,8,16"], {}, 3,
                       "bad shot boundaries [0, 8, 8, 16]: they must be strictly increasing"),
    "shots-dash": (_EMBED + ["--shots", "0-8"], {}, 2, "bad --shots '0-8'"),
    "shots-trailing-comma": (_EMBED + ["--shots", "0,16,"], {}, 2, "bad --shots '0,16,'"),
    # an empty list is a bad list, not a request to detect the cuts
    "shots-empty": (_EMBED + ["--shots", ""], {}, 2, "bad --shots ''"),
    # only the text `wm3d shots` prints: digits only, no leading 0, no spaces
    "shots-spelled": (_EMBED + ["--shots", "0, 0_8 ,16"], {}, 2, "bad --shots '0, 0_8 ,16'"),
    "shots-leading-zero": (_EMBED + ["--shots", "0,08,16"], {}, 2, "bad --shots '0,08,16'"),
    # refused before the input is opened, so its cut frame is never read
    "select-fraction": (_EMBED + ["--in", "cut.y4m", "--select-fraction", "0"],
                        {"cut.y4m": b"YUV4MPEG2 W128 H128 F25:1 Cmono\nFRAME\n" + bytes(100)},
                        2, "fraction must be in (0, 1]"),
    # a bare "-1,0" would be read as an option; only the = form reaches the check
    "offset-negative": (_EMBED + ["--offset=-1,0"], {}, 2,
                        "region offset must be non-negative"),
    "bench-attack": (["bench", "--in", "in.y4m", "--wm", "wm.pgm", "--attacks", "bogus"],
                     {}, 2, "unknown attack 'bogus'"),
    "attack-type": (["attack", "--in", "in.y4m", "--out", "out.y4m", "--type", "bogus"],
                    {}, 2, "unknown attack 'bogus'"),
    "key-seed1": (*_bad_key("seed1=1\n", f"seed1={2**64}\n"), 2, "seed1 out of 64-bit range"),
    "key-seed1-sign": (*_bad_key("seed1=1\n", "seed1=-1\n"), 2, "seed1 out of 64-bit range"),
    "key-wm-w": (*_bad_key("wm_w=4\n", "wm_w=0\n"), 2, "dimensions must be positive"),
    "key-row0": (*_bad_key("row0=0\n", "row0=-1\n"), 2, "region offset must be non-negative"),
    "key-alpha": (*_bad_key("alpha=0.1\n", "alpha=1.0\n"), 2, "alpha 1.0 outside [0, 1)"),
    "key-short-shot": (*_bad_key("boundaries=0,9,18", "boundaries=0,8,18"), 2,
                       "fewer than the 9 a mark needs"),
    "key-band": (*_bad_key("band=lh3\n", "band=xx3\n"), 2, "unknown band 'xx3'"),
    # both shots' planes are equal, so renaming a block is moving it
    "key-unsorted": (*_bad_key("selected=0,1", "selected=1,0", "shot=0\n", "shot=1\n",
                               "shot=1\n", "shot=0\n"), 2, "sorted and unique"),
    "key-repeated": (*_bad_key("selected=0,1", "selected=0,0", "shot=1\n", "shot=0\n"), 2,
                     "sorted and unique"),
    # selected= repeats the shot blocks, so the round trip refuses it
    "key-selected-header": (*_bad_key("selected=0,1", "selected=1"), 2,
                            r"key line 12 is 'selected=1\n'; write_key writes 'selected=0,1\n'"),
    "key-junk-block": (*_bad_key("shot=1\n", "junk\n"), 2, "expected shot=..., got 'junk'"),
    "key-shot-index": (*_bad_key("shot=1\n", "shot=x\n"), 2, "bad shot value 'x'"),
    # a key is only the text write_key writes, so CRLF line ends are refused
    "key-crlf": (*_bad_key("\n", "\r\n"), 2,
                 r"key line 1 is 'WM3DKEY 1\r\n'; write_key writes 'WM3DKEY 1\n'"),
    "key-cut-after-alpha": (_EXTRACT_BAD_KEY,
                            {"bad.key": "".join(_KEY.splitlines(True)[:5]).encode()}, 2,
                            "expected wm_w=..., got ''"),
    # every video path is y4m, so the OS refuses a directory as one
    "embed-in-dir": (_EMBED + ["--in", "."], {}, 2, "Is a directory: '.'"),
    "embed-out-dir": (_EMBED + ["--out", "."], {}, 2, "Is a directory: '.'"),
    "extract-in-dir": (["extract", "--in", ".", "--key", "k.key", "--out", "x.pgm"],
                       {"k.key": _KEY.encode()}, 2, "Is a directory: '.'"),
    "extract-out-dir": (["extract", "--in", "in.y4m", "--key", "k.key", "--out", "."],
                        {"k.key": _KEY.encode()}, 2, "Is a directory: '.'"),
    "attack-in-dir": (["attack", "--in", ".", "--out", "out.y4m", "--type", "swap"], {}, 2,
                      "Is a directory: '.'"),
    "attack-out-dir": (["attack", "--in", "in.y4m", "--out", ".", "--type", "swap"], {}, 2,
                       "Is a directory: '.'"),
    "shots-in-dir": (["shots", "--in", "."], {}, 2, "Is a directory: '.'"),
    "y4m-odd-width": (["shots", "--in", "odd.y4m"],
                      {"odd.y4m": b"YUV4MPEG2 W5 H2 F25:1 C420\nFRAME\n" + bytes(14)},
                      2, "4:2:0 stream requires even dimensions"),
    "pgm-zero-width": (["nc", "zero.pgm", "wm.pgm"], {"zero.pgm": b"P5\n0 4\n255\n"},
                       2, "invalid PGM dimensions"),
    "key-out-over-in": (_EMBED + ["--key-out", "in.y4m"], {}, 1,
                        "--key-out and --in name the same file"),
    "key-out-over-out": (_EMBED + ["--key-out", "./out.y4m"], {}, 1,
                         "--key-out and --out name the same file"),
    "out-over-wm": (_EMBED + ["--wm", "wm.y4m", "--out", "wm.y4m"],
                    {"wm.y4m": b"P5\n8 8\n255\n" + bytes(64)}, 1,
                    "--out and --wm name the same file"),
    "extract-over-key": (["extract", "--in", "in.y4m", "--key", "k.key", "--out", "k.key"],
                         {"k.key": _KEY.encode()}, 1, "--out and --key name the same file"),
    "attack-over-original": (["attack", "--in", "in.y4m", "--out", "in.y4m", "--type", "drop",
                              "--original", "in.y4m"], {}, 1,
                             "--out and --original name the same file"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_rejected_input_exits_with_its_code(workdir, capsys, monkeypatch, name):
    argv, files, code, fragment = _REJECTED[name]
    for file_name, data in files.items():
        (workdir / file_name).write_bytes(data)
    monkeypatch.chdir(workdir)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


def test_attack_subcommands(workdir, tmp_path):
    assert _embed(workdir) == 0
    marked = str(workdir / "marked.y4m")
    for extra in (
        ["--type", "drop", "--original", str(workdir / "in.y4m")],
        ["--type", "average"],
        ["--type", "swap"],
        ["--type", "compress:60"],
        ["--type", "noise:1.5", "--seed", "5"],
    ):
        out = tmp_path / f"att_{extra[1]}.y4m"
        assert main(["attack", "--in", marked, "--out", str(out), *extra]) == 0
        assert read_video(out).frame_count == 16


@pytest.mark.parametrize("extra, attack", [
    (["--type", "compress:60"], lambda clip: attack_compress(clip, 60)),
    (["--type", "noise:1.5", "--seed", "5"], lambda clip: attack_noise(clip, 1.5, 5)),
], ids=["compress", "noise"])
def test_attack_spec_writes_what_the_library_attack_writes(workdir, extra, attack):
    out, want = workdir / "out.y4m", io.BytesIO()
    assert main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(out), *extra]) == 0
    write_video(attack(read_video(workdir / "in.y4m")), want)
    assert out.read_bytes() == want.getvalue()


# Both commands take an attack spec through one parser, so a bad one is
# refused in the same words, before any output (_REJECTED holds 'bogus')
@pytest.mark.parametrize("spec, message", [
    ("swap:5", "attack 'swap' takes no parameter, got 'swap:5'"),
    ("compress:x", "bad compress parameter 'x'"),
    ("compress:", "bad compress parameter ''"),
    ("noise:", "bad noise parameter ''"),
])
@pytest.mark.parametrize("command", ["attack", "bench"])
def test_a_bad_attack_spec_fails_alike_in_both_commands(workdir, capsys, command, spec,
                                                        message):
    out = workdir / "out.y4m"
    argv = {"attack": ["--out", str(out), "--type", spec],
            "bench": ["--wm", str(workdir / "wm.pgm"), "--attacks", f"swap,{spec}"]}
    assert main([command, "--in", str(workdir / "in.y4m"), *argv[command]]) == 2
    assert capsys.readouterr() == ("", f"wm3d: {message}\n")
    assert not out.exists()


# A --shots list and an attack value are held to their rules before any
# input is opened, so a missing --in is not what the refusal names
@pytest.mark.parametrize("shots, code, message", [
    ("0,8,8,16", 3, "bad shot boundaries [0, 8, 8, 16]: they must be strictly increasing"),
    ("5,16", 3, "bad shot boundaries [5, 16]: they must run from 0"),
    ("0:8,8:16", 2, "bad --shots '0:8,8:16', expected a list 0,B1,...,N"),
])
def test_a_bad_shot_list_is_refused_before_the_input_is_read(tmp_path, capsys, shots, code,
                                                             message):
    argv = ["embed", "--in", str(tmp_path / "missing.y4m"), "--wm", str(tmp_path / "wm.pgm"),
            "--key-out", str(tmp_path / "k.key"), "--out", str(tmp_path / "out.y4m")]
    assert main(argv + ["--shots", shots]) == code
    assert capsys.readouterr() == ("", f"wm3d: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["compress:0", "compress:101", "noise:nan", "noise:-1"])
@pytest.mark.parametrize("command", ["attack", "bench"])
def test_a_bad_attack_value_is_refused_before_the_input_is_read(tmp_path, capsys, command,
                                                                spec):
    out = tmp_path / "out.y4m"
    argv = {"attack": ["--out", str(out), "--type", spec],
            "bench": ["--wm", str(tmp_path / "wm.pgm"), "--attacks", f"swap,{spec}"]}
    assert main([command, "--in", str(tmp_path / "missing.y4m"), *argv[command]]) == 2
    name, _, value = spec.partition(":")
    assert capsys.readouterr() == ("", f"wm3d: bad {name} parameter {value!r}\n")
    assert list(tmp_path.iterdir()) == []


# Every bad value is refused before any input is read, so an --in that
# never ends (a FIFO nothing writes) is not reached.
_BAD_VALUES = [
    ["embed", "--select-fraction", "0"],
    ["embed", "--shot-threshold", "0"],
    ["embed", "--alpha", "2"],
    ["embed", "--seed1", "-1"],
    ["attack", "--type", "noise", "--seed", "-1"],
    ["bench", "--seed1", "-1"],
    ["bench", "--seed", "-1"],
    ["bench", "--alphas", "0.1,abc"],
]
_BAD_VALUE_IDS = ["-".join(a.strip("-") for a in argv) for argv in _BAD_VALUES]
_BAD_VALUE_FILES = {"embed": ["--wm", "wm.pgm", "--key-out", "k.key", "--out", "out.y4m"],
                    "attack": ["--out", "out.y4m"], "bench": ["--wm", "wm.pgm"]}


@pytest.mark.parametrize("argv", _BAD_VALUES, ids=_BAD_VALUE_IDS)
def test_a_bad_value_is_refused_before_the_input_is_read(tmp_path, capsys, monkeypatch,
                                                         argv):
    def read_video(source):
        raise AssertionError(f"{source} was read")

    monkeypatch.setattr(cli, "read_video", read_video)
    command, *extra = argv
    files = [a if a.startswith("--") else str(tmp_path / a) for a in _BAD_VALUE_FILES[command]]
    assert main([command, "--in", str(tmp_path), *files, *extra]) == 2
    assert capsys.readouterr().err.startswith("wm3d: ")
    assert list(tmp_path.iterdir()) == []


# The same refusals with a real FIFO as --in, in a child: a command that
# opened the FIFO first would block there until the timeout fails the test.
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("argv", _BAD_VALUES, ids=_BAD_VALUE_IDS)
def test_a_bad_value_is_refused_before_a_fifo_input_is_opened(tmp_path, argv):
    os.mkfifo(tmp_path / "never.y4m")
    write_pgm(corpus_watermark(), tmp_path / "wm.pgm")
    command, *extra = argv
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, command, "--in", "never.y4m",
         *_BAD_VALUE_FILES[command], *extra],
        cwd=tmp_path, capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(b"wm3d: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["never.y4m", "wm.pgm"]


def test_attack_parameter_options_are_gone(workdir, capsys):
    code = main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(workdir / "out.y4m"),
                 "--type", "compress", "--quality", "60"])
    assert code == 1
    assert "unrecognized arguments: --quality 60" in capsys.readouterr().err
    assert not (workdir / "out.y4m").exists()


def test_attack_refuses_an_input_whose_header_it_cannot_write_back(tmp_path, capsys):
    # no C token, so the writer would add " C420jpeg" past the reader's cap
    line = b"YUV4MPEG2 W16 H16 F25:1 X".ljust(4096, b"x")
    (tmp_path / "in.y4m").write_bytes(line + b"\n" + (b"FRAME\n" + bytes(384)) * 3)
    out = tmp_path / "out.y4m"
    assert read_video(tmp_path / "in.y4m").frame_count == 3
    assert main(["attack", "--in", str(tmp_path / "in.y4m"), "--out", str(out),
                 "--type", "swap"]) == 2
    assert "y4m header line too long" in capsys.readouterr().err
    assert not out.exists()


def _frames_dir(workdir):
    """A directory holding PGM frames: a video path that names it is refused."""
    out = workdir / "frames"
    out.mkdir()
    for k in range(3):
        write_pgm(np.full((16, 16), k, np.uint8), out / f"frame_{k + 1:06d}.pgm")
    return out, {p.name: p.read_bytes() for p in out.iterdir()}


def test_attack_into_a_directory_holding_frames_exits_2(workdir, capsys):
    out, before = _frames_dir(workdir)
    code = main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(out),
                 "--type", "swap"])
    assert code == 2
    assert f"Is a directory: '{out}'" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_embed_into_a_directory_holding_frames_leaves_no_key(workdir, capsys):
    out, before = _frames_dir(workdir)
    code = main(["embed", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--key-out", str(workdir / "k.key"), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Is a directory: '{out}'" in captured.err
    assert not (workdir / "k.key").exists()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_refused_video_leaves_an_earlier_key_unchanged(workdir, capsys):
    assert _embed(workdir) == 0
    key = (workdir / "k.key").read_bytes()
    out, before = _frames_dir(workdir)
    capsys.readouterr()
    assert _embed(workdir, "--out", str(out), "--alpha", "0.2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Is a directory: '{out}'" in captured.err
    assert (workdir / "k.key").read_bytes() == key
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_attack_to_any_name_writes_y4m(tmp_path):
    # a 4:2:0 clip at 30000:1001 keeps its chroma and rate under an --out
    # not named *.y4m: every video path is y4m, with the bytes *.y4m gets
    rs = np.random.RandomState(21)
    frames = [rs.randint(0, 256, (16, 16)).astype(np.uint8) for _ in range(6)]
    clip = VideoClip(frames, (30000, 1001), "420jpeg", [rs.bytes(128) for _ in frames])
    write_video(clip, tmp_path / "in.y4m")
    for name in ("x.yuv", "x.y4m"):
        assert main(["attack", "--in", str(tmp_path / "in.y4m"), "--out", str(tmp_path / name),
                     "--type", "average"]) == 0
    got, want = read_video(tmp_path / "x.yuv"), attack_average(clip)
    assert got.rate == clip.rate and got.chroma == clip.chroma == want.chroma
    assert all(np.array_equal(a, b) for a, b in zip(got.frames, want.frames))
    assert (tmp_path / "x.yuv").read_bytes() == (tmp_path / "x.y4m").read_bytes()


def test_a_key_file_is_rewritten_whole(workdir):
    (workdir / "k.key").write_text("x" * 100_000)  # longer than the key
    assert _embed(workdir) == 0
    bundle = wm3d.read_key(workdir / "k.key")  # through the package's export
    assert bundle.params == EmbedParams() and bundle.selected == (0,)


def test_embed_to_a_refused_key_path_leaves_no_video(workdir, capsys):
    out = workdir / "marked.y4m"
    code = main(["embed", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--key-out", str(workdir / "missing" / "k.key"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_an_output_over_an_input_is_refused_before_anything_is_written(workdir, capsys):
    assert _embed(workdir) == 0
    os.link(workdir / "k.key", workdir / "linked.key")  # one file under two names
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    capsys.readouterr()
    assert _embed(workdir, "--key-out", str(workdir / "in.y4m"),
                  "--out", str(workdir / "new.y4m")) == 1
    assert main(["extract", "--in", str(workdir / "marked.y4m"), "--key",
                 str(workdir / "k.key"), "--out", str(workdir / "linked.key")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--key-out and --in" in captured.err and "--out and --key" in captured.err
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_embed_over_its_input_equals_a_separate_output(workdir, capsys):
    assert _embed(workdir) == 0
    want = capsys.readouterr().out
    video = workdir / "same.y4m"
    video.write_bytes((workdir / "in.y4m").read_bytes())
    code = main(["embed", "--in", str(video), "--wm", str(workdir / "wm.pgm"),
                 "--key-out", str(workdir / "same.key"), "--out", str(video)])
    assert code == 0
    assert capsys.readouterr().out == want
    assert video.read_bytes() == (workdir / "marked.y4m").read_bytes()
    assert (workdir / "same.key").read_bytes() == (workdir / "k.key").read_bytes()


def test_embed_from_pipe_equals_file(workdir, capsys):
    assert _embed(workdir) == 0
    want = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "embed", "--in", "/dev/stdin",
         "--wm", str(workdir / "wm.pgm"), "--key-out", str(workdir / "pipe.key"),
         "--out", str(workdir / "pipe.y4m")],
        input=(workdir / "in.y4m").read_bytes(),
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == want
    assert (workdir / "pipe.y4m").read_bytes() == (workdir / "marked.y4m").read_bytes()
    assert (workdir / "pipe.key").read_bytes() == (workdir / "k.key").read_bytes()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_attack_noise_non_finite_sigma_exits_2(workdir, tmp_path, sigma):
    out = tmp_path / "noisy.y4m"
    code = main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(out),
                 "--type", f"noise:{sigma}"])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64 + 5)])
def test_attack_noise_seed_outside_64_bits_exits_2(workdir, tmp_path, seed):
    out = tmp_path / "noisy.y4m"
    code = main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(out),
                 "--type", "noise", "--seed", seed])
    assert code == 2
    assert not out.exists()


def test_bench_noise_seed_outside_64_bits_exits_2(workdir):
    code = main(["bench", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--alphas", "0.1", "--attacks", "noise:2", "--seed", "-1"])
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--attacks", "swap,noise:2", "--seed", "-1"],
        ["--alphas", "0.1,1.5"],
        ["--attacks", "swap,compress:0"],
        ["--attacks", "swap,noise:nan"],
        ["--attacks", "swap", "--seed1", "-1"],
        ["--attacks", "drop:5,swap"],
    ],
    ids=["noise-seed", "alpha", "quality", "sigma", "key-seed", "drop-param"],
)
def test_bench_checks_arguments_before_any_output(workdir, capsys, extra):
    code = main(["bench", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 *extra])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_bench_names_the_attack_and_value_it_cannot_parse(workdir, capsys):
    for option, value, message in [("--attacks", "compress:1e3", "bad compress parameter '1e3'"),
                                   ("--attacks", "swap,noise:abc", "bad noise parameter 'abc'"),
                                   ("--alphas", "0.1,abc", "bad --alphas value 'abc'"),
                                   ("--alphas", "", "bad --alphas value ''")]:
        code = main(["bench", "--in", str(workdir / "in.y4m"),
                     "--wm", str(workdir / "wm.pgm"), option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"wm3d: {message}\n"


def test_bench_with_an_all_zero_mark_prints_no_table(workdir, capsys):
    write_pgm(np.zeros_like(corpus_watermark()), workdir / "zero.pgm")
    code = main(["bench", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "zero.pgm"),
                 "--alphas", "0.1", "--attacks", "swap"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_bench_refused_by_a_later_attack_prints_no_rows(workdir, capsys, monkeypatch):
    def swap_refusing_pixels(clip, original, param, seed):
        if clip.frames[0].size:
            raise ValueError("swap refuses this clip")
        return clip

    monkeypatch.setitem(cli._ATTACKS, "swap", cli._Attack(swap_refusing_pixels))
    code = main(["bench", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--alphas", "0.1", "--attacks", "drop,swap"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "wm3d: swap refuses this clip\n"


def test_attack_drop_requires_original(workdir):
    assert _embed(workdir) == 0
    code = main(
        [
            "attack",
            "--in", str(workdir / "marked.y4m"),
            "--out", str(workdir / "z.y4m"),
            "--type", "drop",
        ]
    )
    assert code == 2


def test_psnr_and_nc_output(workdir, capsys):
    assert main(["psnr", str(workdir / "in.y4m"), str(workdir / "in.y4m")]) == 0
    assert capsys.readouterr().out.strip() == "inf"
    assert main(["nc", str(workdir / "wm.pgm"), str(workdir / "wm.pgm")]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


_TWO_SHOTS = VideoClip([np.zeros((16, 16), np.uint8)] * 10
                       + [np.full((16, 16), 255, np.uint8)] * 10)


def test_shots_output(tmp_path, capsys):
    write_video(_TWO_SHOTS, tmp_path / "two.y4m")
    assert main(["shots", "--in", str(tmp_path / "two.y4m")]) == 0
    assert capsys.readouterr().out.strip() == "0,10,20"


def test_shots_from_a_pipe_prints_what_a_file_prints(tmp_path):
    write_video(_TWO_SHOTS, tmp_path / "two.y4m")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "shots", "--in", "/dev/stdin"],
        input=(tmp_path / "two.y4m").read_bytes(),
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"0,10,20\n"


def test_manual_shot_override(workdir, capsys):
    assert _embed(workdir, "--shots", "0,16") == 0
    capsys.readouterr()
    bad = _embed(workdir, "--shots", "0,10")
    assert bad == 3  # the boundaries must end at the frame count


def test_embed_deterministic_bytes(workdir, tmp_path):
    assert _embed(workdir) == 0
    first = (workdir / "marked.y4m").read_bytes()
    first_key = (workdir / "k.key").read_bytes()
    assert _embed(workdir) == 0
    assert (workdir / "marked.y4m").read_bytes() == first
    assert (workdir / "k.key").read_bytes() == first_key


def test_bench_csv(workdir, capsys):
    code = main(
        [
            "bench",
            "--in", str(workdir / "in.y4m"),
            "--wm", str(workdir / "wm.pgm"),
            "--alphas", "0.1",
            "--attacks", "swap,compress:75",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("alpha,attack,parameter,nc,psnr_db")
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["none", "swap", "compress"]
    assert rows[2][2] == "75"
    for r in rows:
        float(r[3])  # NC parses


def test_band_escape_hatch(workdir, capsys):
    assert _embed(workdir, "--band", "hl3") == 0
    capsys.readouterr()
    code = main(
        [
            "extract",
            "--in", str(workdir / "marked.y4m"),
            "--key", str(workdir / "k.key"),
            "--out", str(workdir / "e.pgm"),
            "--ref", str(workdir / "wm.pgm"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("aggregate:")][0]
    assert float(line.split("nc=")[1]) >= 0.95


def test_every_key_band_embeds_and_extracts(workdir, capsys):
    # hh3 and ll3 are key-file bands too, so the CLI must offer them
    for band in ("hh3", "ll3"):
        assert _embed(workdir, "--band", band) == 0
        assert f"band={band}" in (workdir / "k.key").read_text()
        capsys.readouterr()
        code = main(
            [
                "extract",
                "--in", str(workdir / "marked.y4m"),
                "--key", str(workdir / "k.key"),
                "--out", str(workdir / "e.pgm"),
                "--ref", str(workdir / "wm.pgm"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("aggregate:")][0]
        assert float(line.split("nc=")[1]) >= 0.95


def test_huge_header_short_file_exits_2(tmp_path, capsys):
    video = tmp_path / "huge.y4m"
    video.write_bytes(b"YUV4MPEG2 W200000 H200000 F25:1 Cmono\nFRAME\nabc")
    assert main(["shots", "--in", str(video)]) == 2
    image = tmp_path / "huge.pgm"
    image.write_bytes(b"P5\n200000 200000\n255\nabc")
    assert main(["nc", str(image), str(image)]) == 2
    assert capsys.readouterr().err.count("truncated") == 2


def test_cli_import_loads_no_scipy():
    # scipy's import alone costs more than an extract; only the compress
    # oracle in tests/ may use it. attack_compress's thread pool and the
    # noise quantiles' NormalDist import theirs when called, so no CLI start
    # pays for concurrent.futures or statistics either.
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import wm3d, wm3d.cli, sys; "
            "loaded = {'scipy', 'concurrent.futures', 'statistics'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_the_console_script_is_cli_main(capsys):
    # an install adds only this name-to-function line; every check of what
    # the function does runs through main here
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['wm3d = "wm3d.cli:main"']
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wm3d ")


# --- extract streams the key's shots -----------------------------------------

# Four shots; under seed3 = 2 half of them carry the mark: shots 1 and 3,
# so the key's first shot is unselected. Frames 9..20 and 31..41 are read.
STREAM_BOUNDARIES = [0, 9, 21, 31, 42]
STREAM_KEPT = [*range(9, 21), *range(31, 42)]
# received clip -> frames it holds (whole or cut short)
STREAM_CASES = {
    "mono": 42,
    "420": 42,
    "short": 39,  # shot 3 cut short: repaired
    "long": 47,  # 5 frames past the key's end
    "past-end": 25,  # shot 3 starts past the end: exit 3
    "truncated-skipped": 47,  # "long" with its last, skipped, frame cut: exit 2
}


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream")
    clip = make_flat_noise_clip(42, 128.0, h=64, w=64)
    wm = np.random.RandomState(8).randint(0, 256, (6, 6)).astype(np.uint8)
    marked, bundle = embed_clip(
        clip, wm, SEED1, SEED2, 2, boundaries=STREAM_BOUNDARIES, fraction=0.5
    )
    assert bundle.selected == (1, 3)
    write_key(bundle, d / "k.key")
    write_pgm(wm, d / "wm.pgm")
    rs = np.random.RandomState(9)
    frames = marked.frames + [
        rs.randint(0, 256, (64, 64)).astype(np.uint8) for _ in range(5)
    ]
    for name, count in STREAM_CASES.items():
        mono = name == "mono"
        write_video(
            VideoClip(
                frames=frames[:count],
                chroma_token=None if mono else "420jpeg",
                chroma=None if mono else [rs.bytes(2048) for _ in range(count)],
            ),
            d / f"{name}.y4m",
        )
    cut = d / "truncated-skipped.y4m"
    cut.write_bytes(cut.read_bytes()[:-100])
    return d


def _extract_argv(d, video, name):
    return ["extract", "--in", video, "--key", str(d / "k.key"),
            "--out", str(d / f"{name}.pgm"), "--ref", str(d / "wm.pgm")]


def _in_memory(d, name):
    """(exit code, stdout or error, PGM bytes) of the in-memory path."""
    try:
        clip = read_video(d / f"{name}.y4m")
        result = extract_clip(clip, read_key(d / "k.key"), read_pgm(d / "wm.pgm"))
    except GeometryError as exc:
        return 3, str(exc), None
    except FormatError as exc:
        return 2, str(exc), None
    lines = [
        f"shot {s.shot_index}: nc={s.nc:.4f}"
        + (" (length mismatch)" if s.length_mismatch else "")
        for s in result.shots
    ]
    lines.append(f"aggregate: nc={result.nc:.4f}")
    buf = io.BytesIO()
    write_pgm(result.watermark, buf)
    return 0, "\n".join(lines) + "\n", buf.getvalue()


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_extract_from_file_decodes_only_key_shots(
    stream_dir, name, capsys, monkeypatch
):
    reads = []
    read_array = media_io._read_array

    def counting(stream, size, what):
        reads.append(what)
        return read_array(stream, size, what)

    monkeypatch.setattr(media_io, "_read_array", counting)
    code = main(_extract_argv(stream_dir, str(stream_dir / f"{name}.y4m"), name))
    decoded = reads.count("frame payload")
    want_code, want_out, want_pgm = _in_memory(stream_dir, name)
    out, err = capsys.readouterr()
    assert code == want_code
    if want_pgm is None:
        assert want_out in err
    else:
        assert out == want_out
        assert (stream_dir / f"{name}.pgm").read_bytes() == want_pgm
    # one luma read per kept frame that arrived; no chroma read at all
    kept = sum(k < STREAM_CASES[name] for k in STREAM_KEPT)
    assert decoded == kept


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_extract_from_pipe_equals_in_memory(stream_dir, name):
    # a pipe cannot seek: skipped payloads are read and dropped
    argv = _extract_argv(stream_dir, "/dev/stdin", f"{name}-pipe")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *argv],
        input=(stream_dir / f"{name}.y4m").read_bytes(),
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    want_code, want_out, want_pgm = _in_memory(stream_dir, name)
    assert proc.returncode == want_code, proc.stderr
    if want_pgm is None:
        assert want_out in proc.stderr.decode()
    else:
        assert proc.stdout.decode() == want_out
        assert (stream_dir / f"{name}-pipe.pgm").read_bytes() == want_pgm


def test_extract_from_an_empty_directory_exits_2(stream_dir, tmp_path, capsys):
    assert main(_extract_argv(stream_dir, str(tmp_path), "empty")) == 2
    assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
    assert not (stream_dir / "empty.pgm").exists()
