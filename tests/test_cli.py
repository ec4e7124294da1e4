import io
import os
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
from wm3d import media_io
from wm3d.cli import main
from wm3d.embed import embed_clip
from wm3d.errors import FormatError, GeometryError
from wm3d.extract import extract_clip
from wm3d.keyfile import KeyBundle, ShotRecord, read_key, write_key
from wm3d.media_io import (
    VideoClip,
    read_pgm,
    read_y4m,
    write_pgm,
    write_pgm_sequence,
    write_y4m,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN_CLI = "import sys; from wm3d.cli import main; sys.exit(main())"


@pytest.fixture()
def workdir(tmp_path):
    clip = make_noise_clip(n=16)
    write_y4m(clip, tmp_path / "in.y4m")
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
    write_y4m(small, tmp_path / "small.y4m")
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


@pytest.mark.parametrize("source", ["y4m", "pgm-dir"])
def test_extract_key_claiming_a_million_frames_allocates_little(
    workdir, capsys, source
):
    # the kept frames and the length repair follow the 16 frames received,
    # not the one shot of 10**6 frames the key claims
    assert _embed(workdir) == 0
    key = workdir / "k.key"
    key.write_text(key.read_text().replace("boundaries=0,16", "boundaries=0,1000000"))
    video = workdir / "marked.y4m"
    if source == "pgm-dir":
        write_pgm_sequence(read_y4m(video), workdir / "frames")
        video = workdir / "frames"
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
    write_y4m(clip, tmp_path / "cif.y4m")
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
    write_y4m(VideoClip(frames=list(frames)), tmp_path / "tiny.y4m")
    write_pgm(np.full((1, 1), 200, np.uint8), tmp_path / "wm1.pgm")
    code = main(
        [
            "embed",
            "--in", str(tmp_path / "tiny.y4m"),
            "--wm", str(tmp_path / "wm1.pgm"),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "out.y4m"),
            "--shots", "0:9",
        ]
    )
    assert code == 3
    assert "subband too small" in capsys.readouterr().err
    assert not (tmp_path / "k.key").exists() and not (tmp_path / "out.y4m").exists()


def test_usage_error_exits_1(workdir):
    assert main(["embed", "--in", str(workdir / "in.y4m")]) == 1
    assert main(["attack", "--in", "x", "--out", "y", "--type", "bogus"]) == 1
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
    bundle = KeyBundle(1, 2, 3, 0.1, 4, 4, boundaries=(0, 9, 18), selected=(0, 1),
                       records=records)
    sink = io.StringIO()
    write_key(bundle, sink)
    return sink.getvalue()


_KEY = _two_shot_key()
_EMBED = ["embed", "--in", "in.y4m", "--wm", "wm.pgm", "--key-out", "k.key",
          "--out", "out.y4m"]


def _bad_key(old: str, new: str) -> tuple:
    assert old in _KEY
    argv = ["extract", "--in", "in.y4m", "--key", "bad.key", "--out", "x.pgm"]
    return argv, {"bad.key": _KEY.replace(old, new).encode()}


# name: (argv, files written first, exit code, a fragment of stderr);
# paths are relative to the working directory, which holds in.y4m and wm.pgm
_REJECTED = {
    "shots-gap": (_EMBED + ["--shots", "0:8,9:16"], {}, 3, "expected start 8, got 9"),
    "shots-dash": (_EMBED + ["--shots", "0-8"], {}, 2, "bad shot span '0-8'"),
    "shots-trailing-comma": (_EMBED + ["--shots", "0:16,"], {}, 2, "bad shot span ''"),
    # a bare "-1,0" would be read as an option; only the = form reaches the check
    "offset-negative": (_EMBED + ["--offset=-1,0"], {}, 2,
                        "region offset must be non-negative"),
    "bench-attack": (["bench", "--in", "in.y4m", "--wm", "wm.pgm", "--attacks", "bogus"],
                     {}, 2, "unknown attack 'bogus'"),
    "key-seed1": (*_bad_key("seed1=1\n", "seed1=-1\n"), 2, "seed1 out of 64-bit range"),
    "key-wm-w": (*_bad_key("wm_w=4\n", "wm_w=0\n"), 2, "dimensions must be positive"),
    "key-row0": (*_bad_key("row0=0\n", "row0=-1\n"), 2, "offset must be non-negative"),
    "key-alpha": (*_bad_key("alpha=0.1\n", "alpha=1.0\n"), 2, "alpha 1.0 outside [0, 1)"),
    "key-short-shot": (*_bad_key("boundaries=0,9,18", "boundaries=0,8,18"), 2,
                       "fewer than the 9 a mark needs"),
    "key-unsorted": (*_bad_key("selected=0,1", "selected=1,0"), 2, "sorted and unique"),
    "key-repeated": (*_bad_key("selected=0,1", "selected=0,0"), 2, "sorted and unique"),
    "key-junk-block": (*_bad_key("shot=1\n", "junk\n"), 2, "expected shot block, got 'junk'"),
    "y4m-odd-width": (["shots", "--in", "odd.y4m"],
                      {"odd.y4m": b"YUV4MPEG2 W5 H2 F25:1 C420\nFRAME\n" + bytes(14)},
                      2, "4:2:0 stream requires even dimensions"),
    "pgm-zero-width": (["nc", "zero.pgm", "wm.pgm"], {"zero.pgm": b"P5\n0 4\n255\n"},
                       2, "invalid PGM dimensions"),
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
        ["--type", "compress", "--quality", "60"],
        ["--type", "noise", "--sigma", "1.5", "--seed", "5"],
    ):
        out = tmp_path / f"att_{extra[1]}.y4m"
        assert main(["attack", "--in", marked, "--out", str(out), *extra]) == 0
        assert read_y4m(out).frame_count == 16


def test_attack_into_a_directory_holding_frames_exits_2(workdir, capsys):
    out = workdir / "frames"
    write_pgm_sequence(make_noise_clip(n=20, h=16, w=16), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["attack", "--in", str(workdir / "in.y4m"), "--out", str(out),
                 "--type", "swap"])
    assert code == 2
    assert f"{out} already holds PGM frames" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_embed_into_a_directory_holding_frames_leaves_no_key(workdir, capsys):
    out = workdir / "frames"
    write_pgm_sequence(make_noise_clip(n=2, h=16, w=16), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["embed", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--key-out", str(workdir / "k.key"), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{out} already holds PGM frames" in captured.err
    assert not (workdir / "k.key").exists()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_refused_video_leaves_an_earlier_key_unchanged(workdir, capsys):
    out = str(workdir / "frames")
    assert _embed(workdir, "--out", out) == 0
    key = (workdir / "k.key").read_bytes()
    capsys.readouterr()
    assert _embed(workdir, "--out", out, "--alpha", "0.2") == 2  # frames/ is not empty now
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{out} already holds PGM frames" in captured.err
    assert (workdir / "k.key").read_bytes() == key


def test_a_key_file_is_rewritten_whole(workdir):
    (workdir / "k.key").write_text("x" * 100_000)  # longer than the key
    assert _embed(workdir) == 0
    assert read_key(workdir / "k.key").selected


def test_embed_to_a_refused_key_path_leaves_no_video(workdir, capsys):
    out = workdir / "marked.y4m"
    code = main(["embed", "--in", str(workdir / "in.y4m"), "--wm", str(workdir / "wm.pgm"),
                 "--key-out", str(workdir / "missing" / "k.key"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


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
                 "--type", "noise", "--sigma", sigma])
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


def test_shots_output(tmp_path, capsys):
    frames = [np.zeros((16, 16), np.uint8)] * 10 + [
        np.full((16, 16), 255, np.uint8)
    ] * 10
    write_y4m(VideoClip(frames=frames), tmp_path / "two.y4m")
    assert main(["shots", "--in", str(tmp_path / "two.y4m")]) == 0
    assert capsys.readouterr().out.strip() == "0,10,20"


def test_manual_shot_override(workdir, capsys):
    assert _embed(workdir, "--shots", "0:16") == 0
    capsys.readouterr()
    bad = _embed(workdir, "--shots", "0:10")
    assert bad == 3  # spans must tile the clip


def test_pgm_directory_flow(workdir, tmp_path, capsys):
    clip = read_y4m(workdir / "in.y4m")
    from wm3d.media_io import write_pgm_sequence

    write_pgm_sequence(clip, tmp_path / "frames")
    code = main(
        [
            "embed",
            "--in", str(tmp_path / "frames"),
            "--wm", str(workdir / "wm.pgm"),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "marked_frames"),
        ]
    )
    assert code == 0
    assert len(list((tmp_path / "marked_frames").glob("*.pgm"))) == 16


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
    # oracle in tests/ may use it
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import wm3d, wm3d.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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
        write_y4m(
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
        clip = read_y4m(d / f"{name}.y4m")
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


# the STREAM_CASES a directory of PGM frames can hold
DIR_CASES = ["long", "mono", "past-end", "short"]


@pytest.mark.parametrize("name", DIR_CASES)
def test_extract_from_pgm_directory_opens_only_key_frames(
    stream_dir, name, tmp_path, capsys, monkeypatch
):
    frames = tmp_path / "frames"
    write_pgm_sequence(read_y4m(stream_dir / f"{name}.y4m"), frames)
    opened = []
    real_open = media_io._open

    def counting(source, mode):
        opened.append(isinstance(source, Path) and source.parent == frames)
        return real_open(source, mode)

    monkeypatch.setattr(media_io, "_open", counting)
    code = main(_extract_argv(stream_dir, str(frames), f"{name}-dir"))
    want_code, want_out, want_pgm = _in_memory(stream_dir, name)
    out, err = capsys.readouterr()
    assert code == want_code
    if want_pgm is None:
        assert want_out in err
    else:
        assert out == want_out
        assert (stream_dir / f"{name}-dir.pgm").read_bytes() == want_pgm
    assert sum(opened) == sum(k < STREAM_CASES[name] for k in STREAM_KEPT)


def test_extract_from_pgm_directory_checks_kept_frame_sizes(stream_dir, tmp_path, capsys):
    frames = tmp_path / "frames"
    write_pgm_sequence(read_y4m(stream_dir / "mono.y4m"), frames)
    write_pgm(np.zeros((32, 32), np.uint8), frames / "frame_000001.pgm")  # frame 0: skipped
    argv = _extract_argv(stream_dir, str(frames), "resized")
    assert main(argv) == 0
    assert capsys.readouterr().out == _in_memory(stream_dir, "mono")[1]
    write_pgm(np.zeros((32, 32), np.uint8), frames / "frame_000013.pgm")  # frame 12: kept
    assert main(argv) == 2
    assert "frame 12 is (32, 32), frame 9 is (64, 64)" in capsys.readouterr().err


def test_extract_from_an_empty_directory_exits_2(stream_dir, tmp_path, capsys):
    assert main(_extract_argv(stream_dir, str(tmp_path), "empty")) == 2
    assert "no PGM frames found" in capsys.readouterr().err
