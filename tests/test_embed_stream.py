"""The streaming embed against the whole-clip reference.

`wm3d embed` reads a y4m file twice, holding one shot, and holds a pipe
or the file --out rewrites whole; embed_clip runs the same two passes
over a clip in memory. Each must write the frames and key bytes of
oracles.embed_clip_whole, which holds the clip and detects shots over it.
"""

import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest

from oracles import embed_clip_whole
from wm3d import embed as embed_module
from wm3d.cli import main
from wm3d.embed import embed_clip, embed_video
from wm3d.keyfile import EmbedParams, write_key
from wm3d.media_io import (
    VideoClip,
    open_video,
    write_pgm,
    write_video,
)
from wm3d.shots import detect_shots

SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN_CLI = "import sys; from wm3d.cli import main; sys.exit(main())"

# Every shot length from 9 to 33 in a keyed order, and one shot too short
# to embed into; alternate shots are dark and bright, so each start is a cut.
SHOTS = tuple(int(n) for n in np.random.RandomState(5).permutation(np.arange(9, 34)))
SHOTS = SHOTS[:6] + (5,) + SHOTS[6:]
SIZE = 32  # frames of 32x32: a level-3 subband of 4x4 coefficients
WM = np.arange(6, dtype=np.uint8).reshape(3, 2) * 40


def _frames(shots, seed=3, size=SIZE):
    rs = np.random.RandomState(seed)
    levels = np.repeat([(64, 192)[k % 2] for k in range(len(shots))], shots)
    return [rs.randint(lv - 30, lv + 30, (size, size)).astype(np.uint8) for lv in levels]


def _clip(kind) -> VideoClip:
    frames = _frames(SHOTS)
    if kind == "mono":
        return VideoClip(frames)
    rs = np.random.RandomState(4)
    chroma = [rs.randint(0, 256, SIZE * SIZE // 2).astype(np.uint8).tobytes() for _ in frames]
    return VideoClip(frames, (30000, 1001), "420jpeg", chroma, ("Ip",))


def _boundaries(shots) -> list:
    return [0, *np.cumsum(shots).tolist()]


# --shots with every second planned cut, so the shots differ from detection
MANUAL = _boundaries(SHOTS)[:-1:2] + [sum(SHOTS)]

CONFIGS = [
    (kind, fraction, manual)
    for kind in ("mono", "420")
    for fraction in (1.0, 0.5)
    for manual in (False, True)
]
CONFIG_IDS = [f"{k}-{f:g}-{'shots' if m else 'detected'}" for k, f, m in CONFIGS]


def _embed_args(fraction, manual) -> tuple:
    """embed_clip's arguments after the clip, the ones _argv gives the CLI."""
    return WM, 1, 2, 3, EmbedParams(band="hl3"), MANUAL if manual else None, fraction


def _want(clip, fraction, manual) -> tuple:
    """(y4m bytes, key bytes) of the whole-clip reference."""
    marked, bundle = embed_clip_whole(clip, *_embed_args(fraction, manual))
    video = io.BytesIO()
    write_video(marked, video)
    return video.getvalue(), _key_bytes(bundle)


def _key_bytes(bundle) -> bytes:
    key = io.StringIO()
    write_key(bundle, key)
    return key.getvalue().encode("ascii")


def _argv(tmp_path, source, output, fraction, manual) -> list:
    wm = tmp_path / "wm.pgm"
    if not wm.exists():
        write_pgm(WM, wm)
    argv = ["embed", "--in", str(source), "--wm", str(wm), "--key-out",
            str(tmp_path / "k.key"), "--out", str(output), "--band", "hl3",
            "--select-fraction", repr(fraction)]
    return argv + (["--shots", ",".join(map(str, MANUAL))] if manual else [])


def test_the_clip_has_every_shot_length_from_9_to_33():
    assert sorted(n for n in SHOTS if n >= 9) == list(range(9, 34))
    assert detect_shots(_clip("mono")) == _boundaries(SHOTS)


@pytest.mark.parametrize("kind, fraction, manual", CONFIGS, ids=CONFIG_IDS)
def test_embed_clip_equals_the_whole_clip_reference(kind, fraction, manual):
    clip = _clip(kind)
    marked, bundle = embed_clip(clip, *_embed_args(fraction, manual))
    want, want_bundle = embed_clip_whole(clip, *_embed_args(fraction, manual))
    assert len(marked.frames) == len(want.frames)
    assert all(np.array_equal(a, b) for a, b in zip(marked.frames, want.frames))
    assert marked.chroma == clip.chroma and marked.header == clip.header
    assert _key_bytes(bundle) == _key_bytes(want_bundle)


@pytest.mark.parametrize("source", ["file", "file-over-longer", "out-over-in"])
@pytest.mark.parametrize("kind, fraction, manual", CONFIGS, ids=CONFIG_IDS)
def test_cli_over_a_file_equals_the_whole_clip_reference(
    tmp_path, kind, fraction, manual, source
):
    clip = _clip(kind)
    video, key = _want(clip, fraction, manual)
    write_video(clip, tmp_path / "in.y4m")
    out = tmp_path / "out.y4m"
    if source == "file-over-longer":
        out.write_bytes(b"\xff" * (len(video) + 999))
    if source == "out-over-in":
        out = tmp_path / "in.y4m"
    assert main(_argv(tmp_path, tmp_path / "in.y4m", out, fraction, manual)) == 0
    assert out.read_bytes() == video
    assert (tmp_path / "k.key").read_bytes() == key


@pytest.mark.parametrize(
    "kind, fraction, manual",
    [c for c in CONFIGS if c[1] == 0.5],
    ids=[i for c, i in zip(CONFIGS, CONFIG_IDS) if c[1] == 0.5],
)
def test_cli_over_a_pipe_equals_the_whole_clip_reference(tmp_path, kind, fraction, manual):
    clip = _clip(kind)
    video, key = _want(clip, fraction, manual)
    write_video(clip, tmp_path / "in.y4m")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI,
         *_argv(tmp_path, "/dev/stdin", tmp_path / "out.y4m", fraction, manual)],
        input=(tmp_path / "in.y4m").read_bytes(),
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.y4m").read_bytes() == video
    assert (tmp_path / "k.key").read_bytes() == key


def _traced_peak(tmp_path, frame_count) -> int:
    """tracemalloc peak of `wm3d embed` on a 64x64 mono clip of 16-frame shots."""
    work = tmp_path / str(frame_count)
    work.mkdir()
    write_video(VideoClip(_frames((16,) * (frame_count // 16), size=64)), work / "in.y4m")
    write_pgm(np.full((4, 4), 200, np.uint8), work / "wm.pgm")
    argv = ["embed", "--in", str(work / "in.y4m"), "--wm", str(work / "wm.pgm"),
            "--key-out", str(work / "k.key"), "--out", str(work / "out.y4m")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_memory_does_not_grow_with_the_clip(tmp_path, capsys):
    small, large = _traced_peak(tmp_path, 64), _traced_peak(tmp_path, 512)
    two_shots = 2 * 16 * 64 * 64
    assert large - small < two_shots, (small, large)


@pytest.mark.parametrize("kind", ["mono", "420"])
def test_embed_with_the_shots_that_detection_prints_writes_what_detection_writes(
    tmp_path, capsys, kind
):
    # `wm3d shots` prints the boundary list --shots takes, so
    # --shots "$(wm3d shots --in X)" repeats detection's key and video
    write_video(_clip(kind), tmp_path / "in.y4m")
    assert main(["shots", "--in", str(tmp_path / "in.y4m")]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == ",".join(map(str, _boundaries(SHOTS)))
    assert main(_argv(tmp_path, tmp_path / "in.y4m", tmp_path / "detected.y4m", 0.5, False)) == 0
    detected_key = (tmp_path / "k.key").read_bytes()
    argv = _argv(tmp_path, tmp_path / "in.y4m", tmp_path / "given.y4m", 0.5, False)
    assert main(argv + ["--shots", printed]) == 0
    assert (tmp_path / "k.key").read_bytes() == detected_key
    assert (tmp_path / "given.y4m").read_bytes() == (tmp_path / "detected.y4m").read_bytes()


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_embed_with_shots_refuses_a_cut_frame_before_the_output(
    tmp_path, capsys, existing
):
    # given --shots, the first pass still reads every frame, so a frame cut
    # short at the end of the file is refused before the second pass opens --out
    write_video(_clip("mono"), tmp_path / "in.y4m")
    data = (tmp_path / "in.y4m").read_bytes()
    (tmp_path / "in.y4m").write_bytes(data[:-SIZE])
    out = tmp_path / "out.y4m"
    old = b"\xff" * 999
    if existing:
        out.write_bytes(old)
    assert main(_argv(tmp_path, tmp_path / "in.y4m", out, 1.0, True)) == 2
    assert "truncated frame payload" in capsys.readouterr().err
    assert not (tmp_path / "k.key").exists()
    assert out.read_bytes() == old if existing else not out.exists()


def _patched_second_pass(monkeypatch, change):
    """open_video whose second opening goes through change(header, frames)."""
    opened = []

    @contextmanager
    def patched(source, keep=None, chroma=True):
        with open_video(source, keep, chroma) as (header, frames):
            opened.append(source)
            yield change(header, frames) if len(opened) == 2 else (header, frames)

    monkeypatch.setattr(embed_module, "open_video", patched)
    return opened


CHANGES = {
    # input that grew by one frame: every planned frame is written first
    "grew": lambda header, frames: (
        header, chain(frames, [(np.zeros((SIZE, SIZE), np.uint8), None)])),
    # input cut at the last shot's start: the frames before it are written
    "shrank": lambda header, frames: (header, islice(frames, sum(SHOTS[:-1]))),
    # other geometry: refused before the output is opened
    "resized": lambda header, frames: (header._replace(width=SIZE + 8), frames),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_an_input_that_changed_between_passes_is_refused(tmp_path, monkeypatch, capsys, change):
    clip = _clip("mono")
    write_video(clip, tmp_path / "in.y4m")
    video, _ = _want(clip, 1.0, False)
    out = tmp_path / "out.y4m"
    old = b"\xff" * (len(video) + 999)
    out.write_bytes(old)
    opened = _patched_second_pass(monkeypatch, CHANGES[change])
    assert main(_argv(tmp_path, tmp_path / "in.y4m", out, 1.0, False)) == 2
    assert len(opened) == 2
    assert "input changed between passes" in capsys.readouterr().err
    assert not (tmp_path / "k.key").exists()
    frame_bytes = len(b"FRAME\n") + SIZE * SIZE
    written = {
        "grew": len(video),
        "shrank": len(video) - SHOTS[-1] * frame_bytes,
        "resized": None,
    }[change]
    if written is None:
        assert out.read_bytes() == old
    else:
        assert out.read_bytes() == video[:written]


@pytest.mark.parametrize("taken", [0, SHOTS[0] - 1, sum(SHOTS) - 1])
def test_a_sink_that_stops_early_is_refused(taken):
    # the key would lack the shots not reached and the count goes unchecked
    def sink(header, frames):
        list(islice(frames, taken))

    with pytest.raises(RuntimeError, match="sink returned before the last frame"):
        embed_video(_clip("mono"), sink, WM, 1, 2, 3, EmbedParams(band="hl3"))
