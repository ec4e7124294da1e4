"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
Empirical floors run against the fixed corpus defined in conftest.
"""

import math
import time

import numpy as np

from conftest import SEED1, SEED2, SEED3
from oracles import (
    extract_plane,
    spatial_forward3,
    spatial_inverse3,
    spread_sign,
)
from wm3d.attacks import (
    attack_average,
    attack_compress,
    attack_drop,
    attack_swap,
)
from wm3d.cli import main
from wm3d.embed import EmbedParams, embed_clip
from wm3d.extract import extract_clip
from wm3d.media_io import read_pgm, write_pgm, write_y4m
from wm3d.metrics import nc, psnr, psnr_clip
from wm3d.wavelet3d import temporal_analysis, temporal_synthesis


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_3d_reconstruction():
    rs = np.random.RandomState(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = int(rs.randint(1, 17))
        h = int(rs.choice([8, 16, 32]))
        w = int(rs.choice([8, 16, 32]))
        x = rs.rand(n, h, w) * 255.0
        size = 1 << (n - 1).bit_length()
        frames = np.tensordot(temporal_analysis(n, size), x, axes=1)
        vol = spatial_forward3(frames)
        back = np.tensordot(temporal_synthesis(n, size), spatial_inverse3(vol), axes=1)
        worst = max(worst, float(np.max(np.abs(back - x))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "3D DWT perfect reconstruction",
        worst < 1e-9 and elapsed < 10.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s over 50 volumes",
    )


def test_criterion_02_prep_roundtrip():
    from wm3d.wmprep import compose_bitplanes, prepare_sign_planes, restore_bitplanes

    rs = np.random.RandomState(202)
    start = time.perf_counter()
    ok = True
    for trial in range(100):
        h, w = int(rs.randint(1, 25)), int(rs.randint(1, 25))
        wm = rs.randint(0, 256, (h, w)).astype(np.uint8)
        s1 = int(rs.randint(0, 2**63))
        s2 = int(rs.randint(0, 2**63))
        restored = restore_bitplanes(prepare_sign_planes(wm, s1, s2), s1, s2)
        ok = ok and np.array_equal(compose_bitplanes(restored), wm)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "prep round-trip identity",
        ok and elapsed < 1.0,
        f"100 watermarks, {elapsed:.3f}s",
    )


def test_criterion_03_no_attack_fidelity(corpus, watermark):
    start = time.perf_counter()
    values = {}
    for name, clip in corpus.items():
        marked, bundle = embed_clip(clip, watermark, SEED1, SEED2, SEED3)
        values[name] = extract_clip(marked, bundle, watermark).nc
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} NC={v:.4f}" for k, v in values.items())
    _report(
        3,
        "no-attack fidelity NC >= 0.95",
        all(v >= 0.95 for v in values.values()) and elapsed < 30.0,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_04_imperceptibility(corpus, watermark):
    ok = True
    details = []
    for name, clip in corpus.items():
        sweep = []
        for alpha in (0.05, 0.1, 0.2, 0.4):
            marked, _ = embed_clip(
                clip, watermark, SEED1, SEED2, SEED3, params=EmbedParams(alpha=alpha)
            )
            sweep.append(psnr_clip(clip, marked).psnr_mean)
        ok = ok and sweep[1] >= 35.0
        ok = ok and all(a >= b for a, b in zip(sweep, sweep[1:]))
        details.append(f"{name} psnr(0.1)={sweep[1]:.2f} sweep={['%.1f' % v for v in sweep]}")
    _report(4, "imperceptibility and alpha monotonicity", ok, "; ".join(details))


def test_criterion_05_frame_dropping(embedded, watermark):
    ok = True
    details = []
    for name, run in embedded.items():
        attacked = attack_drop(run.marked, run.original)
        value = extract_clip(attacked, run.bundle, watermark).nc
        ok = ok and value >= run.nc0 - 0.10
        details.append(f"{name} {value:.4f} (base {run.nc0:.4f})")
    _report(5, "frame dropping NC >= base - 0.10", ok, "; ".join(details))


def test_criterion_06_frame_averaging(embedded, watermark):
    ok = True
    details = []
    for name, run in embedded.items():
        value = extract_clip(attack_average(run.marked), run.bundle, watermark).nc
        ok = ok and value >= run.nc0 - 0.25
        details.append(f"{name} {value:.4f} (base {run.nc0:.4f})")
    _report(6, "frame averaging NC >= base - 0.25", ok, "; ".join(details))


def test_criterion_07_frame_swapping(embedded, watermark):
    ok = True
    details = []
    for name, run in embedded.items():
        value = extract_clip(attack_swap(run.marked), run.bundle, watermark).nc
        ok = ok and value >= 0.7
        details.append(f"{name} {value:.4f}")
    _report(7, "frame swapping NC >= 0.7", ok, "; ".join(details))


def test_criterion_08_compression_proxy(embedded, watermark):
    ok = True
    details = []
    for name, run in embedded.items():
        value = extract_clip(
            attack_compress(run.marked, 75), run.bundle, watermark
        ).nc
        ok = ok and value >= 0.6
        details.append(f"{name} {value:.4f}")
    frame = embedded["gradient"].original.frames[0]
    from wm3d.media_io import VideoClip

    single = VideoClip(frames=[frame])
    sweep = [
        psnr(frame, attack_compress(single, q).frames[0]) for q in (20, 50, 75, 90)
    ]
    monotone = all(a <= b for a, b in zip(sweep, sweep[1:]))
    ok = ok and monotone
    details.append("proxy psnr sweep " + "/".join(f"{v:.1f}" for v in sweep))
    _report(8, "compression proxy NC >= 0.6 and monotone", ok, "; ".join(details))


def test_criterion_09_sign_rule_oracle():
    # Brute-force truth table of the embedding rule over all combinations
    # of the neighborhood relation {<,=,>} and the prepared sign.
    def oracle_embed(t, r, wd):
        if t > r and wd == 1:
            return 1
        if t < r and wd == -1:
            return 1
        return -1

    def oracle_extract(t, r, wk):
        if t > r and wk == 1:
            return 1
        if t < r and wk == -1:
            return 1
        return -1

    cases = [(5.0, 10.0), (10.0, 10.0), (20.0, 10.0)]  # t<r, t=r, t>r
    ok = True
    for t, r in cases:
        for s in (1, -1):
            ok = ok and spread_sign(t, r, s) == oracle_embed(t, r, s)

    # extract_plane pointwise: 16x16 frame whose LH3 is rows [2,4) x cols
    # [0,2); watermark cell (2,0) with neighbor (2,1) supplying t.
    params = EmbedParams()
    for t, r in cases:
        frame = np.zeros((16, 16))
        frame[2, 0] = r
        frame[2, 1] = t
        for s in (1, -1):
            got = extract_plane(frame, np.array([[s]], np.int8), params)[0, 0]
            ok = ok and got == oracle_extract(t, r, s)
    _report(9, "embed/extract sign rule truth table", ok, "18 combinations")


def test_criterion_10_metric_oracles():
    rs = np.random.RandomState(303)
    ok = True
    worst = 0.0
    for _ in range(20):
        h, w = int(rs.randint(2, 12)), int(rs.randint(2, 12))
        a = rs.randint(0, 256, (h, w)).astype(np.uint8)
        b = rs.randint(0, 256, (h, w)).astype(np.uint8)
        num = math.fsum(
            float(a[i, j]) * float(b[i, j]) for i in range(h) for j in range(w)
        )
        den = math.fsum(float(a[i, j]) ** 2 for i in range(h) for j in range(w))
        expected_nc = num / den
        got_nc = nc(a, b)
        rel = abs(got_nc - expected_nc) / abs(expected_nc)
        worst = max(worst, rel)
        ok = ok and rel < 1e-12

        mse = math.fsum(
            (float(a[i, j]) - float(b[i, j])) ** 2 for i in range(h) for j in range(w)
        ) / (h * w)
        if mse > 0:
            expected_psnr = 20.0 * math.log10(255.0 / math.sqrt(mse))
            rel = abs(psnr(a, b) - expected_psnr) / expected_psnr
            worst = max(worst, rel)
            ok = ok and rel < 1e-12

    w0 = rs.randint(1, 256, (9, 9)).astype(np.uint8)
    ok = ok and nc(w0, w0) == 1.0
    unit = psnr(np.zeros((8, 8), np.uint8), np.ones((8, 8), np.uint8))
    ok = ok and abs(unit - 48.1308) <= 1e-3
    _report(
        10,
        "metric brute-force oracles",
        ok,
        f"worst rel err {worst:.2e}, unit-diff psnr {unit:.4f}",
    )


def test_criterion_11_blindness(tmp_path, corpus, watermark):
    video = tmp_path / "original.y4m"
    wm_path = tmp_path / "wm.pgm"
    write_y4m(corpus["gradient"], video)
    write_pgm(watermark, wm_path)
    code = main(
        [
            "embed",
            "--in", str(video),
            "--wm", str(wm_path),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "marked.y4m"),
        ]
    )
    assert code == 0
    video.unlink()  # the original video is gone before extraction
    code = main(
        [
            "extract",
            "--in", str(tmp_path / "marked.y4m"),
            "--key", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "ext.pgm"),
        ]
    )
    value = nc(watermark, read_pgm(tmp_path / "ext.pgm"))
    _report(
        11,
        "blind extraction with original deleted",
        code == 0 and value >= 0.95,
        f"exit {code}, NC={value:.4f}",
    )


def test_criterion_12_capacity_guard(tmp_path):
    clip_path = tmp_path / "cif.y4m"
    from wm3d.media_io import VideoClip

    write_y4m(
        VideoClip(frames=[np.full((288, 352), 90, np.uint8)] * 9), clip_path
    )
    write_pgm(np.zeros((42, 42), np.uint8), tmp_path / "wm42.pgm")
    code = main(
        [
            "embed",
            "--in", str(clip_path),
            "--wm", str(tmp_path / "wm42.pgm"),
            "--key-out", str(tmp_path / "k.key"),
            "--out", str(tmp_path / "out.y4m"),
        ]
    )
    _report(
        12,
        "42x42 into 352x288 rejected with capacity error",
        code == 3,
        f"exit code {code}",
    )
