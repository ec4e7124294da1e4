"""wm3d benchmark: whole CLI runs on seeded synthetic clips.

Usage, from the repository root:

    python3 perfbench/run.py --workload many-shots --seed 1 --seconds 45 --trace 0

Each op launches the wm3d CLI as a child process, one at a time (a closed
loop with one client). Wall time runs from spawn to exit and peak RSS is
that child's own, from os.wait4. Ops repeat until --seconds is spent, each
kind of op getting about the same share of the time; end-to-end metrics
are medians per kind of op. With --trace 1 the run makes one untraced and
one traced cycle (each op once) instead, and reports the per-layer metrics
from the spans of the traced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import inputs
import layers
from checks import CheckFailed, require
from inputs import Spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI = "import sys; from wm3d.cli import main; sys.exit(main())"
RUN_DEADLINE_S = 170.0  # the whole run ends well inside 180 s
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ATTACKS = "drop,average,swap,compress:75,noise:2"

END_TO_END = {
    "setup_s": "s",
    "embed_fps": "frames/s",
    "extract_fps": "frames/s",
    "cycle_s": "s",
    "embed_rss_mb": "MB",
    "extract_rss_mb": "MB",
    "peak_rss_mb": "MB",
    "nc_clean": "ratio",
    "nc_min": "ratio",
    "psnr_db": "dB",
}


@dataclass(frozen=True)
class Workload:
    """Inputs and ops of one workload; BENCHMARK.json says why each exists."""

    spec: Spec
    tiny: Spec  # same ops at 128x128, for the smoke test
    select_fraction: float = 1.0
    bench: bool = False  # also run a `wm3d bench` attack sweep


WORKLOADS = {
    "hd-single": Workload(
        spec=Spec(1280, 720, (64,), "420jpeg", 64, 64, "lh3", (5, 7)),
        tiny=Spec(128, 128, (16,), "420jpeg", 8, 8, "lh3", (5, 7)),
    ),
    "many-shots": Workload(
        spec=Spec(352, 288, inputs.many_shot_lengths(40), "mono", 44, 36, "hl3"),
        tiny=Spec(128, 128, inputs.many_shot_lengths(4), "mono", 16, 16, "hl3"),
        select_fraction=0.5,
    ),
    "sweep": Workload(
        spec=Spec(640, 360, (32, 32), "420jpeg", 32, 32),
        tiny=Spec(128, 128, (12, 12), "420jpeg", 8, 8),
        bench=True,
    ),
}


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float  # user + sys of the child and all its threads
    rss_mb: float
    stdout: str


def run_child(argv, cwd: Path, env: dict, timeout_s: float) -> Child:
    """Spawn, wait and reap one child; kill it if it outlives timeout_s."""
    lock = threading.Lock()
    reaped = False
    stdout_path = cwd / "child.out"
    with open(stdout_path, "wb") as out, open(cwd / "child.err", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout_s, 0.1), kill)
    timer.start()
    try:
        # Wait without reaping, so the watchdog never signals a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            reaped = True
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        if not reaped:  # interrupted while waiting
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; this child's own, not RUSAGE_CHILDREN.
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0,
                 stdout_path.read_text(errors="replace"))


# --- one benchmark run ----------------------------------------------------------


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[Child], None]  # raises CheckFailed


@dataclass
class Run:
    workload: Workload
    spec: Spec
    work: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.clip = self.work / "in.y4m"
        self.wm = self.work / "wm.pgm"
        self.marked = self.work / "marked.y4m"
        self.key = self.work / "marked.key"
        self.extracted = self.work / "extracted.pgm"

    # -- ops --

    def cli_argv(self, args, trace_to=None, op=""):
        if trace_to is None:
            return [sys.executable, "-c", CLI, *args]
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_to), op, "--", *args]

    def execute(self, op: Op, argv) -> Child | None:
        """Run one op with its checks; returns None if it failed."""
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        try:
            require(remaining > 1.0, "run deadline reached before the op started")
            child = run_child(argv, self.work, self.env, remaining)
            self.flush()
            require(child.code == 0, f"exit code {child.code}")
            op.check(child)
            return child
        except CheckFailed as exc:
            reason = str(exc)
        except Exception:  # output the checks could not even parse
            reason = traceback.format_exc()
        self.failed += 1
        print(f"FAILED {op.kind}: {reason}", file=sys.stderr)
        err = self.work / "child.err"
        if err.exists():
            sys.stderr.write(err.read_text(errors="replace")[-2000:])
        return None

    def workload_ops(self) -> list:
        s = self.spec
        embed = [
            "embed", "--in", str(self.clip), "--wm", str(self.wm),
            "--key-out", str(self.key), "--out", str(self.marked),
            "--band", s.band, "--offset", f"{s.offset[0]},{s.offset[1]}",
            "--select-fraction", repr(self.workload.select_fraction),
        ]
        extract = [
            "extract", "--in", str(self.marked), "--key", str(self.key),
            "--out", str(self.extracted), "--ref", str(self.wm),
        ]
        ops = [Op("embed", embed, self.check_embed), Op("extract", extract, self.check_extract)]
        if self.workload.bench:
            bench = ["bench", "--in", str(self.clip), "--wm", str(self.wm),
                     "--alphas", "0.1", "--attacks", ATTACKS]
            ops.append(Op("bench", bench, self.check_bench))
        return ops

    def flush(self) -> None:
        """fsync the run's files, so writeback of one op's output does not
        land in the next op's timed wall."""
        for path in self.work.iterdir():
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())

    # -- checks --

    def stable(self, label: str, digest: str) -> None:
        """The same op must write the same bytes every time in a run."""
        first = self.digests.setdefault(label, digest)
        require(first == digest, f"{label} digest changed within the run")

    def check_shots(self, child: Child) -> None:
        found = [int(v) for v in child.stdout.strip().split(",")]
        require(found == self.spec.boundaries,
                f"`wm3d shots` found {found}, planned {self.spec.boundaries}")

    def check_help(self, child: Child) -> None:
        require("usage: wm3d" in child.stdout, "--help printed no usage line")

    def check_embed(self, child: Child) -> None:
        key_digest = checks.sha256(self.key)
        out_digest = checks.sha256(self.marked)
        known = "embed.out" in self.digests
        self.stable("embed.key", key_digest)
        self.stable("embed.out", out_digest)
        if known:  # same bytes as an output already checked in full
            return
        key = checks.parse_key(self.key)
        require(key["boundaries"] == self.spec.boundaries,
                f"key boundaries {key['boundaries']} != planned {self.spec.boundaries}")
        require((key["wm_w"], key["wm_h"]) == (self.spec.wm_width, self.spec.wm_height),
                "key watermark size differs from the input")
        require(bool(key["selected"]), "key selects no shot")
        src, out = checks.Y4M(self.clip), checks.Y4M(self.marked)
        require(out.header == src.header, f"header {out.header} != input {src.header}")
        require(out.luma.shape == src.luma.shape, "geometry or frame count changed")
        require(np.array_equal(out.chroma, src.chroma), "chroma bytes changed")
        untouched = set(range(len(self.spec.shot_lengths))) - set(key["selected"])
        for shot in untouched:
            a, b = self.spec.boundaries[shot], self.spec.boundaries[shot + 1]
            require(np.array_equal(out.luma[a:b], src.luma[a:b]),
                    f"unselected shot {shot} was modified")
        psnr = checks.psnr_mean(src.luma, out.luma)
        require(math.isfinite(psnr), "embed changed no luma pixel")
        self.quality["psnr_db"] = psnr

    def check_extract(self, child: Child) -> None:
        self.stable("extract.pgm", checks.sha256(self.extracted))
        ref, got = checks.read_pgm(self.wm), checks.read_pgm(self.extracted)
        require(got.shape == ref.shape, f"extracted {got.shape} != watermark {ref.shape}")
        nc = checks.nc(ref, got)
        lines = [ln for ln in child.stdout.splitlines() if ln.startswith("aggregate: nc=")]
        require(len(lines) == 1, "extract printed no aggregate NC")
        printed = float(lines[0].split("=", 1)[1])
        require(abs(printed - nc) < 5e-4, f"printed NC {printed} != computed {nc:.6f}")
        self.quality.update(nc_clean=nc, ber_clean=checks.bit_error_rate(ref, got))

    def check_bench(self, child: Child) -> None:
        self.stable("bench.csv", checks.sha256_text(child.stdout))
        rows = [ln.split(",") for ln in child.stdout.strip().splitlines()]
        require(rows[0] == ["alpha", "attack", "parameter", "nc", "psnr_db"],
                f"unexpected CSV header {rows[0]}")
        names = [r[1] for r in rows[1:]]
        require(names == ["none", "drop", "average", "swap", "compress", "noise"],
                f"unexpected CSV rows {names}")
        nc = [float(r[3]) for r in rows[1:]]
        require(all(math.isfinite(v) for v in nc), "non-finite NC in the sweep")
        # The none row repeats the embed/extract ops' figures at 4 decimals.
        require(abs(nc[0] - self.quality["nc_clean"]) < 5e-4,
                f"sweep none-row NC {nc[0]} != {self.quality['nc_clean']:.6f}")
        require(abs(float(rows[1][4]) - self.quality["psnr_db"]) < 5e-3,
                f"sweep none-row PSNR {rows[1][4]} != {self.quality['psnr_db']:.4f}")
        self.quality["nc_attacked_min"] = min(nc[1:])

    # -- phases --

    def setup_probes(self, count: int) -> list:
        """`wm3d --help` children; one warm-up probe is run first and dropped."""
        op = Op("setup", ["--help"], self.check_help)
        probes = [self.execute(op, self.cli_argv(op.argv)) for _ in range(count + 1)]
        return [child for child in probes[1:] if child]

    def run_cycle(self, ops: list, trace_dir: Path | None = None) -> dict | None:
        """Each op once, in order; None if any op failed."""
        results = {}
        for op in ops:
            trace_to = trace_dir / f"{op.kind}.json" if trace_dir else None
            child = self.execute(op, self.cli_argv(op.argv, trace_to, op.kind))
            if child is None:
                return None
            results[op.kind] = child
        return results

    def run_timed(self, ops: list, seconds: float) -> dict | None:
        """Repeat the ops for `seconds`; the children of each kind, or None
        if an op failed.

        Next is always the kind with the least timed wall so far, so each
        kind gets about the same share of the time (a 1 s op about eight
        samples for an 8 s op's one) and its samples spread over the whole
        run. The run stops before an op that, taking as long as that kind's
        last one, would end after `seconds`; each kind runs at least once.
        """
        samples = {op.kind: [] for op in ops}
        t0 = time.monotonic()
        while True:
            op = min(ops, key=lambda o: sum(ch.wall_s for ch in samples[o.kind]))
            done = samples[op.kind]
            if done and time.monotonic() - t0 + done[-1].wall_s > seconds:
                return samples
            child = self.execute(op, self.cli_argv(op.argv))
            if child is None:
                return None
            done.append(child)


def end_to_end(run: Run, setup: list, samples: dict) -> dict:
    frames = run.spec.frames
    q = run.quality
    wall = {k: statistics.median([ch.wall_s for ch in v]) for k, v in samples.items()}
    rss = {k: statistics.median([ch.rss_mb for ch in v]) for k, v in samples.items()}
    return {
        "setup_s": statistics.median([ch.wall_s for ch in setup]),
        "embed_fps": frames / wall["embed"],
        "extract_fps": frames / wall["extract"],
        "cycle_s": sum(wall.values()),
        "embed_rss_mb": rss["embed"],
        "extract_rss_mb": rss["extract"],
        "peak_rss_mb": max(rss.values()),
        "nc_clean": q["nc_clean"],
        "nc_min": min(q["nc_clean"], q.get("nc_attacked_min", math.inf)),
        "psnr_db": q["psnr_db"],
    }


def per_layer(run: Run, untraced: dict, traced: dict, trace_dir: Path) -> tuple:
    traces = [json.loads((trace_dir / f"{kind}.json").read_text()) for kind in traced]
    out, hook_errors = layers.aggregate(traces)
    out["extract.ber_clean"] = run.quality["ber_clean"]
    traced_wall = sum(c.wall_s for c in traced.values())
    untraced_wall = sum(c.wall_s for c in untraced.values())
    out["trace.overhead_s"] = traced_wall - untraced_wall
    accounting = {
        "ops": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "top_spans_s": layers.top_level_seconds(traces),
        "wrapped_functions": traces[0]["wrapped"],
        "hook_errors": hook_errors,
    }
    return out, accounting


def environment(seed: int, sizes: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "input": sizes,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without spawning git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="128x128 geometry of the same ops (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Let SIGTERM unwind through the finally blocks that stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "wm3d" / "cli.py").is_file():
        print(f"perfbench: no wm3d sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    spec = workload.tiny if args.tiny else workload.spec
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, spec, work, started + RUN_DEADLINE_S)
        sizes = inputs.generate(spec, args.seed, run.clip, run.wm)
        run.flush()
        print("env " + json.dumps(environment(args.seed, sizes)))
        run.execute(Op("shots", ["shots", "--in", str(run.clip)], run.check_shots),
                    run.cli_argv(["shots", "--in", str(run.clip)]))
        setup = run.setup_probes(SETUP_PROBES)

        # A warm-up embed and extract first: their outputs are checked in full
        # and their times dropped, since first-touch page faults make them
        # slower. The bench sweep is long enough to need none.
        ops = run.workload_ops()
        metrics, units = {}, END_TO_END
        if run.failed or run.run_cycle(ops[:2]) is None:  # a failed run reports no figures
            pass
        elif args.trace:
            untraced = run.run_cycle(ops)
            trace_dir = work / "spans"
            trace_dir.mkdir()
            traced = run.run_cycle(ops, trace_dir) if untraced else None
            if traced is not None:
                metrics, accounting = per_layer(run, untraced, traced, trace_dir)
                accounting["setup_s"] = statistics.median([ch.wall_s for ch in setup])
                print("accounting " + json.dumps(accounting))
            units = layers.metric_units()
        elif (samples := run.run_timed(ops, args.seconds)) is not None:
            metrics = end_to_end(run, setup, samples)
            samples["setup"] = setup
            for attr in ("wall_s", "cpu_s"):
                print(f"{attr} " + json.dumps(
                    {k: [round(getattr(ch, attr), 4) for ch in v] for k, v in samples.items()}))

        print("digests " + json.dumps(run.digests))
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {units[name]}")
        if run.failed:
            print(f"fail_ratio {run.failed}/{run.attempted}", file=sys.stderr)
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
