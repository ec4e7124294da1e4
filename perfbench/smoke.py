"""Smoke test of the benchmark at 128x128: python3 perfbench/smoke.py

Runs every workload's ops (hd-single too, which BENCHMARK.json leaves out)
untraced and traced at tiny geometry and checks that:
- each run is correct and its result line carries exactly the end-to-end
  (untraced) or per-layer (traced) metrics that BENCHMARK.json names;
- the traced run's top-level spans plus one setup_s per op account for
  the untraced wall time, within the reported trace.overhead_s plus a
  small allowance for run-to-run noise.
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NOISE_S = 0.15  # per-op allowance: two separate children never time alike


def bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    accounting = None
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag == "accounting":
            accounting = json.loads(rest)
    return json.loads(lines[-1]), accounting


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, acc = bench(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: run not correct: {result}")
            if got != expected:
                problems.append(
                    f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}, "
                    f"units {[n for n in got if n in expected and got[n] != expected[n]]}"
                )
            if trace:
                overhead = result["metrics"]["trace.overhead_s"]["value"]
                explained = acc["top_spans_s"] + acc["ops"] * acc["setup_s"]
                gap = acc["untraced_wall_s"] - explained
                allowed = abs(overhead) + NOISE_S * acc["ops"]
                print(f"{workload}: untraced {acc['untraced_wall_s']:.3f} s, spans+setup "
                      f"{explained:.3f} s, gap {gap:+.3f} s, allowed {allowed:.3f} s")
                if abs(gap) > allowed:
                    problems.append(
                        f"{workload}: spans+setup miss the untraced wall by {gap:+.3f} s"
                    )
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
