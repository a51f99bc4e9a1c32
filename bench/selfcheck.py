"""Tiny-size self-check of the benchmark: every workload, traced and not.

    python3 bench/selfcheck.py

Runs ``run.py --workload all --size tiny`` (horizon ~10, 10^3 samples) and
fails unless every run is correct and every metric the benchmark defines
is emitted as a finite number with its unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The metrics the benchmark was specified with.  fail_share is the
# result line's failed / attempted; the others are metric names.
SPECIFIED = (
    "setup_s", "wall_s", "peak_rss_mib",
    "mc_steps_per_s_w1", "mc_steps_per_s_w2", "mc_time_to_1pct_s",
    "exact_dp.calls", "exact_dp.dp_steps", "exact_dp.survival_s",
    "exact_dp.bounds_s", "exact_dp.excursion_s", "exact_dp.tilted_s",
    "exact_dp.state_steps", "exact_dp.peak_states", "exact_dp.max_num_bits",
    "exact_dp.ns_per_state_step",
    "mc.plain_s", "mc.tilted_s", "mc.scaling_eff", "mc.rel_stderr",
    "mc.hits_plain", "mc.zero_hit_estimates",
    "laplace.analyze_s", "laplace.analyze_calls", "laplace.eval_calls",
    "seqlab.verdict_s", "seqlab.verdict_calls",
    "model.load_s", "model.build_s",
    "cli.self_s", "report.s", "report.bytes",
    "trace.uncovered_share", "trace.overhead_share",
)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "7", "--seconds", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, sep="\n")
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: {result['failed']}/{result['attempted']} failed")
    defined = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems += [f"{name} is not defined in BENCHMARK.json"
                 for name in SPECIFIED if name not in defined]
    for wl in spec["workloads"]:
        for name, unit in defined.items():
            got = result["metrics"].get(f"{wl['name']}/{name}")
            if got is None:
                problems.append(f"{wl['name']}: {name} not emitted")
            elif got["unit"] != unit or not math.isfinite(got["value"]):
                problems.append(f"{wl['name']}: {name} = {got}")
        trace_file = BENCH_DIR / "out" / f"trace-{wl['name']}-seed7.json"
        if not trace_file.is_file():
            problems.append(f"{wl['name']}: no trace file")
        elif not json.loads(trace_file.read_text())["spans"]:
            problems.append(f"{wl['name']}: trace file has no spans")
    leftovers = list((BENCH_DIR / "out").glob("work-*"))
    if leftovers:
        problems.append(f"work directories left behind: {leftovers}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed",
          f"({len(defined)} metrics x {len(spec['workloads'])} workloads)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
