"""conewalk benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload analyze-interior --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

One client runs the workload's iteration back to back, each starting when
the previous one returns, until the next would end past ``--seconds``.  The
seed is the Monte Carlo seed; the exact workloads ignore it.  Every
iteration's outputs are checked.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
run alternates traced and untraced iterations and reports the per-layer
metrics, writing the spans to ``bench/out/``.  ``--workload all`` runs every
workload untraced and traced, each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3  # set-up is timed this many times per run (1 in-process + children)
# host_probe() seconds on the unloaded host; probe / CAL_REF_S is the slowdown
CAL_REF_S = 0.23


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import conewalk from this checkout's ``src``; never an installed copy."""
    src = ROOT / "src"
    for path in (str(src), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import conewalk
    except ImportError as exc:
        raise SystemExit(f"cannot import conewalk from {src}: {exc}")
    if Path(conewalk.__file__).resolve().parent.parent != src:
        raise SystemExit(f"conewalk was imported from {conewalk.__file__}, not {src}")


def setup(workload: str, size: str, workdir: str):
    """Import, write model files, build models and load the reference.

    Returns (workload object, seconds).  This is the work ``setup_s`` times.
    """
    t0 = time.perf_counter()
    import_program()
    import workloads

    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[size][workload]
    wl = workloads.WORKLOADS[workload](size, workdir, reference)
    return wl, time.perf_counter() - t0


def child(args: argparse.Namespace, mode: str, trace: int = 0) -> dict:
    """Run this script in a fresh interpreter and parse its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--size", args.size]
    if mode:
        cmd.append(mode)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"stdout": "\n".join(lines[:-1]), "result": json.loads(lines[-1])}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "CONEWALK_MEM_BUDGET": os.environ.get("CONEWALK_MEM_BUDGET"),
    }


def host_probe() -> float:
    """Seconds for a fixed big-integer dict loop and a small numpy walk loop.

    Neither touches conewalk.  The host is shared, and its speed for this
    process drifts by up to 2x over minutes.  A run probes it after every
    set-up and iteration; dividing the run's medians by its mean slowdown
    (mean probe / CAL_REF_S) removes the drift.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    x = 3 ** 170
    for i in range(700_000):
        k = i % 4093
        acc[k] = acc.get(k, 0) + x * (i & 7)
    rng = np.random.Generator(np.random.Philox(1))
    pos = np.zeros((6250, 2), dtype=np.int64)
    for _ in range(400):
        pos += rng.integers(0, 4, 6250)[:, None]
        (pos >= 0).all(axis=1)
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 20:
        return f"max {max(values):.6g} (no percentile above the median has 10 samples beyond it)"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"


def dp_series(tracer, iteration: int) -> dict:
    """Per-step states and numerator bits of each survival stream, from
    ``survival_layers``.  Its seconds include the Fraction conversion of
    every state and are not a measure of DP step time."""
    from conewalk import exact_dp

    series = {}
    for span in tracer.spans:
        if span.iteration != iteration or span.name != "exact_dp.survival":
            continue
        model, n = span.meta["model"], span.meta["n"]
        key = f"{model.model_hash()}/{n}"
        if key in series:
            continue
        den = model.dist.common_denominator
        steps = []
        layers = exact_dp.survival_layers(model, n)
        while True:
            t0 = time.perf_counter()
            layer = next(layers, None)
            seconds = time.perf_counter() - t0
            if layer is None:
                break
            scale = den ** layer.index
            bits = max((f.numerator * (scale // f.denominator)).bit_length()
                       for f in layer.masses.values()) if layer.masses else 0
            steps.append({"k": layer.index, "states": len(layer.masses),
                          "num_bits": bits, "seconds_unusable_for_dp_step_time": seconds})
        series[key] = steps
    return series


DP_SPANS = ("exact_dp.survival", "exact_dp.bounds", "exact_dp.excursion", "exact_dp.tilted")
LAYERS = ("cli", "model", "laplace", "exact_dp", "seqlab", "mc", "report")


def iteration_metrics(tracer, it: int, series: dict, report_bytes: int) -> dict:
    kids = tracer.children()
    spans = [s for s in tracer.spans if s.iteration == it]
    root = next(s for s in spans if s.name == "bench.iteration")

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.seconds for s in named(name))

    dp = [s for s in spans if s.name in DP_SPANS]
    streams = [series[f"{s.meta['model'].model_hash()}/{s.meta['n']}"]
               for s in named("exact_dp.survival")]
    layer_steps = [step for stream in streams for step in stream]
    state_steps = sum(step["states"] for step in layer_steps)

    def first_tilted(workers):
        return next((s for s in named("mc.tilted")
                     if s.meta["workers"] == workers
                     and s.meta["model"].cone.is_orthant), None)

    w1, w2 = first_tilted(1), first_tilted(2)
    rel = w1.meta["std_error"] / w1.meta["mean"] if w1 and w1.meta["mean"] > 0 else 0.0
    mc_spans = named("mc.plain") + named("mc.tilted")
    self_s = tracer.self_seconds(it)
    m = {
        "exact_dp.calls": len(dp),
        "exact_dp.dp_steps": sum(s.meta["n"] for s in dp),
        "exact_dp.survival_s": secs("exact_dp.survival"),
        "exact_dp.bounds_s": secs("exact_dp.bounds"),
        "exact_dp.excursion_s": secs("exact_dp.excursion"),
        "exact_dp.tilted_s": secs("exact_dp.tilted"),
        "exact_dp.state_steps": state_steps,
        "exact_dp.peak_states": max((st["states"] for st in layer_steps), default=0),
        "exact_dp.max_num_bits": max((st["num_bits"] for st in layer_steps), default=0),
        "exact_dp.ns_per_state_step":
            secs("exact_dp.survival") * 1e9 / state_steps if state_steps else 0.0,
        "mc.plain_s": secs("mc.plain"),
        "mc.tilted_s": secs("mc.tilted"),
        "mc.scaling_eff": w1.seconds / (2 * w2.seconds) if w1 and w2 else 0.0,
        "mc.rel_stderr": rel,
        "mc.hits_plain": sum(round(s.meta["mean"] * s.meta["samples"])
                             for s in named("mc.plain")),
        "mc.zero_hit_estimates": sum(1 for s in mc_spans if s.meta["mean"] == 0),
        "mc_steps_per_s_w1": w1.meta["samples"] * w1.meta["n"] / w1.seconds if w1 else 0.0,
        "mc_steps_per_s_w2": w2.meta["samples"] * w2.meta["n"] / w2.seconds if w2 else 0.0,
        "mc_time_to_1pct_s": w1.seconds * (rel / 0.01) ** 2 if w1 else 0.0,
        "laplace.analyze_s": secs("laplace.analyze"),
        "laplace.analyze_calls": len(named("laplace.analyze")),
        "laplace.eval_calls": len(named("laplace.eval")),
        "seqlab.verdict_s": secs("seqlab.verdict"),
        "seqlab.verdict_calls": len(named("seqlab.verdict")),
        "report.s": sum(s.seconds for s in spans if s.name.startswith("report.")),
        "report.bytes": report_bytes,
        "trace.uncovered_share":
            (root.seconds - sum(c.seconds for c in kids.get(root.id, ()))) / root.seconds,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, spec: dict, workdir: str) -> int:
    trace = args.trace == 1
    tracer = None
    if trace:
        import_program()
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl, setup_first = setup(args.workload, args.size, workdir)
    if tracer:
        tracer.uninstall()
    # Fresh interpreters time the set-up again and run the brute-force
    # oracle, whose memory must not count towards this process's peak RSS.
    cal = [host_probe()]
    setup_times = [setup_first]
    for _ in range(1 if trace else SETUP_REPEATS - 1):
        probe = child(args, "--probe")["result"]
        cal.append(host_probe())
        setup_times.append(probe["setup_s"])
    oracle = probe["oracle"]

    walls = {True: [], False: []}  # iteration seconds, keyed by "traced"
    traced_ids, report_bytes, series = [], {}, None
    attempted = failed = 0
    failures: dict[str, int] = {}
    loop_start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 0
        if traced:
            tracer.iteration = i
            tracer.install()
            root = tracer.open("bench.iteration")
        t0 = time.perf_counter()
        try:
            out = wl.run(args.seed)
        except Exception:
            out = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
            tracer.iteration = None
        cal.append(host_probe())
        walls[traced].append(wall)
        if out is None:
            results = [("iteration_raised", False)]
        else:
            try:
                results = wl.check(out, oracle)
            except Exception:
                traceback.print_exc()
                results = [("check_raised", False)]
        attempted += len(results)
        for name, ok in results:
            if not ok:
                failed += 1
                failures[name] = failures.get(name, 0) + 1
        if traced and out is not None:
            traced_ids.append(i)
            report_bytes[i] = wl.report_bytes(out)
            if series is None:
                series = dp_series(tracer, i)
        i += 1
        elapsed = time.perf_counter() - loop_start
        missing_half = trace and not (walls[True] and walls[False])
        if not missing_half and elapsed * (i + 1) / i > args.seconds:
            break

    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} iterations {i}")
    print(f"# fail_share {failed / attempted:.6g} ({failed}/{attempted} checks failed)"
          + (f" {failures}" if failures else ""))
    if trace:
        metrics = traced_metrics(tracer, traced_ids, series, report_bytes, walls)
        names = spec["per_layer"]
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "traced_iterations": traced_ids,
            "self_seconds": {it: tracer.self_seconds(it) for it in traced_ids},
            "setup_self_seconds": tracer.self_seconds(None),
            "dp_series": series,
            "dp_series_note": "seconds include Fraction conversion; unusable for DP step time",
        })
    else:
        samples = walls[False]
        slowdown = statistics.mean(cal) / CAL_REF_S
        lo, hi = quartiles(samples)
        print(f"# raw wall median {statistics.median(samples):.6g} s, quartiles "
              f"{lo:.6g}..{hi:.6g}, {tail_percentile(samples)}, n={len(samples)}: "
              + " ".join(f"{w:.4g}" for w in samples))
        print(f"# raw setup median {statistics.median(setup_times):.6g} s: "
              + " ".join(f"{t:.4g}" for t in setup_times))
        print(f"# host slowdown mean {slowdown:.4g} (probe / CAL_REF_S): "
              + " ".join(f"{c / CAL_REF_S:.3g}" for c in cal))
        metrics = {
            "setup_s": statistics.median(setup_times) / slowdown,
            "wall_s": statistics.median(samples) / slowdown,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = spec["end_to_end"]
    result = {}
    for entry in names:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:28s} {value:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def traced_metrics(tracer, traced_ids, series, report_bytes, walls) -> dict:
    per_it = [iteration_metrics(tracer, it, series, report_bytes[it]) for it in traced_ids]
    metrics = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
    setup_spans = [s for s in tracer.spans if s.iteration is None]
    metrics["model.load_s"] = sum(s.seconds for s in setup_spans if s.name == "model.load")
    metrics["model.build_s"] = sum(s.seconds for s in setup_spans if s.name == "model.build")
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_share"] = (statistics.median(walls[True]) - untraced) / untraced
    return metrics


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    merged, attempted, failed = {}, 0, 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": wl["name"]})
            res = child(sub, "", trace=trace)
            print(f"== {wl['name']} trace {trace}")
            print(res["stdout"])
            attempted += res["result"]["attempted"]
            failed += res["result"]["failed"]
            for name, metric in res["result"]["metrics"].items():
                merged[f"{wl['name']}/{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every path at horizon ~10 for the self-check")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.probe:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            wl, seconds = setup(args.workload, args.size, workdir)
            import workloads

            oracle = workloads.oracle_terms(wl.oracle_request(), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "oracle": oracle}))
        return 0
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
