"""Regenerate bench/reference.json: digests of the exact outputs.

    python3 bench/make_reference.py

Run it only on a commit whose exact outputs are known to be right; the
benchmark's checks compare every later run against these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from conewalk import exact_dp  # noqa: E402


def reference_for(size: str, workdir: str) -> dict:
    ai = workloads.AnalyzeInterior(size, workdir, {})
    out = ai.run(seed=0)
    with open(Path(out["outdir"]) / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    ee = workloads.ExactExterior(size, workdir, {})
    ex = ee.run(seed=0)
    mr = workloads.McRare(size, workdir, {})
    n = mr.size["mc_n"]
    a_n = exact_dp.survival_sequence(mr.model["exterior"], n).terms[n]
    return {
        "analyze-interior": {b: workloads.digest(doc[b])
                             for b in ("sequences", "bounds", "verdicts")},
        "exact-exterior": {
            "exterior_survival": workloads.digest(workloads.frac_strings(ex["surv"].terms)),
            "octant3d_survival": workloads.digest(workloads.frac_strings(ex["surv3"].terms)),
            "exterior_verdict": workloads.digest(workloads.verdict_summary(ex["verdict"])),
        },
        "mc-rare": {"a_n": f"{a_n.numerator}/{a_n.denominator}"},
    }


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=run.OUT_DIR)
    try:
        ref = {size: reference_for(size, workdir) for size in workloads.SIZES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
