"""The three benchmark workloads: set-up, one timed iteration, output checks.

Every workload is deterministic apart from the Monte Carlo seed, which the
benchmark passes through unchanged.  ``run`` is the timed region; ``check``
runs after it and returns one (name, passed) pair per output check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from conewalk import cli, exact_dp, laplace, mc, seqlab
from conewalk import model as walk_model

ORACLE_TERMS = 9  # brute-force path enumeration checks a_0..a_8
EXCURSION_TARGET = (0, 0)
MC_SIGMAS = 4.0
TILT_REL_TOL = 1e-9

_EXTERIOR_STEPS = [
    {"v": [1, 0], "w": "1/6"}, {"v": [0, 1], "w": "1/6"},
    {"v": [-1, 0], "w": "1/3"}, {"v": [0, -1], "w": "1/3"},
]

MODEL_FILES = {
    # uniform E/S/W/N/NE quarter-plane walk: interior drift (2/5, 2/5)
    "five-step": {
        "dimension": 2,
        "steps": [{"v": [1, 0], "w": "1/5"}, {"v": [0, -1], "w": "1/5"},
                  {"v": [-1, 0], "w": "1/5"}, {"v": [0, 1], "w": "1/5"},
                  {"v": [1, 1], "w": "1/5"}],
        "cone": {"type": "orthant"},
        "start": [0, 0],
    },
    # exterior drift (-1/6, -1/6), weight denominator D = 6
    "exterior": {
        "dimension": 2,
        "steps": _EXTERIOR_STEPS,
        "cone": {"type": "orthant"},
        "start": [0, 0],
    },
    # the same steps in the wedge {x >= 0, x - y >= 0}
    "wedge": {
        "dimension": 2,
        "steps": _EXTERIOR_STEPS,
        "cone": {"type": "halfspaces", "normals": [[1, 0], [1, -1]]},
        "start": [0, 0],
    },
    # simple walk in the 3D octant: the general-dimension DP branch
    "octant-3d": {
        "dimension": 3,
        "steps": [{"v": v, "w": "1/6"} for v in (
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1])],
        "cone": {"type": "orthant"},
        "start": [0, 0, 0],
    },
}

SIZES = {
    "full": {"horizon": 120, "samples": 20_000, "ext_n": 250, "kmax": 30,
             "tilted_n": 150, "oct_n": 40, "mc_n": 200, "mc_samples": 100_000},
    "tiny": {"horizon": 10, "samples": 1_000, "ext_n": 12, "kmax": 2,
             "tilted_n": 10, "oct_n": 8, "mc_n": 10, "mc_samples": 1_000},
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def frac_strings(terms) -> list[str]:
    return [f"{t.numerator}/{t.denominator}" for t in terms]


def verdict_summary(verdict: seqlab.SequenceVerdict) -> dict:
    """The exact part of a verdict: outcome, order and coefficients."""
    out = verdict.outcome
    if isinstance(out, seqlab.RecurrenceModel):
        return {"type": "recurrence", "order": out.order,
                "coefficients": frac_strings(out.coefficients),
                "rhoSource": verdict.rho_source}
    return {"type": "no-recurrence", "orderCap": out.order_cap,
            "termsUsed": out.terms_used, "rhoSource": verdict.rho_source}


def write_models(workdir: str, names) -> dict[str, str]:
    paths = {}
    for name in names:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(MODEL_FILES[name], fh)
        paths[name] = path
    return paths


def within_sigmas(est_mean: float, est_se: float, exact: float) -> bool:
    return math.isfinite(est_mean) and abs(est_mean - exact) <= MC_SIGMAS * est_se


class Workload:
    name = ""
    models: tuple[str, ...] = ()

    def __init__(self, size: str, workdir: str, reference: dict):
        self.size = SIZES[size]
        self.workdir = workdir
        self.reference = reference
        self.paths = write_models(workdir, self.models)
        self.model = {m: walk_model.load_model(p) for m, p in self.paths.items()}

    def oracle_request(self) -> list[tuple[str, str]]:
        """(model, kind) pairs whose first ORACLE_TERMS terms the checks need."""
        return []

    def run(self, seed: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict, oracle: dict) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def report_bytes(self, out: dict) -> int:
        """Bytes of report files the iteration wrote."""
        return 0


class AnalyzeInterior(Workload):
    name = "analyze-interior"
    models = ("five-step",)

    def oracle_request(self):
        return [("five-step", "survival"), ("five-step", "excursion")]

    def run(self, seed):
        outdir = os.path.join(self.workdir, "analyze-out")
        doc, code = cli.run_report([
            "analyze", "--model", self.paths["five-step"],
            "--horizon", str(self.size["horizon"]),
            "--target", ",".join(map(str, EXCURSION_TARGET)),
            "--samples", str(self.size["samples"]), "--seed", str(seed),
            "--out", outdir,
        ])
        return {"code": code, "outdir": outdir}

    def check(self, out, oracle):
        ref = self.reference
        checks = [("exit_code_0", out["code"] == 0)]
        with open(os.path.join(out["outdir"], "report.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for block in ("sequences", "bounds", "verdicts"):
            checks.append((f"{block}_digest", digest(doc.get(block)) == ref[block]))
        surv = doc["sequences"]["survival"]["terms"]
        exc = doc["sequences"]["excursion"]["terms"]
        checks.append(("survival_oracle", surv[:ORACLE_TERMS] == oracle["five-step/survival"]))
        checks.append(("excursion_oracle", exc[:ORACLE_TERMS] == oracle["five-step/excursion"]))
        a_n = float(Fraction(surv[self.size["horizon"]]))
        for block in doc["mc"]:
            checks.append((f"mc_{block['method']}_within_4sigma",
                           within_sigmas(block["mean"], block["stdError"], a_n)))
        return checks

    def report_bytes(self, out) -> int:
        outdir = out["outdir"]
        return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


class ExactExterior(Workload):
    name = "exact-exterior"
    models = ("exterior", "octant-3d")

    def oracle_request(self):
        return [("exterior", "survival"), ("octant-3d", "survival")]

    def run(self, seed):
        ext, oct3 = self.model["exterior"], self.model["octant-3d"]
        s = self.size
        analysis = laplace.analyze(ext.dist, ext.cone)
        surv = exact_dp.survival_sequence(ext, s["ext_n"])
        verdict = seqlab.sequence_verdict(surv.terms, s["kmax"], rho=analysis.rho)
        tilted = exact_dp.tilted_survival_functional(ext, analysis.t0, s["tilted_n"])
        surv3 = exact_dp.survival_sequence(oct3, s["oct_n"])
        return {"analysis": analysis, "surv": surv, "verdict": verdict,
                "tilted": tilted, "surv3": surv3}

    def check(self, out, oracle):
        ref = self.reference
        surv = frac_strings(out["surv"].terms)
        surv3 = frac_strings(out["surv3"].terms)
        analysis = out["analysis"]
        shift = math.exp(sum(a * b for a, b in zip(analysis.t0, self.model["exterior"].start)))
        worst = max(
            abs(f * analysis.rho ** k * shift - float(a)) / float(a)
            for k, (f, a) in enumerate(zip(out["tilted"], out["surv"].terms))
        )
        return [
            ("exterior_survival_digest", digest(surv) == ref["exterior_survival"]),
            ("octant3d_survival_digest", digest(surv3) == ref["octant3d_survival"]),
            ("exterior_verdict_digest",
             digest(verdict_summary(out["verdict"])) == ref["exterior_verdict"]),
            ("exterior_oracle", surv[:ORACLE_TERMS] == oracle["exterior/survival"]),
            ("octant3d_oracle", surv3[:ORACLE_TERMS] == oracle["octant-3d/survival"]),
            ("tilted_reconstruction",
             len(out["tilted"]) == self.size["tilted_n"] + 1 and worst <= TILT_REL_TOL),
        ]


class McRare(Workload):
    name = "mc-rare"
    models = ("exterior", "wedge")

    def run(self, seed):
        ext, wedge = self.model["exterior"], self.model["wedge"]
        n, samples = self.size["mc_n"], self.size["mc_samples"]
        a_ext = laplace.analyze(ext.dist, ext.cone)
        a_wedge = laplace.analyze(wedge.dist, wedge.cone)
        return {
            "plain": mc.simulate_survival(ext, n, samples, seed, workers=1),
            "tilted_w1": mc.simulate_tilted(ext, a_ext, n, samples, seed, workers=1),
            "tilted_w2": mc.simulate_tilted(ext, a_ext, n, samples, seed, workers=2),
            "wedge_w2": mc.simulate_tilted(wedge, a_wedge, n, samples, seed, workers=2),
        }

    def check(self, out, oracle):
        plain, t1, t2, wedge = (out[k] for k in ("plain", "tilted_w1", "tilted_w2", "wedge_w2"))
        exact = float(Fraction(self.reference["a_n"]))
        hits = plain.mean * plain.samples
        return [
            ("plain_hit_count", 0.0 <= plain.mean <= 1.0 and hits == round(hits)),
            ("tilted_within_4sigma", within_sigmas(t1.mean, t1.std_error, exact)),
            ("tilted_workers_bit_identical",
             (t1.mean, t1.std_error) == (t2.mean, t2.std_error)),
            ("wedge_finite_positive",
             math.isfinite(wedge.mean) and wedge.mean > 0
             and math.isfinite(wedge.std_error) and wedge.std_error > 0),
        ]


WORKLOADS = {w.name: w for w in (AnalyzeInterior, ExactExterior, McRare)}


def oracle_terms(requests: list[tuple[str, str]], workdir: str) -> dict[str, list[str]]:
    """First ORACLE_TERMS terms by exhaustive path enumeration."""
    paths = write_models(workdir, sorted({m for m, _ in requests}))
    out = {}
    for name, kind in requests:
        model = walk_model.load_model(paths[name])
        n = ORACLE_TERMS - 1
        terms = (walk_model.brute_force_survival(model, n) if kind == "survival"
                 else walk_model.brute_force_excursion(model, EXCURSION_TARGET, n))
        out[f"{name}/{kind}"] = frac_strings(terms)
    return out
