"""Report blocks: serializes the results of the pipeline stages the CLI runs.

Exact values are serialized as ``p/q`` strings plus a float rendering, and
every numeric block carries a ``provenance`` marker (exact / float / mc).
"""

from __future__ import annotations

from fractions import Fraction

from . import exact_dp, laplace, mc, seqlab
from .model import WalkModel

REPORT_VERSION = 1


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def assumption_checklist(model: WalkModel, analysis) -> dict:
    """Hypothesis checks the asymptotic theory rests on."""
    checks = {
        "truly_d_dimensional": model.dist.truly_d_dimensional,
        "interior_reachable": model.can_reach_interior,
        "dual_minimum_exists": analysis is not None,
        "global_minimum_exists": analysis is not None and analysis.rho_global is not None,
    }
    if model.interior_witness is not None:
        checks["interior_witness"] = {
            "length": model.interior_witness.length,
            "target": list(model.interior_witness.target),
        }
    return checks


def regime_tags(model: WalkModel, analysis) -> list[str]:
    tags = []
    if model.trapped:
        tags.append("trapped-constant-sequence")
    if analysis is not None:
        if analysis.classification is laplace.DriftClass.INTERIOR:
            tags.append("interior-drift-positive-escape")
            if exact_dp.bounds_error(model) is None:
                tags.append("interior-drift-two-term-decay")
        else:
            tags.append("exponential-survival-decay")
        if analysis.rho_global is not None:
            tags.append("excursion-power-law-decay")
    return sorted(tags)


def laplace_block(analysis: laplace.LaplaceAnalysis) -> dict:
    return {
        "provenance": "float",
        "t0": list(analysis.t0),
        "rho": analysis.rho,
        "drift": [_frac(c) for c in analysis.drift],
        "driftFloat": [float(c) for c in analysis.drift],
        "classification": analysis.classification.value,
        "kktResidual": analysis.kkt_residual,
        "tiltedDrift": list(analysis.tilted_drift),
        "tiltedWeights": [
            {"v": list(v), "w": w} for v, w in analysis.tilted_steps
        ],
        "t0Global": list(analysis.t0_global) if analysis.t0_global is not None else None,
        "rhoGlobal": analysis.rho_global,
    }


def sequence_block(seq: exact_dp.ExactSequence) -> dict:
    block = {
        "provenance": "exact",
        "kind": seq.kind,
        "horizon": seq.horizon,
        "terms": [_frac(t) for t in seq.terms],
        "floats": seq.floats(),
    }
    if seq.target is not None:
        block["target"] = list(seq.target)
    return block


def verdict_block(verdict: seqlab.SequenceVerdict) -> dict:
    out = verdict.outcome
    if isinstance(out, seqlab.RecurrenceModel):
        roots = []
        if out.decomposition is not None:
            for r, m in zip(out.decomposition.roots, out.decomposition.multiplicities):
                roots.append({"re": r.real, "im": r.imag, "multiplicity": m})
        outcome = {
            "type": "recurrence",
            "order": out.order,
            "coefficients": [_frac(c) for c in out.coefficients],
            "characteristicRoots": roots,
        }
    else:
        outcome = {
            "type": "no-recurrence",
            "orderCap": out.order_cap,
            "termsUsed": out.terms_used,
        }
    block = {
        "provenance": "exact+float",
        "outcome": outcome,
        "rhoHat": verdict.rho_hat,
        "rhoSource": verdict.rho_source,
        "bTrend": verdict.profile.trend,
        "bNthRootDeviation": verdict.profile.nth_root_dev,
    }
    if verdict.rate is not None:
        block["rateDiagnostics"] = {
            "rhoHat": verdict.rate.rho_hat,
            "rawNthRoot": verdict.rate.raw_nth_root,
            "fitWindow": list(verdict.rate.fit_window),
            "residual": verdict.rate.residual,
        }
    return block


def bounds_block(bounds: exact_dp.EscapeBounds) -> dict:
    lo, hi = bounds.best
    return {
        "provenance": "exact",
        "intervals": [
            {"n": n, "lo": _frac(l), "hi": _frac(h),
             "loFloat": float(l), "hiFloat": float(h)}
            for n, (l, h) in enumerate(bounds.intervals)
        ],
        "best": {"lo": _frac(lo), "hi": _frac(hi),
                 "loFloat": float(lo), "hiFloat": float(hi),
                 "width": float(hi - lo)},
    }


def mc_block(est: mc.McEstimate) -> dict:
    return {
        "provenance": "mc",
        "target": est.target,
        "mean": est.mean,
        "stdError": est.std_error,
        "samples": est.samples,
        "method": est.method,
        "seed": est.seed,
        "horizon": est.horizon,
    }


def base_report(model: WalkModel) -> dict:
    return {
        "reportVersion": REPORT_VERSION,
        "model": {**model.to_dict(), "hash": model.model_hash()},
        "flags": {
            "smallStep": model.small_step,
            "trapped": model.trapped,
            "canReachInterior": model.can_reach_interior,
        },
    }
