"""Command-line entry point.

Subcommands: analyze | enumerate | excursion | rho | bounds | guess | simulate.
Exit codes: 0 success, 2 validation error, 3 resource-budget error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import exact_dp, laplace, mc, report, seqlab
from .errors import (
    ConewalkError,
    HorizonTooLarge,
    MemoryBudgetExceeded,
)
from .model import excursion_target, load_model

DEFAULT_HORIZON = 120
DEFAULT_KMAX = 30


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="conewalk")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("analyze", "enumerate", "excursion", "rho", "bounds",
                 "guess", "simulate"):
        sp = sub.add_parser(name)
        sp.add_argument("--model", required=True, help="model file path")
        sp.add_argument("--horizon", type=int, default=None)
        sp.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
        sp.add_argument("--target", type=str, default=None,
                        help="comma-separated lattice point, e.g. '0,0'")
        sp.add_argument("--samples", type=int, default=0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--normalize", action="store_true")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _parse_target(raw: str):
    try:
        return tuple(int(c) for c in raw.split(","))
    except ValueError:
        raise ConewalkError(
            f"--target must be comma-separated integers, got {raw!r}") from None


def _survival_verdict(seq, analysis, bounds, kmax):
    """Recurrence verdict on the survival terms; with escape bounds, on their
    remainder against ``bounds.a_inf``."""
    # the decay rate of the two-term remainder is not L(t0)
    rho = analysis.rho if analysis is not None and bounds is None else None
    if rho is None and len(seq.terms) < seqlab.MIN_RATE_TERMS:
        rho = 1.0  # too few terms to estimate a rate from the sequence
    kmax = min(kmax, (len(seq.terms) - seqlab.MIN_EXTRA_TERMS) // 2)
    return seqlab.sequence_verdict(seq.terms, kmax, rho=rho,
                                   a_inf=bounds.a_inf if bounds is not None else None)


def _tilt_is_plain(model, analysis) -> bool:
    """True iff the tilted estimate gets exactly the plain one's inputs
    (t0 = 0, rho = 1 and the model's own float step weights), so that it is
    the same deterministic computation."""
    return (all(c == 0.0 for c in analysis.t0) and analysis.rho == 1.0
            and [(v, float(w)) for v, w in analysis.tilted_steps]
            == [(v, float(w)) for v, w in model.dist.steps])


def run_report(argv) -> tuple[dict, int]:
    """Execute a CLI invocation; returns (report document, exit code)."""
    args = _parser().parse_args(argv)
    command = args.command
    try:
        model = load_model(args.model, normalize=args.normalize)
        horizon = args.horizon if args.horizon is not None else DEFAULT_HORIZON
        if horizon < 0:
            raise ConewalkError(f"--horizon must be non-negative, got {horizon}")
        if args.kmax < 1:
            raise ConewalkError(f"--kmax must be positive, got {args.kmax}")
        if args.samples < 0:
            raise ConewalkError(f"--samples must be non-negative, got {args.samples}")
        doc = report.base_report(model)
        sequences: dict[str, exact_dp.ExactSequence] = {}
        verdicts: dict = {}

        if command == "bounds" and (error := exact_dp.bounds_error(model)) is not None:
            raise error
        analysis = None
        try:
            analysis = laplace.analyze(model.dist, model.cone)
            doc["laplace"] = report.laplace_block(analysis)
        except ConewalkError:
            if command not in ("enumerate", "guess"):
                raise

        target = None
        if args.target is not None:
            target = excursion_target(model, _parse_target(args.target))
        elif command == "excursion":
            target = model.start

        # One pass yields survival, the excursion and, on a bounds model, the
        # escape bounds; without survival, the excursion's pass is pruned.
        survival = command in ("analyze", "enumerate", "guess")
        if survival:  # the verdict guesses a recurrence of order at least 1
            seqlab.require_terms(horizon + 1, 1)
        if survival or command == "bounds":
            seq, excursion, bounds = exact_dp.survival_pass(model, horizon, target)
            if bounds is not None and command in ("analyze", "bounds"):
                doc["bounds"] = report.bounds_block(bounds)
            if survival:
                sequences["survival"] = seq
                verdicts["survival"] = report.verdict_block(
                    _survival_verdict(seq, analysis, bounds, args.kmax))
        elif target is not None:
            excursion = exact_dp.excursion_sequence(model, target, horizon)

        if target is not None:
            sequences["excursion"] = excursion
            if analysis is not None and analysis.rho_global is not None:
                period = seqlab.detect_period(excursion.terms)
                lo = max(horizon // 4, period or 1)
                try:
                    fit = seqlab.excursion_exponent_fit(
                        excursion.terms, analysis.rho_global, (lo, horizon))
                    verdicts["excursionExponent"] = {
                        "provenance": "float",
                        "kappa": fit.kappa,
                        "residual": fit.residual,
                        "rhoGlobal": analysis.rho_global,
                        "period": period,
                    }
                except ConewalkError:
                    pass

        if command in ("analyze", "simulate") and args.samples > 0:
            estimates = [mc.simulate_survival(
                model, horizon, args.samples, args.seed)]
            if analysis is not None:
                estimates.append(
                    dataclasses.replace(estimates[0], method="tilted")
                    if _tilt_is_plain(model, analysis)
                    else mc.simulate_tilted(model, analysis, horizon, args.samples, args.seed))
            doc["mc"] = [report.mc_block(e) for e in estimates]
        elif command == "simulate":
            raise ConewalkError("simulate needs --samples > 0")

        doc["sequences"] = {name: report.sequence_block(seq)
                            for name, seq in sequences.items()}
        doc["verdicts"] = verdicts
        doc["assumptions"] = report.assumption_checklist(model, analysis)
        doc["regimeTags"] = report.regime_tags(model, analysis)

        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "report.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for name, seq in sequences.items():
                with open(os.path.join(args.out, f"{name}.csv"), "w",
                          encoding="utf-8") as fh:
                    fh.write(seq.to_csv())
        # --format csv prints the last sequence: the excursion if there is one
        doc["_stdout"] = (
            list(sequences.values())[-1].to_csv()
            if args.format == "csv" and sequences else None
        )
        return doc, 0
    except (MemoryBudgetExceeded, HorizonTooLarge) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, 3
    except (ConewalkError, OSError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, 2


def main(argv=None) -> int:
    doc, code = run_report(argv if argv is not None else sys.argv[1:])
    payload = doc.pop("_stdout", None)
    if payload is not None:
        sys.stdout.write(payload)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
