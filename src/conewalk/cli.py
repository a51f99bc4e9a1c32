"""Command-line entry point.

Subcommands: analyze | enumerate | excursion | rho | bounds | guess | simulate.
Exit codes: 0 success, 2 validation error, 3 resource-budget error.
"""

from __future__ import annotations

import argparse
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
    p.add_argument("command", choices=("analyze", "enumerate", "excursion", "rho",
                                       "bounds", "guess", "simulate"))
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    p.add_argument("--target", type=str, default=None,
                   help="comma-separated lattice point, e.g. '0,0'")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
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
    if bounds is None:
        rho = analysis.rho if analysis is not None else None
    else:  # the remainder's own rate; with too few terms, L(t0) = 1 of the interior drift
        rho = 1.0 if len(seq.terms) < seqlab.MIN_RATE_TERMS else None
    kmax = min(kmax, (len(seq.terms) - seqlab.MIN_EXTRA_TERMS) // 2)
    return seqlab.sequence_verdict(seq.terms, kmax, rho=rho,
                                   a_inf=bounds.a_inf if bounds is not None else None)


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
        if command == "simulate" and args.samples == 0:
            raise ConewalkError("simulate needs --samples > 0")
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
                try:
                    fit = seqlab.excursion_exponent_fit(
                        excursion.terms, analysis.rho_global, (horizon // 4, horizon))
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
            doc["mc"] = [report.mc_block(e) for e in mc.survival_estimates(
                model, analysis, horizon, args.samples, args.seed)]

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
