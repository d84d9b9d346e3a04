"""Command-line interface: fit, fic, safic, simulate, moran."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .diagnostics import aic, morans_i
from .errors import InputError, NumericalError
from .focus import FocusSpec
from .io import config_from_json, json_text, load_dataset, run_report_to_json, write_report
from .simulate import fic_table, monte_carlo, safic_table
from .slm import fit_mle
from .submodels import SubmodelId

_FOCUS_BY_FLAG = {
    "mean": "conditional_mean",
    "maxvar": "max_eigen",
    "beta": "beta_coeffs",
    "spill": "spillover",
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1); argparse would exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _add_data_args(p: argparse.ArgumentParser, table: bool = False):
    p.add_argument("--data", required=True, help="CSV table with a header row")
    p.add_argument("--weights", required=True, help="dense n x n CSV or i,j,w edge list")
    p.add_argument("--response", required=True, help="name of the response column")
    p.add_argument("--columns", help="comma-separated covariate columns (default: all others)")
    p.add_argument("--row-normalize", action="store_true")
    p.add_argument("--out", help="output file (default: stdout)")
    if table:  # a ranked table, as JSON or CSV
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="slmfic",
        description="Spatial lag model fitting and focused variable selection",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of one submodel")
    _add_data_args(p_fit)
    p_fit.add_argument("--subset", help="comma-separated covariate names to include "
                       "(default: all; '' for none)")

    p_fic = sub.add_parser("fic", help="rank all submodels by the focused criterion")
    _add_data_args(p_fic, table=True)
    p_fic.add_argument("--focus", choices=tuple(_FOCUS_BY_FLAG), default="mean")
    p_fic.add_argument("--location", type=int, help="unit index for --focus mean (default: 0)")

    p_saf = sub.add_parser("safic", help="rank all submodels by the spatially averaged criterion")
    _add_data_args(p_saf, table=True)
    p_saf.add_argument("--scheme", choices=("uniform", "kernel"), default="uniform")
    p_saf.add_argument("--z0", help="comma-separated kernel center (default: row of --location)")
    p_saf.add_argument("--location", type=int, help="row that centres the kernel (default: 0)")
    p_saf.add_argument("--bandwidth", type=float)

    p_sim = sub.add_parser("simulate", help="seeded Monte-Carlo experiment")
    p_sim.add_argument("--config", required=True, help="JSON file mirroring SimConfig")
    p_sim.add_argument("--reps", type=int, help="override replication count")
    p_sim.add_argument("--seed", type=int, help="override RNG seed")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--out", help="output file (default: stdout)")

    p_mor = sub.add_parser("moran", help="Moran's I test of the response column")
    _add_data_args(p_mor)
    return ap


def _dataset_from_args(args):
    columns = args.columns.split(",") if args.columns else None
    return load_dataset(
        args.data,
        args.weights,
        response=args.response,
        columns=columns,
        row_normalize=args.row_normalize,
    )


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fit(args) -> int:
    data = _dataset_from_args(args)
    if args.subset is None:
        S = SubmodelId.wide(data.p)
    else:
        wanted = args.subset.split(",") if args.subset else []  # '' is the narrow model S1
        missing = [c for c in wanted if c not in data.names]
        if missing:
            raise InputError(f"unknown covariates in --subset: {missing}")
        for k, c in enumerate(wanted):
            if c in wanted[:k]:
                raise InputError(f"--subset: covariate {c!r} is listed twice")
        S = SubmodelId.from_indices([data.names.index(c) for c in wanted], data.p)
    fit = fit_mle(data, S)
    payload = {
        "submodel": S.label(),
        "variables": list(S.variable_names(data.names)),
        "rho": fit.theta_hat.rho,
        "sigma2": fit.theta_hat.sigma2,
        "beta": dict(zip(S.variable_names(data.names), fit.theta_hat.beta.tolist())),
        "loglik": fit.loglik,
        "aic": aic(fit),
        "iterations": fit.iterations,
    }
    _emit(json_text(payload), args.out)
    return 0


def _location(args, data, used: bool, where: str) -> int | None:
    """The unit of --location (default 0) if used, else None: an input error
    if it is out of range, or given where nothing reads it."""
    if not used:
        if args.location is not None:
            raise InputError(f"--location applies to {where} only")
        return None
    i = 0 if args.location is None else args.location
    if not 0 <= i < data.n:
        raise InputError(f"--location {i} out of range for n={data.n}")
    return i


def _cmd_fic(args) -> int:
    data = _dataset_from_args(args)
    kind = _FOCUS_BY_FLAG[args.focus]
    spec = FocusSpec(kind, location=_location(args, data, kind == "conditional_mean",
                                              "--focus mean"))
    rows = fic_table(spec, data)
    _emit(write_report(rows, None, fmt=args.format), args.out)
    return 0


def _cmd_safic(args) -> int:
    for flag, value in (("--z0", args.z0), ("--bandwidth", args.bandwidth)):
        if args.scheme == "uniform" and value is not None:
            raise InputError(f"{flag} applies to --scheme kernel only")
    data = _dataset_from_args(args)
    i = _location(args, data, args.scheme == "kernel" and args.z0 is None,
                  "--scheme kernel without --z0")
    z0 = None if i is None else data.X[i]
    if args.z0 is not None:
        try:
            z0 = [float(v) for v in args.z0.split(",")]
        except ValueError as exc:
            raise InputError(f"--z0 {args.z0!r}: {exc}") from None
    rows = safic_table(data, scheme=args.scheme, z0=z0, bandwidth=args.bandwidth)
    _emit(write_report(rows, None, fmt=args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = config_from_json(args.config)
    overrides = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    report = monte_carlo(cfg, jobs=args.jobs)
    _emit(run_report_to_json(report), args.out)
    return 0


def _cmd_moran(args) -> int:
    data = _dataset_from_args(args)
    res = morans_i(data.Y, data.W)
    payload = {
        "I": res.I,
        "expected": res.expected,
        "z": res.z,
        "p_value": res.p_value,
    }
    _emit(json_text(payload), args.out)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "fic": _cmd_fic,
    "safic": _cmd_safic,
    "simulate": _cmd_simulate,
    "moran": _cmd_moran,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
