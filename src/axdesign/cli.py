"""Command-line front end.

Four subcommands over a JSON design-spec file:

* ``classify`` — coupling structure of the design matrix. Exit code 0 for
  uncoupled/decoupled, 2 for coupled, 3 for degenerate.
* ``info`` — per-FR and system information content. The estimation route
  is chosen by ``--method``: ``analytic`` (independent per-FR pdfs),
  ``chain`` (conditional Monte Carlo along a dependency-safe order),
  ``joint`` (plain joint Monte Carlo), or ``auto`` — analytic whenever
  every FR has a system pdf and the design is uncoupled (or there is no
  dependency structure to speak of), otherwise the Monte Carlo route that
  fits the classification. Exit 4 when the requested route cannot run or
  a linear model's samples overflow float64, 5 when a tank run diverges.
* ``simulate`` — run the tank scenario, optionally write the per-cycle
  samples as CSV (``--out``), and report the empirical information
  content. Exit 5 if the simulation diverges.
* ``validate`` — report FRs with a zero-width design range or with no
  system range source (no system pdf, design matrix or scenario); exit 1
  if there are any. Structural errors already fail at parse.

Parse, validation and flag failures exit 1 with a message on stderr, and
so does a text report that stdout cannot encode. All report output is
deterministic: the same spec, seed, and flags give byte-identical stdout.

A call costs what its work needs. The argument parser is built once, when
this module is imported, and every :func:`main` call reuses it; an argv
that starts with a command reaches that command's parser in one pass. scipy
is not imported until a Normal pdf needs its CDF or a draw, so ``classify``,
``validate`` and specs without Normal pdfs never load it, and
``numpy.random`` loads on the first draw.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .coupling import (Coupled, Decoupled, Degenerate, Uncoupled, checked_epsilon,
                       classify)
from .distributions import RngState
from .errors import NonFiniteSamples, SimulationDivergence, SpecFormatError
from .info import (McConfig, conditional_chain_information, fr_information,
                   system_information_from_samples,
                   system_information_independent, system_information_joint)
from .model import DesignSpec, made_at, parse_spec, validate_spec
from .propagation import LinearModel, ScenarioModel, simulate_tank
from .report import (classification_doc, info_doc, render_json, render_text,
                     spec_echo)

__all__ = ["main"]


class _Inapplicable(Exception):
    """Requested estimation method cannot run on this spec (exit 4)."""


class _Parser(argparse.ArgumentParser):
    # Argparse's default usage-error exit code (2) would collide with the
    # "coupled" outcome; fold usage errors into the validation-failure code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="axdesign",
        description="Coupling classification and information-content "
                    "analysis for engineering design specs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_format(p, out_help):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default: json)")
        p.add_argument("--out", metavar="PATH", help=out_help)

    p = sub.add_parser("classify", help="classify design-matrix coupling")
    p.add_argument("spec_path", help="design spec JSON file")
    p.add_argument("--epsilon", type=float, default=None, metavar="E",
                   help="magnitude at or below which matrix entries count "
                        "as zero (overrides the spec's value)")
    add_format(p, "write the report to PATH instead of stdout")

    p = sub.add_parser("info", help="compute information content in bits")
    p.add_argument("spec_path", help="design spec JSON file")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default: 0)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo sample count (default: 100000)")
    p.add_argument("--method", choices=("auto", "analytic", "chain", "joint"),
                   default="auto", help="estimation route (default: auto)")
    p.add_argument("--epsilon", type=float, default=None, metavar="E",
                   help="matrix zero threshold used for classification")
    add_format(p, "write the report to PATH instead of stdout")

    p = sub.add_parser("simulate", help="run the tank scenario simulator")
    p.add_argument("spec_path", help="design spec JSON file with a scenario block")
    p.add_argument("--cycles", type=int, default=None,
                   help="number of cycles (default: the scenario's setting)")
    p.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    add_format(p, "write the per-cycle samples to PATH as CSV")

    p = sub.add_parser("validate", help="check a spec file beyond parsing")
    p.add_argument("spec_path", help="design spec JSON file")
    add_format(p, "write the report to PATH instead of stdout")

    return parser, sub.choices


# parse_args keeps no state between calls, so one parser serves them all.
_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv):
    """``_PARSER.parse_args(argv)``: an argv that starts with a command goes
    to that command's parser alone, as the top level would hand it on."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "info": _cmd_info,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (SpecFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _Inapplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonFiniteSamples as exc:
        print(f"error: {exc}: the model's values overflow float64", file=sys.stderr)
        return 4
    except SimulationDivergence as exc:
        print(f"error: simulation diverged at {exc}", file=sys.stderr)
        return 5


def _load(path: str) -> DesignSpec:
    try:
        # utf-8-sig drops a leading byte-order mark (RFC 8259, section 8.1).
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec file: {exc}") from exc
    return parse_spec(text)


def _epsilon(args, spec: DesignSpec) -> float:
    if args.epsilon is None:
        return spec.epsilon
    return made_at("--epsilon", checked_epsilon, args.epsilon)


def _emit(doc: dict, args, to_out_file: bool) -> None:
    payload = render_json(doc) if args.format == "json" else render_text(doc)
    if to_out_file and args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return
    try:
        sys.stdout.write(payload)
    except UnicodeEncodeError as exc:
        # A text stream encodes the whole string before it writes any of it.
        out = "--out, which is written as UTF-8, or " if to_out_file else ""
        raise OSError(f"stdout's encoding ({exc.encoding}) cannot write this report: "
                      f"use {out}--format json, which is ASCII") from None


def _cmd_classify(args) -> int:
    spec = _load(args.spec_path)
    if spec.matrix is None:
        raise SpecFormatError("no design matrix in spec; classification needs one")
    eps = _epsilon(args, spec)
    cls = classify(spec.matrix, eps)
    doc = {
        "command": "classify",
        "spec": spec_echo(spec),
        "epsilon": eps,
        "classification": classification_doc(cls, spec.fr_ids(), spec.dp_ids()),
        "warnings": [],
    }
    _emit(doc, args, to_out_file=True)
    return {"uncoupled": 0, "decoupled": 0, "coupled": 2, "degenerate": 3}[cls.kind]


def _cmd_validate(args) -> int:
    spec = _load(args.spec_path)
    issues = validate_spec(spec)
    doc = {
        "command": "validate",
        "spec": spec_echo(spec),
        "valid": not issues,
        "issues": list(issues),
    }
    _emit(doc, args, to_out_file=True)
    return 0 if not issues else 1


def _build_model(spec: DesignSpec):
    """Sampling model for the Monte Carlo routes, or None when the spec
    gives nothing to sample from."""
    if spec.scenario is not None:
        return ScenarioModel(spec.scenario)
    if spec.matrix is not None:
        dp_pdfs = [dp.nominal if dp.uncertainty is None else dp.uncertainty
                   for dp in spec.dps]
        noise = None
        if spec.noise_pdfs:
            noise = [spec.noise_pdfs.get(fr.id) for fr in spec.frs]
        return LinearModel(spec.matrix, dp_pdfs, noise)
    return None


def _route(method: str, cls, spec: DesignSpec, model) -> str:
    """The route ``info`` runs: ``method``, or the one ``auto`` picks from
    the pdfs, the classification and the sampling model."""
    missing = [fr.id for fr in spec.frs if fr.id not in spec.system_pdfs]
    independent = cls is None or isinstance(cls, (Uncoupled, Degenerate))
    if method == "auto" and not missing and independent:
        return "analytic"
    if method == "auto" and model is not None:
        return "chain" if isinstance(cls, Decoupled) else "joint"
    # No model means no matrix, so cls is None and auto has already taken
    # the analytic route unless some FR lacks a system pdf.
    if method == "auto":
        raise _Inapplicable(
            "no estimation route available: FRs lack system pdfs and the spec "
            "offers nothing to sample")
    if method == "analytic" and missing:
        raise _Inapplicable(
            f"analytic route requires a system pdf for every FR "
            f"(missing: {', '.join(missing)})")
    if method == "analytic" and not independent:
        raise _Inapplicable(
            f"analytic route assumes independent FRs but the design is "
            f"{cls.kind}; use --method chain or joint")
    if method != "analytic" and model is None:
        raise _Inapplicable(
            f"the {method} estimator needs a sampling model: a scenario "
            "block or a design matrix to propagate DP pdfs through")
    return method


def _cmd_info(args) -> int:
    spec = _load(args.spec_path)
    made_at("--seed", RngState, args.seed)
    mc = made_at("--samples", McConfig, seed=args.seed, n_samples=args.samples)
    if spec.scenario is not None:  # one simulated cycle per sample
        made_at("--samples", replace, spec.scenario, cycles=args.samples)
    eps = _epsilon(args, spec)
    cls = classify(spec.matrix, eps) if spec.matrix is not None else None

    model = _build_model(spec)
    method = _route(args.method, cls, spec, model)

    warnings: list[str] = []

    if method == "analytic":
        if cls is None:
            warnings.append("no design matrix; FR outcomes treated as independent")
        elif isinstance(cls, Degenerate):
            warnings.append(
                f"design is degenerate ({cls.reason.value.replace('_', ' ')}); "
                "FR outcomes treated as independent")
        results = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
                   for fr in spec.frs]
        report = system_information_independent(results, spec.frs)
    else:
        if isinstance(model, LinearModel) and \
                all(dp.uncertainty is None for dp in spec.dps) and not spec.noise_pdfs:
            warnings.append(
                "sampling model is deterministic (no DP uncertainty, no noise "
                "pdfs); probabilities are exactly 0 or 1")
        if method == "chain":
            if isinstance(cls, Decoupled):
                order = [fr_idx for fr_idx, _ in cls.order]
            else:
                order = list(range(len(spec.frs)))
                if isinstance(cls, Coupled):
                    warnings.append(
                        "chain decomposition of a coupled design: per-link "
                        "values depend on the chosen order; the system total "
                        "is still a valid joint estimate")
            report = conditional_chain_information(model, order, spec.frs, mc)
        else:
            report = system_information_joint(model, spec.frs, mc)

    doc = {
        "command": "info",
        "spec": spec_echo(spec),
        "epsilon": eps,
        "classification": (classification_doc(cls, spec.fr_ids(), spec.dp_ids())
                           if cls is not None else None),
        "info": info_doc(report, spec),
        "warnings": warnings + list(report.warnings),
    }
    _emit(doc, args, to_out_file=True)
    return 0


def _cmd_simulate(args) -> int:
    spec = _load(args.spec_path)
    if spec.scenario is None:
        raise SpecFormatError("no scenario block in spec; nothing to simulate")
    rng = made_at("--seed", RngState, args.seed)
    config = spec.scenario
    if args.cycles is not None:
        config = made_at("--cycles", replace, config, cycles=args.cycles)

    samples = simulate_tank(config, rng, columns=spec.fr_ids())
    if args.out:
        samples.to_csv(args.out)
    report = system_information_from_samples(samples.values, spec.frs, seed=args.seed)
    doc = {
        "command": "simulate",
        "spec": spec_echo(spec),
        "cycles": config.cycles,
        "seed": args.seed,
        "csv": args.out if args.out else None,
        "info": info_doc(report, spec),
        "warnings": list(report.warnings),
    }
    _emit(doc, args, to_out_file=False)
    return 0
