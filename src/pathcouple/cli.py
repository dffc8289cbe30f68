"""Command-line harness: run experiments from a config file, emit reports.

Exit codes: 0 all checks pass, 1 configuration/validation error, 2 numerical
failure (blow-up, solver failure), 3 at least one check failed, 4 all checks
ran but some were inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .errors import (
    BlowUpError,
    ConfigurationError,
    InvalidCoefficientError,
    LambdaExhaustedError,
    NotDiniError,
    OutOfDomainError,
    PathcoupleError,
    SingularDiffusionError,
    SolverFailureError,
)
from .experiments import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Report,
    fit_decay_prefactor,
    parse_config,
    run_alh,
    run_decay,
    run_entropy,
    run_gradient_estimate,
    run_w2_growth,
)

__all__ = ["cli_main", "main"]

_NUMERICAL_ERRORS = (
    BlowUpError,
    SolverFailureError,
    LambdaExhaustedError,
    SingularDiffusionError,
    OutOfDomainError,
)
_CONFIG_ERRORS = (ConfigurationError, InvalidCoefficientError, NotDiniError)

_EXPERIMENTS = ("validate", "zvonkin", "decay", "entropy", "alh", "growth", "gradient")


def _run_validate(config) -> Report:
    from .coefficients import validate_H

    coeffs = config.coefficients()
    result = validate_H(coeffs, sample_budget=64, rng_seed=config.seed)
    report = Report("hypothesis-validation")
    report.records.update(result.ratios)
    report.records["coefficients"] = coeffs.name
    if result.passed:
        report.add_check("declared hypothesis constants", PASS)
    else:
        for name in result.failures():
            report.add_check(f"hypothesis ratio {name}", FAIL,
                             f"ratio {result.ratios[name]:.4g} > 1")
    return report


def _run_zvonkin(config) -> Report:
    report = Report("zvonkin-transform")
    coeffs = config.coefficients()
    if coeffs.b0 is None:
        report.add_check("transform", PASS, "no irregular drift: transform is trivial")
        return report
    coeffs_hat, zmap = config.effective_coefficients()
    report.records.update(
        {
            "lambda": zmap.lam,
            "u_inf": zmap.u_inf,
            "grad_inf": zmap.grad_inf,
            "hess_inf": zmap.hess_inf,
            "residual": zmap.residual,
            "coefficients": coeffs.name,
        }
    )
    report.add_check("smallness ||u|| + ||grad u|| <= 1/2",
                     PASS if zmap.smallness <= 0.5 else FAIL,
                     f"{zmap.smallness:.4g}")
    bound = coeffs.b0_bound / zmap.lam + 10 * zmap.grid.dx**2
    report.add_check("resolvent maximum principle",
                     PASS if zmap.u_inf <= bound else FAIL,
                     f"||u|| = {zmap.u_inf:.4g} vs {bound:.4g}")
    return report


def _dispatch(name: str, config, done: dict) -> Report:
    """Run one experiment; ``done`` holds the reports already run on ``config``.

    The run_* names are looked up on this module at call time, so wrappers
    installed on them from outside see every call.
    """
    if name == "validate":
        return _run_validate(config)
    if name == "zvonkin":
        return _run_zvonkin(config)
    if name == "decay":
        return run_decay(config)
    if name == "entropy":
        return run_entropy(config)
    if name == "alh":
        return run_alh(config)
    if name == "growth":
        return run_w2_growth(config)
    if name == "gradient":
        # Reuse the entropy and decay constants an earlier pass already fitted.
        known = {}
        if "entropy" in done:
            known["entropy_constant"] = done["entropy"].records["entropy_constant"]
        if "decay" in done:
            known["decay_prefactor"] = fit_decay_prefactor(config, done["decay"])
        return run_gradient_estimate(config, **known)
    raise ConfigurationError(f"unknown experiment {name!r}")


def _write_outputs(reports, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for report in reports:
        lines.extend(report.lines())
        for table_name, (header, rows) in report.tables.items():
            path = out_dir / f"{report.name}_{table_name}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def _exit_code(reports) -> int:
    verdicts = [r.verdict for r in reports]
    if FAIL in verdicts:
        return 3
    if INCONCLUSIVE in verdicts:
        return 4
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathcouple",
        description="Monte Carlo checks for path-distribution dependent SDEs "
        "with exponentially weighted memory.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in (*_EXPERIMENTS, "all", "report"):
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("--output", default=None, help="report directory to summarize")
        else:
            p.add_argument("--config", required=True, help="path to key=value config file")
            p.add_argument("--output", default=None, help="output directory override")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    if args.command == "report":
        out_dir = Path(args.output or ".")
        summary = out_dir / "summary.txt"
        if not summary.exists():
            print(f"no summary found in {out_dir}", file=sys.stderr)
            return 1
        text = summary.read_text()
        print(text, end="")
        if f"[{FAIL}]" in text or f"  {FAIL}:" in text:
            return 3
        if f"[{INCONCLUSIVE}]" in text:
            return 4
        return 0

    try:
        config = parse_config(args.config)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    names = list(_EXPERIMENTS) if args.command == "all" else [args.command]
    done = {}
    try:
        for name in names:
            done[name] = _dispatch(name, config, done)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PathcoupleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = list(done.values())
    out_dir = Path(args.output or config.output_dir)
    _write_outputs(reports, out_dir)
    for report in reports:
        print("\n".join(report.lines()))
    return _exit_code(reports)


def main() -> None:
    sys.exit(cli_main())
