"""Command-line shell over experiments.py: parse argv, dispatch, write outputs.

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
    EXIT_CODES,
    fit_decay_prefactor,
    parse_config,
    run_alh,
    run_decay,
    run_entropy,
    run_gradient_estimate,
    run_validate,
    run_w2_growth,
    run_zvonkin,
    worst_verdict,
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


def _runners() -> dict:
    """Experiment name -> run function, in `all` order.  Built at call time from
    this module's globals, so wrappers installed on them from outside see every call."""
    return {"validate": run_validate, "zvonkin": run_zvonkin, "decay": run_decay,
            "entropy": run_entropy, "alh": run_alh, "growth": run_w2_growth,
            "gradient": run_gradient_estimate}


def _dispatch(name: str, config, done: dict):
    """Run one experiment; ``done`` holds the reports already run on ``config``."""
    if name == "gradient":
        # Reuse the entropy and decay constants an earlier pass already fitted.
        known = {}
        if "entropy" in done:
            known["entropy_constant"] = done["entropy"].records["entropy_constant"]
        if "decay" in done:
            known["decay_prefactor"] = fit_decay_prefactor(config, done["decay"])
        return run_gradient_estimate(config, **known)
    return _runners()[name](config)


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


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathcouple",
        description="Monte Carlo checks for path-distribution dependent SDEs "
        "with exponentially weighted memory.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in (*_runners(), "all", "report"):
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
        # Each report opens with a "[VERDICT] name" header line.
        return EXIT_CODES[worst_verdict(line[1:].partition("]")[0]
                                        for line in text.splitlines() if line.startswith("["))]

    names = list(_runners()) if args.command == "all" else [args.command]
    done = {}
    try:
        config = parse_config(args.config)
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
    return EXIT_CODES[worst_verdict(r.verdict for r in reports)]


def main() -> None:
    sys.exit(cli_main())
