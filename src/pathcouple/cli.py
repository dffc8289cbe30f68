"""Command-line shell over experiments.py: parse argv, dispatch, write outputs.

Exit codes: 0 all checks pass, 1 configuration/validation error (or, for
`report`, a missing or malformed summary), 2 numerical failure (blow-up,
solver failure), 3 at least one check failed, 4 all checks ran but some were
inconclusive.  Each error class in errors.py carries its own code and label.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .errors import ConfigurationError, PathcoupleError
from .experiments import (
    EXIT_CODES,
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


def _runners() -> dict:
    """Experiment name -> run function, in `all` order.  Built at call time from
    this module's globals, so wrappers installed on them from outside see every call."""
    return {"validate": run_validate, "zvonkin": run_zvonkin, "decay": run_decay,
            "entropy": run_entropy, "alh": run_alh, "growth": run_w2_growth,
            "gradient": run_gradient_estimate}


def _check_output_dir(out_dir: Path) -> None:
    """Reject an output path that is a file or lies below one, before any run."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                where = "" if path == out_dir else f" lies below {path}, which"
                raise ConfigurationError(f"output {out_dir}{where} is not a directory")
            return


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
        try:
            text = summary.read_text()
        except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
            print(f"cannot read {summary}: {exc}", file=sys.stderr)
            return 1
        print(text, end="")
        # Each report opens with a "[VERDICT] name" header line.
        verdicts = [line[1:].partition("] ")[0] for line in text.splitlines()
                    if line.startswith("[")]
        if not verdicts or not set(verdicts) <= EXIT_CODES.keys():
            print(f"{summary} has no [VERDICT] name header or an unknown verdict",
                  file=sys.stderr)
            return 1
        return EXIT_CODES[worst_verdict(verdicts)]

    names = list(_runners()) if args.command == "all" else [args.command]
    try:
        config = parse_config(args.config)
        out_dir = Path(args.output or config.output_dir)
        _check_output_dir(out_dir)
        # Work shared by several experiments is cached on the config, so runs once.
        reports = [_runners()[name](config) for name in names]
    except PathcoupleError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code

    _write_outputs(reports, out_dir)
    for report in reports:
        print("\n".join(report.lines()))
    return EXIT_CODES[worst_verdict(r.verdict for r in reports)]


def main() -> None:
    sys.exit(cli_main())
