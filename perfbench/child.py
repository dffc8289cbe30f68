"""One workload process (started by run.py).

Imports pathcouple and parses the configs, then repeats the workload in this
interpreter: each repetition runs the experiments back to back through the
`pathcouple` command-line entry point, one output directory per experiment
under `rep<k>/`, and times a fixed reference kernel before each experiment
and after the last.  Repetitions cycle through the configs (one per derived
seed); with --trace 1 they all use the first config and alternate untraced
and traced.  After --min-reps, a repetition starts only if one as long as
the longest so far still ends before --deadline.

Writes `result.json` into --out: the set-up time (fresh interpreter to parsed
configs) on the parent's monotonic clock and two reference-kernel times
taken right after set-up, then per repetition its wall time,
the reference-kernel times, exit codes and, when traced, the per-layer
metrics (spans go to `rep<k>/spans.csv`), and the peak RSS of the process.  With --setup-only it
stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class ReferenceKernel:
    """Times a fixed mix of the work the workloads do: an interpreter loop, many
    NumPy calls on a small array, passes over a 2 MB array and a small matmul.

    On a shared host the CPU speed can drift by tens of percent within
    minutes, so this same work is timed between experiments and the times
    are reported at the speed it implies (see run.py).  Every array is
    allocated and touched once here, so the allocator state the experiments
    leave behind does not change what a call costs.
    """

    def __init__(self, repeats: int = 72):
        import numpy as np

        self.np, self.repeats = np, repeats
        self.x = np.linspace(1.0, 2.0, 1 << 18)
        self.big = np.empty_like(self.x)
        self.small = np.empty(1024)
        self.m = np.linspace(0.0, 1.0, 100 * 100).reshape(100, 100)
        self.mm = np.empty_like(self.m)
        self()

    def __call__(self) -> float:
        np, x, big, small = self.np, self.x, self.big, self.small
        t = time.perf_counter()
        for _ in range(self.repeats):
            s = 0
            for i in range(20000):
                s += i * i
            small[:] = x[:1024]
            for _ in range(200):
                np.multiply(small, small, out=small)
                np.add(small, 1.0, out=small)
                np.sqrt(small, out=small)
            np.multiply(x, x, out=big)
            np.add(big, 1.0, out=big)
            np.sqrt(big, out=big)
            np.matmul(self.m, self.m, out=self.mm)
        return time.perf_counter() - t


def _repetition(cli_main, config: str, experiments: list, out: Path, tracer,
                reference: ReferenceKernel) -> dict:
    """Run the experiments once, with the reference kernel before each and after the last.

    wall_s sums the experiment calls (first call to last verdict, less the
    reference kernels in between).
    """
    exits, experiment_s, ref_s = {}, {}, []
    sink = io.StringIO()  # the CLI prints every report; summary.txt holds them
    for name in experiments:
        ref_s.append(reference())
        span = tracer.span(f"run.{name}") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sink):
                exits[name] = cli_main([name, "--config", config, "--output", str(out / name)])
        except Exception:  # an experiment that raises is a failed operation, not a crash
            traceback.print_exc()
            exits[name] = None
        experiment_s[name] = time.perf_counter() - t
    ref_s.append(reference())
    return {"wall_s": sum(experiment_s.values()), "experiment_s": experiment_s,
            "ref_s": ref_s, "exits": exits}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", required=True, help="comma-separated, one per derived seed")
    parser.add_argument("--out", required=True)
    parser.add_argument("--experiments", required=True, help="comma-separated, run in order")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.perf_counter() just before the spawn")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.perf_counter() by which the last repetition should end")
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from pathcouple.cli import cli_main
    from pathcouple.experiments import parse_config

    configs = args.configs.split(",")
    for config in configs:
        parse_config(config)
    ready = time.perf_counter()

    out = Path(args.out)
    reference = ReferenceKernel()
    result = {"setup_s": ready - args.spawned_at, "setup_ref_s": [reference(), reference()]}
    if not args.setup_only:
        from tracer import Tracer, instrument, layer_metrics

        experiments = args.experiments.split(",")
        reps = []
        while True:
            k = len(reps)
            traced = bool(args.trace) and k % 2 == 1
            if k >= args.min_reps:
                alike = [r for r in reps if r["traced"] == traced] or reps
                longest = max(r["wall_s"] + sum(r["ref_s"]) for r in alike)
                if time.perf_counter() + longest > args.deadline:
                    break
            index = 0 if args.trace else k % len(configs)
            rep_dir = out / f"rep{k:02d}"
            tracer = Tracer() if traced else None
            if tracer:
                instrument(tracer)
            try:
                rep = _repetition(cli_main, configs[index], experiments, rep_dir, tracer,
                                  reference)
            finally:
                if tracer:
                    tracer.restore()
            rep.update(config=index, traced=traced, dir=rep_dir.name)
            if tracer:
                rep["layers"] = layer_metrics(tracer, rep["wall_s"])
                tracer.write(rep_dir / "spans.csv")
            reps.append(rep)
        result.update(
            reps=reps,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions=_versions(),
        )
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
