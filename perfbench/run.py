"""pathcouple benchmark: time to verdict on three workloads, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dini_verdicts --seed 0 --seconds 40 --trace 0

Load is one closed-loop client: one fresh interpreter (perfbench/child.py)
repeats the workload's experiments back to back, each repetition starting
when the previous one ends, until --seconds is used up.  BLAS threads are
capped at the number of usable CPUs.

--trace 0 first starts SETUP_PROBES set-up-only interpreters, then runs every
derived seed of the workload once, repeats the first, and keeps cycling while
--seconds allows.

On a shared host the CPU speed can drift by tens of percent within minutes,
which no median over one run cancels.  So a fixed reference kernel is timed
in the same process twice right after set-up, before every experiment and
after the last, and the two times below are reported at the reference speed,
the speed at which that kernel takes REF_S seconds: each measured time is
scaled by REF_S over the reference time measured next to it.  The times as
measured go to the run record and the text output.

- wall_ref_s: time to verdict, the experiment calls of one repetition from
  the first call to the last verdict.  Per seed it is REF_S times the total
  verdict time over the total of each repetition's mean reference time; the
  run reports the median over seeds.
- setup_s: fresh interpreter to parsed configs, scaled by its own
  interpreter's reference time; the median over all interpreters of the run.
- peak_rss_mb of the workload process, and check_pass_frac.

--trace 1 alternates untraced and traced repetitions of the first seed (at
least untraced, traced, untraced) and reports the per-layer metrics, medians
over the traced repetitions; the tracing overhead is traced minus untraced
wall time, and trace.ref_ms is the median reference-kernel time.

Every repetition is checked: each experiment's exit code, each verdict in its
summary.txt, and byte-identical outputs across repetitions of one seed.  A
failure is printed and counted in `failed`.  The last stdout line is the
JSON result; the run record goes to .perfbench_runs/<run>/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate_config

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
RUN_LIMIT_S = 170.0  # every run must end well within 180 s
VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")
COUNT_UNITS = ("count", "B")  # per-layer metrics that must repeat exactly
SETUP_PROBES = 2  # set-up-only processes per untraced run, besides the workload's own
REF_S = 0.2  # reference speed: the reference kernel takes REF_S seconds


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _first_line(path: str, prefix: str = ""):
    """Text after the first ':' of the first line starting with prefix (whole line if none)."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = root / ".git"
    head = _first_line(str(git / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _first_line(str(git / ref))
    if commit is None and (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return commit


def _hashes(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _verdicts(summary: Path) -> list:
    """(verdict, line) for every check line of a summary.txt."""
    out = []
    for line in summary.read_text().splitlines():
        head = line.strip().split(":", 1)[0]
        if line.startswith("  ") and head in VERDICTS:
            out.append((head, line.strip()))
    return out


class Run:
    """The processes of one benchmark invocation, their repetitions and checks."""

    def __init__(self, root: Path, workload, seed: int, trace: int, seconds: float):
        self.root, self.workload, self.trace, self.seconds = root, workload, trace, seconds
        self.seeds = workload.sub_seeds(seed)
        self.work = root / RUNS_DIR / f"{workload.name}-seed{seed}-trace{trace}"
        self.threads = len(os.sched_getaffinity(0))
        self.env = _child_env(root, self.threads)
        self.setup_samples: list[dict] = []  # per interpreter: setup_s, setup_ref_s
        self.reps: list[dict] = []  # repetitions of the workload process, in order
        self.peak_rss_mb = self.versions = None
        self.reference: dict = {}  # config index -> experiment -> file hashes
        self.checks_attempted = self.checks_failed = 0
        self.compares_attempted = self.compares_failed = 0
        self.harness_errors = 0
        self.t_start = time.perf_counter()

    def _configs(self) -> str:
        paths = []
        for seed in self.seeds:
            path = self.work / f"seed{seed}.cfg"
            if not path.exists():
                path.write_text(generate_config(self.root, self.workload, seed,
                                                self.work / f"seed{seed}-out"))
            paths.append(str(path))
        return ",".join(paths)

    def _spawn(self, out: Path, extra: list):
        """Run child.py with its output in out; its result, or None after reporting why."""
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--configs", self._configs(),
               "--out", str(out), "--experiments", ",".join(self.workload.experiments),
               "--trace", str(self.trace), *extra]
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        with open(out / "child.log", "w") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=self.root,
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        result_file = out / "result.json"
        if code != 0 or not result_file.exists():
            self.harness_errors += 1
            print(f"{out.name}: child exited with {code}; see {out / 'child.log'}",
                  file=sys.stderr)
            print((out / "child.log").read_text()[-2000:], file=sys.stderr)
            return None
        return json.loads(result_file.read_text())

    def execute(self) -> None:
        """Set-up probes (untraced runs only), then one process repeating the workload."""
        if not self.trace:
            for i in range(SETUP_PROBES):
                result = self._spawn(self.work / f"setup{i}", ["--setup-only"])
                if result is None:
                    return
                self.setup_samples.append(result)
        # Untraced: every derived seed once, then the first again (the repeat
        # is compared byte for byte).  Traced: untraced, traced, untraced.
        self.repeat(3 if self.trace else len(self.seeds) + 1)

    def repeat(self, min_reps: int) -> None:
        """One workload process: at least min_reps repetitions, more while time allows."""
        out = self.work / "workload"
        result = self._spawn(out, ["--deadline", repr(self.t_start + self.seconds),
                                   "--min-reps", str(min_reps)])
        if result is None:
            return
        self.setup_samples.append({k: result[k] for k in ("setup_s", "setup_ref_s")})
        self.peak_rss_mb, self.versions = result["peak_rss_mb"], result["versions"]
        for rep in result["reps"]:
            self._check(rep, out / rep["dir"])
            self.reps.append(rep)

    def _check(self, rep: dict, out: Path) -> None:
        reference = self.reference.setdefault(rep["config"], {})
        for name, code in rep["exits"].items():
            summary = out / name / "summary.txt"
            checks = _verdicts(summary) if summary.exists() else []
            self.checks_attempted += max(len(checks), 1)
            bad = checks if code != 0 else [c for c in checks if c[0] != "PASS"]
            if code != 0 and not checks:
                bad = [("ERROR", f"{name} exited with {code} and wrote no verdicts")]
            self.checks_failed += len(bad)
            for _, line in bad:
                print(f"{out.name}/{name}: exit {code}: {line}", file=sys.stderr)
            hashes = _hashes(out / name) if (out / name).is_dir() else {}
            if name not in reference:
                reference[name] = hashes
                continue
            self.compares_attempted += 1
            if hashes != reference[name]:
                self.compares_failed += 1
                diff = sorted(k for k in set(hashes) | set(reference[name])
                              if hashes.get(k) != reference[name].get(k))
                print(f"{out.name}/{name}: outputs differ from the first repetition of seed "
                      f"{self.seeds[rep['config']]}: {diff}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return self.checks_failed + self.compares_failed + self.harness_errors

    @property
    def attempted(self) -> int:
        return self.checks_attempted + self.compares_attempted + self.harness_errors

    def _walls(self, traced: bool) -> list:
        return [r for r in self.reps if r["traced"] == traced]

    def end_to_end(self) -> dict:
        """The end-to-end metrics; times at the reference speed (module docstring)."""
        plain = self._walls(False)
        per_seed = []
        for config in sorted({r["config"] for r in plain}):
            reps = [r for r in plain if r["config"] == config]
            per_seed.append(REF_S * sum(r["wall_s"] for r in reps)
                            / sum(statistics.mean(r["ref_s"]) for r in reps))
        return {
            "wall_ref_s": statistics.median(per_seed),
            "setup_s": statistics.median(REF_S * s["setup_s"] / statistics.mean(s["setup_ref_s"])
                                         for s in self.setup_samples),
            "peak_rss_mb": self.peak_rss_mb,
            "check_pass_frac": 1.0 - self.checks_failed / max(self.checks_attempted, 1),
        }

    def raw_wall_s(self) -> float:
        """Median over seeds of the median untraced wall time, in seconds as measured."""
        plain = self._walls(False)
        return statistics.median(
            statistics.median(r["wall_s"] for r in plain if r["config"] == c)
            for c in sorted({r["config"] for r in plain}))

    def raw_setup_s(self) -> float:
        return statistics.median(s["setup_s"] for s in self.setup_samples)

    def per_layer(self, counts) -> dict:
        """Medians over the traced repetitions; the named counts must repeat exactly."""
        traced = self._walls(True)
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - self.raw_wall_s()
        layers["trace.ref_ms"] = 1e3 * statistics.median(t for r in self.reps for t in r["ref_s"])
        for key in counts:
            values = {r["layers"][key] for r in traced}
            self.compares_attempted += 1
            if len(values) > 1:
                self.compares_failed += 1
                print(f"count {key} differs between traced repetitions: {sorted(values)}",
                      file=sys.stderr)
        return layers


def _machine() -> dict:
    cpu = _first_line("/proc/cpuinfo", "model name")
    l3 = _first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "l3_cache": l3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pathcouple" / "__init__.py").is_file():
        return _fail(f"no pathcouple sources under {root / 'src'}; run from a checkout root")
    bench_file = root / "BENCHMARK.json"
    if not bench_file.is_file():
        return _fail(f"no BENCHMARK.json in {root}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 2**32:
        return _fail("seed must lie in [0, 2**32)")
    bench = json.loads(bench_file.read_text())

    run = Run(root, WORKLOADS[args.workload], args.seed, args.trace, args.seconds)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    run.execute()

    complete = run.harness_errors == 0
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
    values = (run.per_layer(counts) if args.trace else run.end_to_end()) if complete else {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    if complete and len(metrics) != len(spec):
        missing = sorted({m["name"] for m in spec} - set(metrics))
        return _fail(f"metrics not computed: {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": run.seeds,
        "trace": args.trace,
        "seconds": args.seconds,
        **_machine(),
        "versions": run.versions,
        "blas_thread_cap": run.threads,
        "git_commit": _git_commit(root),
        "check_fail_frac": run.checks_failed / max(run.checks_attempted, 1),
        "wall_s": run.raw_wall_s() if complete else None,
        "raw_setup_s": run.raw_setup_s() if complete else None,
        "tracing_overhead_s": values.get("trace.overhead_s"),
        "setup_samples": run.setup_samples,
        "peak_rss_mb": run.peak_rss_mb,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in run.reps],
    }
    (run.work / "record.json").write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if complete:
        print(f"{args.workload} untraced wall time = {record['wall_s']:.6g} s, set-up time = "
              f"{record['raw_setup_s']:.6g} s, as measured (not gated)")
    print(f"run record: {run.work.relative_to(root) / 'record.json'}")
    result = {"correct": complete and run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
