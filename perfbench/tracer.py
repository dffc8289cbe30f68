"""In-memory span tracer attached to pathcouple from outside the package.

A span is (name, start, end, parent).  The program is single-threaded, so
spans nest strictly and a stack gives each span its parent.  Spans stay in
memory until the run ends; `Tracer.write` then dumps them as CSV.

`instrument` wraps the public entry points of every module.  Three binding
rules decide where a wrapper has to go:

1. `experiments` and `cli` bind `simulate_*`, `wk_full`, the law helpers and
   the `run_*` functions by name at import, so the same wrapper is installed
   in every namespace that holds the name.
2. The transformed-coefficient closures look up `zvonkin.theta_inv` when they
   run, so wrapping the module attribute is enough.
3. `CoefficientSet.eval_*`, `ZvonkinMap.u_at`/`grad_u_at`,
   `SegmentBatch.exp_weighted_integral`/`to_cloud` and
   `ExperimentConfig.effective_coefficients` are methods, wrapped on the class.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = "run"  # spans opened by the benchmark itself, one per experiment


class Tracer:
    """Records spans and work counters; installs and removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> list:
        span = [name_id, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(counters, args, kwargs, result) adds work."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def patch(self, owners, attribute: str, name: str, count=None) -> None:
        """Install one wrapper of owners[0].attribute on every owner."""
        original = getattr(owners[0], attribute)
        wrapper = self.wrap(name, original, count)
        for owner in owners:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"{owner!r}.{attribute} is not bound to the same function")
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent"])
            for name_id, start, end, parent in self.spans:
                writer.writerow([self.names[name_id], repr(start), repr(end), parent])


# ---------------------------------------------------------------------------
# Work counters, read from the arguments and results of wrapped calls


def _arg(args, kwargs, position: int, name: str, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _n_points(x) -> int:
    shape = getattr(x, "shape", ())
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _theta_inv_points(c, args, kwargs, _):
    c["zvonkin.theta_inv_points"] += _n_points(_arg(args, kwargs, 1, "y"))


def _interp_points(c, args, kwargs, _):
    c["zvonkin.interp_points"] += _n_points(_arg(args, kwargs, 1, "x"))


def _ewi_points(c, args, _kwargs, _):
    values = args[0].values
    c["pathspace.exp_weighted_integral_points"] += values.shape[0] * values.shape[1]


def _paths_steps(c, args, kwargs, _):
    init = _arg(args, kwargs, 1, "init")
    T = _arg(args, kwargs, 2, "T")
    c["simulate.particle_steps"] += init.n * int(round(T / init.config.h))


def _coupled_steps(c, args, kwargs, _):
    h = _arg(args, kwargs, 0, "coeffs_hat").pathcfg.h
    T = _arg(args, kwargs, 4, "T")
    rows = 2 * int(_arg(args, kwargs, 7, "n_replicas", 1))
    c["simulate.particle_steps"] += rows * int(round(T / h))


def _cost_pairs(c, args, kwargs, _):
    c["wasserstein.cost_matrix_pairs"] += len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))


def _ot_solver(c, _args, _kwargs, plan):
    c[f"wasserstein.ot_calls_{plan.solver}"] += 1
    if plan.solver == "sinkhorn":
        c["wasserstein.sinkhorn_max_gap"] = max(c["wasserstein.sinkhorn_max_gap"], plan.duality_gap)


def _output_bytes(c, args, kwargs, _):
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    c["cli.output_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())


def instrument(tracer: Tracer) -> None:
    """Wrap every traced entry point of pathcouple (see the module docstring)."""
    from pathcouple import (
        cli,
        coefficients,
        experiments,
        laws,
        pathspace,
        simulate,
        wasserstein,
        zvonkin,
    )

    patch = tracer.patch
    # Rule 1: names bound at import in experiments / cli.
    patch([simulate, experiments], "simulate_paths", "simulate.simulate_paths", _paths_steps)
    patch([simulate, experiments], "simulate_coupled_Q", "simulate.simulate_coupled_Q", _coupled_steps)
    patch([simulate, experiments], "simulate_mckean", "simulate.simulate_mckean")
    patch([wasserstein, experiments], "wk_full", "wasserstein.wk_full")
    patch([wasserstein], "pairwise_truncated_norm", "wasserstein.cost_matrix", _cost_pairs)
    patch([wasserstein], "ot_plan", "wasserstein.ot_plan", _ot_solver)
    patch([laws, experiments], "comonotone_pair", "laws.comonotone_pair")
    patch([laws, experiments], "exp_norm_moment", "laws.exp_norm_moment")
    for fn in ("run_decay", "run_entropy", "run_alh", "run_gradient_estimate", "run_w2_growth"):
        patch([experiments, cli], fn, f"experiments.{fn}")
    patch([cli], "_write_outputs", "cli.write_outputs", _output_bytes)
    # Rule 2: module attributes looked up at call time.
    patch([zvonkin], "select_lambda", "zvonkin.select_lambda")
    patch([zvonkin], "solve_resolvent", "zvonkin.solve_resolvent")
    patch([zvonkin], "theta_inv", "zvonkin.theta_inv", _theta_inv_points)
    # Rule 3: methods, wrapped on the class.
    patch([zvonkin.ZvonkinMap], "u_at", "zvonkin.u_at", _interp_points)
    patch([zvonkin.ZvonkinMap], "grad_u_at", "zvonkin.grad_u_at", _interp_points)
    for fn in ("eval_b0", "eval_b1", "eval_sigma"):
        patch([coefficients.CoefficientSet], fn, f"coefficients.{fn}")
    patch([pathspace.SegmentBatch], "exp_weighted_integral",
          "pathspace.exp_weighted_integral", _ewi_points)
    patch([pathspace.SegmentBatch], "to_cloud", "pathspace.to_cloud")
    patch([experiments.ExperimentConfig], "effective_coefficients",
          "experiments.effective_coefficients")


# ---------------------------------------------------------------------------
# Aggregation


MODULES = ("zvonkin", "experiments", "simulate", "pathspace", "coefficients",
           "wasserstein", "laws", "cli")


def span_totals(tracer: Tracer):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    n = len(tracer.spans)
    child = [0.0] * n
    for name_id, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name_id, start, end, _) in enumerate(tracer.spans):
        name = tracer.names[name_id]
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[i]
    return calls, incl, self_s


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics named <module>.<what> plus the trace.* closure terms."""
    calls, incl, self_s = span_totals(tracer)
    unknown = {k for k in calls if k.split(".")[0] not in MODULES + (ROOT,)}
    if unknown:
        raise RuntimeError(f"spans outside the known modules: {sorted(unknown)}")
    module_self = {mod: sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
                   for mod in MODULES + (ROOT,)}
    c = tracer.counters

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    m["zvonkin.select_lambda_calls"] = calls["zvonkin.select_lambda"]
    m["zvonkin.select_lambda_s"] = incl["zvonkin.select_lambda"]
    m["zvonkin.solve_resolvent_calls"] = calls["zvonkin.solve_resolvent"]
    m["zvonkin.solve_resolvent_ms"] = ratio(incl["zvonkin.solve_resolvent"],
                                            calls["zvonkin.solve_resolvent"], 1e3)
    m["zvonkin.theta_inv_calls"] = calls["zvonkin.theta_inv"]
    m["zvonkin.theta_inv_points"] = c["zvonkin.theta_inv_points"]
    m["zvonkin.theta_inv_s"] = incl["zvonkin.theta_inv"]
    m["zvonkin.theta_inv_ns_per_point"] = ratio(incl["zvonkin.theta_inv"],
                                                c["zvonkin.theta_inv_points"], 1e9)
    m["zvonkin.interp_calls"] = calls["zvonkin.u_at"] + calls["zvonkin.grad_u_at"]
    m["zvonkin.interp_points"] = c["zvonkin.interp_points"]
    m["zvonkin.interp_s"] = incl["zvonkin.u_at"] + incl["zvonkin.grad_u_at"]
    # Picard sweeps: u_at calls made directly inside a theta_inv span.
    theta_id = tracer._ids.get("zvonkin.theta_inv", -1)
    u_id = tracer._ids.get("zvonkin.u_at", -1)
    spans = tracer.spans
    sweeps = sum(1 for s in spans if s[0] == u_id and s[3] >= 0 and spans[s[3]][0] == theta_id)
    m["zvonkin.interp_per_inverse"] = ratio(sweeps, calls["zvonkin.theta_inv"])

    for fn in ("run_decay", "run_entropy", "run_alh", "run_gradient_estimate", "run_w2_growth"):
        m[f"experiments.{fn}_s"] = incl[f"experiments.{fn}"]
    m["experiments.run_decay_calls"] = calls["experiments.run_decay"]
    m["experiments.run_entropy_calls"] = calls["experiments.run_entropy"]
    m["experiments.effective_coefficients_calls"] = calls["experiments.effective_coefficients"]
    m["experiments.effective_coefficients_s"] = incl["experiments.effective_coefficients"]

    m["simulate.particle_steps"] = c["simulate.particle_steps"]
    m["simulate.self_ns_per_particle_step"] = ratio(module_self["simulate"],
                                                    c["simulate.particle_steps"], 1e9)
    for fn in ("simulate_paths", "simulate_coupled_Q", "simulate_mckean"):
        m[f"simulate.{fn}_s"] = incl[f"simulate.{fn}"]

    m["pathspace.exp_weighted_integral_calls"] = calls["pathspace.exp_weighted_integral"]
    m["pathspace.exp_weighted_integral_s"] = incl["pathspace.exp_weighted_integral"]
    m["pathspace.exp_weighted_integral_ns_per_point"] = ratio(
        incl["pathspace.exp_weighted_integral"], c["pathspace.exp_weighted_integral_points"], 1e9)
    m["pathspace.to_cloud_s"] = incl["pathspace.to_cloud"]

    for fn in ("eval_b0", "eval_b1", "eval_sigma"):
        m[f"coefficients.{fn}_calls"] = calls[f"coefficients.{fn}"]
        m[f"coefficients.{fn}_self_s"] = self_s[f"coefficients.{fn}"]

    m["wasserstein.cost_matrix_calls"] = calls["wasserstein.cost_matrix"]
    m["wasserstein.cost_matrix_pairs"] = c["wasserstein.cost_matrix_pairs"]
    m["wasserstein.cost_matrix_s"] = incl["wasserstein.cost_matrix"]
    m["wasserstein.cost_matrix_ns_per_pair"] = ratio(
        incl["wasserstein.cost_matrix"], c["wasserstein.cost_matrix_pairs"], 1e9)
    solves = {s: c[f"wasserstein.ot_calls_{s}"] for s in ("assignment", "linprog", "sinkhorn")}
    for solver, n in solves.items():
        m[f"wasserstein.ot_calls_{solver}"] = n
    m["wasserstein.ot_solve_s"] = self_s["wasserstein.ot_plan"]
    m["wasserstein.exact_share"] = ratio(solves["assignment"] + solves["linprog"],
                                         sum(solves.values()))
    m["wasserstein.sinkhorn_max_gap"] = c["wasserstein.sinkhorn_max_gap"]

    m["laws.comonotone_pair_s"] = incl["laws.comonotone_pair"]
    m["laws.exp_norm_moment_s"] = incl["laws.exp_norm_moment"]
    m["cli.write_outputs_s"] = incl["cli.write_outputs"]
    m["cli.output_bytes"] = c["cli.output_bytes"]

    # Self time per module; what no module span covers is unattributed.
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    root_incl = sum(v for k, v in incl.items() if k.split(".")[0] == ROOT)
    m["trace.unattributed_s"] = module_self[ROOT] + (wall_s - root_incl)
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}
