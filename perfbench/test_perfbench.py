"""Self-test of the benchmark: contract, config generation, tracer and predictions.

Run from the checkout root:  python3 -m pytest perfbench/test_perfbench.py
The workload tests run each workload four times in one process, the second
and fourth traced (about two minutes in all).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import MODULES, Tracer, instrument, layer_metrics, span_totals  # noqa: E402
from workloads import WORKLOADS, generate_config  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((Path(__file__).parent / "interaction_map.json").read_text())["per_layer"]


def test_benchmark_json_matches_workloads_and_map():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert list(MAP) == [m["name"] for m in BENCH["per_layer"]]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["per_layer"]:
        rule = MAP[m["name"]]
        assert rule["unit"] == m["unit"]
        assert m["name"].split(".")[0] == rule["module"]
        assert not set(rule["zero_on"]) & set(rule["nonzero_on"])
        assert set(rule["zero_on"]) | set(rule["nonzero_on"]) <= set(WORKLOADS)
        assert rule["moves"] is None or rule["moves"]["metric"] in end_to_end


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_config_changes_only_sizes_seed_and_output(name, tmp_path):
    from pathcouple.experiments import parse_config

    workload = WORKLOADS[name]
    text = generate_config(ROOT, workload, 7, tmp_path / "out")
    shipped = (ROOT / workload.config).read_text().splitlines()
    changed = {a.split("=")[0].strip() for a, b in zip(shipped, text.splitlines()) if a != b}
    assert changed <= set(workload.overrides) | {"sim.seed", "output.dir"}
    config = parse_config(text)
    assert config.seed == 7
    assert config.output_dir == str(tmp_path / "out")


def test_sub_seeds_are_disjoint_across_seeds():
    w = WORKLOADS["meanfield_growth"]
    assert w.sub_seeds(0)[0] == 0
    assert not set(w.sub_seeds(1)) & set(w.sub_seeds(2))
    assert WORKLOADS["dini_verdicts"].sub_seeds(3) == [3]


def test_times_are_scaled_to_the_reference_speed():
    r = run.Run(ROOT, WORKLOADS["meanfield_growth"], seed=0, trace=0, seconds=0.0)
    r.setup_samples = [{"setup_s": 1.0, "setup_ref_s": [0.1, 0.1]},
                       {"setup_s": 3.0, "setup_ref_s": [0.3, 0.5]},
                       {"setup_s": 2.0, "setup_ref_s": [0.4, 0.4]}]
    r.peak_rss_mb = 100.0
    r.reps = [  # seed 0: (4 + 6) / (2 + 3); seed 1: 9 / 3; seed 2: 2 / 1
        {"config": 0, "traced": False, "wall_s": 4.0, "ref_s": [1.0, 3.0]},
        {"config": 0, "traced": False, "wall_s": 6.0, "ref_s": [3.0, 3.0]},
        {"config": 1, "traced": False, "wall_s": 9.0, "ref_s": [3.0]},
        {"config": 2, "traced": False, "wall_s": 2.0, "ref_s": [1.0]},
    ]
    m = r.end_to_end()
    assert m["wall_ref_s"] == pytest.approx(2.0 * run.REF_S)
    assert m["setup_s"] == pytest.approx(0.75 * run.REF_S / 0.1)  # median of 1, 0.75, 0.5
    assert r.raw_wall_s() == 5.0  # median of 5, 9 and 2
    assert r.raw_setup_s() == 2.0


def test_self_time_subtracts_children_and_closes_to_wall():
    t = Tracer()
    ids = [t._name_id(n) for n in ("run.decay", "experiments.run_decay", "simulate.simulate_paths",
                                    "coefficients.eval_b0")]
    # run.decay [0, 10] > run_decay [1, 9] > simulate_paths [2, 8] > eval_b0 [3, 4] and [5, 7]
    t.spans = [[ids[0], 0.0, 10.0, -1], [ids[1], 1.0, 9.0, 0], [ids[2], 2.0, 8.0, 1],
               [ids[3], 3.0, 4.0, 2], [ids[3], 5.0, 7.0, 2]]
    calls, incl, self_s = span_totals(t)
    assert calls["coefficients.eval_b0"] == 2
    assert incl["simulate.simulate_paths"] == 6.0
    assert self_s["simulate.simulate_paths"] == 3.0
    assert self_s["experiments.run_decay"] == 2.0
    m = layer_metrics(t, wall_s=11.0)
    assert m["trace.unattributed_s"] == 2.0 + 1.0  # run.decay self time plus the gap after it
    assert sum(m[f"{mod}.self_s"] for mod in MODULES) + m["trace.unattributed_s"] == 11.0


def test_binding_rules_put_one_wrapper_in_every_namespace():
    from pathcouple import cli, coefficients, experiments, pathspace, simulate, wasserstein, zvonkin

    originals = (simulate.simulate_paths, zvonkin.theta_inv, coefficients.CoefficientSet.eval_b0)
    t = Tracer()
    instrument(t)
    try:
        # Rule 1: names bound at import share the wrapper.
        for fn in ("simulate_paths", "simulate_coupled_Q", "simulate_mckean"):
            assert getattr(experiments, fn) is getattr(simulate, fn)
            assert getattr(simulate, fn).__wrapped__ is not None
        assert experiments.wk_full is wasserstein.wk_full
        assert cli.run_decay is experiments.run_decay
        # Rule 2: module attribute; rule 3: class attributes.
        assert zvonkin.theta_inv is not originals[1]
        assert coefficients.CoefficientSet.eval_b0 is not originals[2]
        assert hasattr(pathspace.SegmentBatch.exp_weighted_integral, "__wrapped__")
        assert hasattr(zvonkin.ZvonkinMap.u_at, "__wrapped__")
    finally:
        t.restore()
    assert (simulate.simulate_paths, zvonkin.theta_inv,
            coefficients.CoefficientSet.eval_b0) == originals
    assert experiments.simulate_paths is simulate.simulate_paths


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Untraced, traced, untraced, traced repetitions of every workload at its first seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        r = run.Run(ROOT, workload, seed=0, trace=1, seconds=0.0)
        r.work = tmp_path_factory.mktemp(name)
        r.repeat(4)
        out[name] = (r, r.reps[1], r.reps[3])
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_pass_and_repeat(name, traced_pairs):
    r, first, second = traced_pairs[name]
    assert r.harness_errors == 0
    assert r.checks_failed == 0, "a verdict was not PASS"
    assert r.compares_attempted > 0 and r.compares_failed == 0, "outputs differ between runs"
    for metric, rule in MAP.items():
        if rule["unit"] in run.COUNT_UNITS:
            assert first["layers"][metric] == second["layers"][metric], metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_predicted_zero_and_nonzero_metrics(name, traced_pairs):
    _, first, _ = traced_pairs[name]
    layers = first["layers"]
    for metric, rule in MAP.items():
        if name in rule["zero_on"]:
            assert layers[metric] == 0, metric
        if name in rule["nonzero_on"]:
            assert layers[metric] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(name, traced_pairs):
    _, first, _ = traced_pairs[name]
    layers = first["layers"]
    total = sum(layers[f"{mod}.self_s"] for mod in MODULES) + layers["trace.unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], abs=1e-6)
    assert layers["trace.unattributed_s"] < 0.05 * layers["trace.wall_s"]


@pytest.mark.parametrize("name, module", [("dini_verdicts", "zvonkin"),
                                          ("meanfield_growth", "wasserstein")])
def test_dominant_layer(name, module, traced_pairs):
    _, first, _ = traced_pairs[name]
    layers = first["layers"]
    assert layers[f"{module}.self_s"] > 0.5 * layers["trace.wall_s"]
