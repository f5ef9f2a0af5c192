"""Self-tests for the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest perfbench -q

They need neither barrierfem nor a timed run.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    trace = [
        span("solvers.barrier_solve", 0.0, 10.0),        # 0
        span("fem.jacobian_barrier", 1.0, 4.0, 0),       # 1
        span("linalg.from_coo", 2.0, 2.5, 1),            # 2
        span("linalg.from_coo", 3.0, 3.25, 1),           # 3
        span("solvers.armijo", 5.0, 9.0, 0),             # 4
        span("fem.residual", 5.5, 6.5, 4),               # 5
    ]
    assert spans.child_time(trace) == [7.0, 0.75, 0.0, 0.0, 1.0, 0.0]
    assert spans.self_times(trace) == [3.0, 2.25, 0.5, 0.25, 3.0, 1.0]


def test_layer_metrics_attribute_linesearch_trials_to_armijo_parent():
    trace = [
        span("solvers.newton_safeguarded", 0.0, 20.0),          # 0
        span("fem.jacobian_mu0", 0.0, 2.0, 0),                  # 1
        span("linalg.from_coo", 0.5, 1.0, 1),                   # 2
        span("linalg.cg", 2.0, 3.0, 0, {"iterations": 7, "useful": True}),
        span("solvers.armijo", 3.0, 8.0, 0),                    # 4
        span("fem.residual", 3.5, 4.5, 4),                      # trial
        span("fem.residual", 5.0, 6.0, 4),                      # trial
        span("fem.residual", 8.0, 9.0, 0),                      # not a trial
        span("linalg.cg", 9.0, 9.5, 0, {"iterations": 1, "useful": False}),
        span("fem.add_scaled", 9.5, 10.0, 0),
    ]
    solves = [{"iterations": 3, "stages": 0}]
    m = spans.layer_metrics(trace, solves)
    assert m["fem.residual_calls"] == 3
    assert m["solvers.linesearch_calls"] == 1
    assert m["solvers.linesearch_trials"] == 2
    assert m["solvers.linesearch_self_s"] == pytest.approx(3.0)
    assert m["fem.jacobian_self_s"] == pytest.approx(1.5)
    assert m["fem.jacobian_mu0_ms"] == pytest.approx(2000.0)
    assert m["linalg.csr_build_calls"] == 2
    assert m["linalg.csr_build_s"] == pytest.approx(1.0)
    assert m["linalg.cg_iterations"] == 8
    assert m["linalg.cg_useful_ratio"] == pytest.approx(0.5)
    # 20 s minus jacobian 2, cg 1.5, armijo 5, residual 1, add_scaled 0.5
    assert m["solvers.self_s"] == pytest.approx(10.0)
    assert m["solvers.newton_iterations"] == 3


def test_failed_share_and_counter_mismatch():
    assert run.solved_share(39, 0) == 1.0
    assert 1.0 - run.solved_share(857, 606) == pytest.approx(606 / 857)
    same = [{"linalg.cg_calls": 857}, {"linalg.cg_calls": 857}]
    assert run.counter_mismatches(same, ["linalg.cg_calls"]) == []
    differ = same + [{"linalg.cg_calls": 856}]
    assert len(run.counter_mismatches(differ, ["linalg.cg_calls"])) == 1


def test_summary_takes_medians_and_gates_failures():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def round_(wall, ok=True):
        return {"mesh_setup_s": 1.0, "wall_s": wall, "barrier_s": wall / 2,
                "outcomes": [["a", True, ""], ["b", ok, "" if ok else "not converged"]],
                "problems": [], "counters": {"solvers.newton_iterations": 4,
                                             "solvers.mu_stages": 2, "solves": []}}

    workers = [{"import_s": 0.5, "mesh_setup_s": [1.0, 3.0, 2.0], "peak_rss_mb": 200.0,
               "rounds": [round_(3.0), round_(1.0), round_(2.0, ok=False)]}]
    result, errors = run.summarize(spec, workers, [0.25, 0.75, 0.5, 0.5], trace=0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["wall_s"] == 2.0
    assert metrics["barrier_s"] == 1.0
    assert metrics["setup_s"] == 0.5 + 2.0
    assert metrics["solved_share"] == pytest.approx(5 / 6)
    assert (result["attempted"], result["failed"], result["correct"]) == (6, 1, False)
    assert errors == ["b: not converged"]


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q3 - q1) / statistics.median(values) == pytest.approx(0.0348, abs=1e-4)


def test_l2_order_of_a_halving():
    assert workloads.l2_order(4.0e-3, 1.0e-3) == pytest.approx(2.0)


def test_barrier_verdict():
    good = {"converged": True, "sign": "+", "final_residual": 1e-9, "min_free_coeff": 0.3}
    assert workloads.barrier_verdict(good) == ""
    assert workloads.barrier_verdict(dict(good, sign="+/-")) == "sign +/-"
    assert "min_free_coeff" in workloads.barrier_verdict(dict(good, min_free_coeff=-1e-3))
    assert "> 1e-07" in workloads.barrier_verdict(dict(good, final_residual=2e-7))
    assert workloads.barrier_verdict({"error": "NonpositiveState: x"}).startswith("raised")


def test_catalogue_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.TARGETS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(layers.COUNTERS) <= set(layers.TARGETS)
    computed = spans.layer_metrics([], [])
    assert set(computed) | {"trace.overhead_s"} == set(layers.TARGETS)


def test_traced_summary_reports_counts_times_overhead_and_mismatches():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counters = {"solvers.newton_iterations": 4, "solvers.mu_stages": 2, "solves": []}

    def worker(wall, cg_calls=None, jacobian_ms=None):
        record = {"rounds": [{"wall_s": wall, "outcomes": [["a", True, ""]], "problems": [],
                              "counters": counters}]}
        if cg_calls is not None:
            layers_ = dict.fromkeys(spans.layer_metrics([], []), 0)
            layers_.update({"linalg.cg_calls": cg_calls, "fem.jacobian_mu0_ms": jacobian_ms})
            record["layers"] = layers_
        return record

    workers = [worker(10.0), worker(10.5, 857, 30.0), worker(11.5, 857, 40.0)]
    result, errors = run.summarize(spec, workers, [], trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(layers.TARGETS)
    assert metrics["linalg.cg_calls"] == 857 and isinstance(metrics["linalg.cg_calls"], int)
    assert metrics["fem.jacobian_mu0_ms"] == 35.0
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert result["correct"] and errors == []

    workers[2]["layers"]["linalg.cg_calls"] = 856
    result, errors = run.summarize(spec, workers, [], trace=1)
    assert not result["correct"]
    assert errors == ["linalg.cg_calls differs between runs: [857, 856]"]
