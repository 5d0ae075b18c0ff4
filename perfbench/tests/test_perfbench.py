"""Self-checks of the benchmark: exact callback counts and the metric set.

    python3 -m pytest -q perfbench/tests
"""

import json

import pytest

import run
from tracing import LAYER_METRICS, Tracer
from workloads import CORNER, WORKLOADS, ControlScan, GridSmallM, ItoRefine, WeakTransport


def traced_verdict(cls):
    workload = cls(seed=1, tiny=True)
    tracer = Tracer()
    run.run_verdict(workload, tracer)
    return workload, tracer.spans


def calls(span, kind):
    return span.children.get(kind, (0, 0.0))[0]


def test_mkv_and_picard_call_drift_and_diffusion_once_per_node_and_iterate():
    workload, spans = traced_verdict(GridSmallM)
    nodes = workload.grid.nt * workload.grid.nx
    mkv = [s for s in spans if s.name == "solver.solve_conditional_mkv"]
    picard = [s for s in spans if s.name == "solver.picard_solve"]
    assert len(mkv) == len(picard) == len(workload.units)
    for span in mkv:
        assert calls(span, "drift") == calls(span, "diffusion") == nodes
    for span in picard:
        assert span.attrs["iterations"] >= 2
        assert calls(span, "drift") == calls(span, "diffusion") == nodes * span.attrs["iterations"]


def test_residual_table_makes_one_coefficient_pass_over_the_rectangle():
    workload, spans = traced_verdict(WeakTransport)
    i, j = workload.grid.node_index(CORNER)
    for name in ("fokker_planck.residual_table", "fokker_planck.weak_residual"):
        picked = [s for s in spans if s.name == name]
        assert len(picked) == len(workload.units)
        for span in picked:
            assert calls(span, "drift") == calls(span, "diffusion") == i * j


def test_control_evaluates_the_policy_three_times_per_node_and_replicate():
    workload, spans = traced_verdict(ControlScan)
    per_replicate = workload.grid.nt * workload.grid.nx
    assert len(spans) == len(workload.units)
    for span in spans:
        assert calls(span, "policy") == 3 * per_replicate * workload.replicates
        assert calls(span, "cost") == per_replicate * workload.replicates
        assert calls(span, "drift") == calls(span, "diffusion") == per_replicate * workload.replicates


def test_measure_free_goursat_and_ito_terms_call_once_per_row():
    workload, spans = traced_verdict(ItoRefine)
    goursat = [s for s in spans if s.name == "solver.solve_goursat"]
    ito = [s for s in spans if s.name == "ito_check.ito_terms"]
    expected = [g.nt for g in workload.grids] * len(workload.units)
    for picked in (goursat, ito):
        assert [calls(s, "drift") for s in picked] == expected
        assert [calls(s, "diffusion") for s in picked] == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_unit_and_sample_count(name, trace):
    result = run.run_workload(WORKLOADS[name], seed=1, seconds=0.0, trace=trace, tiny=True)
    expected = run.END_TO_END + [("failed_share", "ratio")] + (LAYER_METRICS if trace else [])
    for metric, unit in expected:
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert entry["samples"] >= 1
        assert isinstance(entry["value"], (int, float))
    assert result["attempted"] == result["verdicts"] * len(WORKLOADS[name](1, tiny=True).units)


def test_metric_names_match_the_benchmark_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == run.WORKLOAD_NAMES == list(WORKLOADS)


def test_golden_gate_tolerates_1e_12_and_nothing_more():
    ref = {"a": [1.0, 2.0], "ok": True}
    assert run.deviations({"a": [1.0 + 1e-13, 2.0], "ok": True}, ref) == []
    assert run.deviations({"a": [1.0, 2.0 + 1e-11], "ok": True}, ref) == ["/a/1: 2.00000000001 != 2.0"]
    assert run.deviations({"a": [1.0], "ok": True}, ref)
    assert run.deviations({"a": [1.0, 2.0], "ok": False}, ref)
