"""Self-tests of the benchmark harness: python3 -m pytest bench"""

from __future__ import annotations

import json

import pytest

import run
import workloads
from tracing import TARGETS, Tracer


def first_op_digest(workload: str) -> str:
    op = next(workloads.WORKLOADS[workload](workloads.DEFAULT_SEED))
    _, document = op.run()
    return workloads.digest(document)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_leaves_documents_unchanged(workload):
    untraced = first_op_digest(workload)
    tracer = Tracer()
    with tracer.installed():
        result = run.measure(workload, workloads.DEFAULT_SEED, 0, tracer, [untraced])
    assert result.attempted == 1
    assert result.failures == []


def traced_first_op(workload: str) -> Tracer:
    tracer = Tracer()
    with tracer.installed():
        result = run.measure(workload, workloads.DEFAULT_SEED, 0, tracer)
    assert result.failures == []
    return tracer


def test_wrappers_patch_the_consuming_namespace():
    assert traced_first_op("search-bipartite").stats["matrix.char_poly"].calls > 0
    bounds = traced_first_op("bounds").stats
    assert bounds["matrix.char_poly"].calls == 0
    assert bounds["sturm.max_root_bracket"].calls > 0
    assert workloads.ffc.graphs.char_poly is workloads.ffc.matrix.char_poly


def test_vanished_targets_are_skipped(monkeypatch):
    monkeypatch.setitem(TARGETS, "matrix.gone", (("ffc.matrix", "gone"),))
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["ffc.matrix.gone"]
    assert tracer.stats["matrix.gone"].calls == 0


def test_wrong_reference_digest_counts_as_failure():
    result = run.measure("bounds", workloads.DEFAULT_SEED, 0, None, ["0" * 64])
    assert len(result.failures) / result.attempted > 0


def test_references_are_recorded_for_every_workload():
    references = run.load_references()
    assert set(references) == set(workloads.WORKLOADS)
    assert all(references.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = run.RunResult(latencies=[0.5, 0.25], segments=[0, 0], probes=[1.0, 1.0], busy_s=0.75)
    assert set(run.end_to_end(result, [0.1])) == set(run.declared_metrics("end_to_end"))


def test_latencies_are_scaled_by_the_probes_around_them():
    ref = run.PROBE_REF_S
    result = run.RunResult(
        latencies=[0.5, 0.25, 0.25], segments=[0, 1, 1], probes=[ref, 3 * ref, ref]
    )
    assert result.host_factors() == pytest.approx([0.5, 0.5, 0.5])
    assert result.scaled() == pytest.approx([0.25, 0.125, 0.125])
