import pytest

from perfbench import tracing
from perfbench.tracing import Tracer, self_times, subtree, totals


def _tree():
    # root (0..10) ┬ a (1..4) ─ b (2..3)
    #              └ c (5..9) ┬ d (5..6)
    #                         └ e (7..9)
    # plus an unrelated root f (11..12)
    return [
        ("cli.main", 0.0, 10.0, -1, None),
        ("experiment.a", 1.0, 4.0, 0, "VII/DT"),
        ("tree.b", 2.0, 3.0, 1, "VII/DT"),
        ("tree.c", 5.0, 9.0, 0, None),
        ("metrics.d", 5.0, 6.0, 3, None),
        ("tree.e", 7.0, 9.0, 3, None),
        ("persist.f", 11.0, 12.0, -1, None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0])


def test_layer_self_times_add_up_to_the_root_span():
    spans = _tree()
    inside = subtree(spans, 0)
    assert inside == [0, 1, 2, 3, 4, 5]
    inclusive, self_by_name, by_layer = totals(spans, inside)
    assert dict(by_layer) == pytest.approx({"cli": 3.0, "experiment": 2.0, "tree": 4.0, "metrics": 1.0})
    assert sum(by_layer.values()) == pytest.approx(10.0)
    assert inclusive["tree.c"] == 4.0 and self_by_name["tree.c"] == 1.0
    assert "persist" not in by_layer


def test_install_rebinds_every_importing_namespace_and_uninstall_restores():
    from spineml import experiment, model_selection, neighbors

    originals = (experiment.grid_search, neighbors.knn_predict_many, neighbors._distances)
    tracer = Tracer()
    try:
        assert tracer.install() > 0
        assert experiment.grid_search is model_selection.grid_search
        assert experiment.grid_search is not originals[0]
        wrapped = neighbors.knn_predict_many
        assert wrapped is not originals[1]
        assert model_selection.knn_predict_many is wrapped
        assert experiment.knn_predict_many is wrapped
        assert model_selection._distances is neighbors._distances is not originals[2]
    finally:
        tracer.uninstall()
    assert experiment.grid_search is originals[0] is model_selection.grid_search
    assert neighbors.knn_predict_many is originals[1] is experiment.knn_predict_many
    assert model_selection._distances is originals[2]


def test_traced_calls_record_spans_cells_and_counters():
    from spineml import neighbors, synthetic

    ds = synthetic.generate_synthetic(40, 1, 0.5)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("perfbench.outer"):
            model = neighbors.knn_fit(ds, 3)
            neighbors.knn_predict_many(model, ds.rows[:5])
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["perfbench.outer", "neighbors.knn_fit", "neighbors.knn_predict_many"]
    assert "neighbors._distances" in names and "neighbors._vote" in names
    assert all(s[3] == 0 for s in tracer.spans[1:3])
    assert tracer.counts["neighbors.rows_predicted"] == 5
    assert tracer.counts["neighbors.distance_elems"] == 5 * 40 * ds.width
    assert min(self_times(tracer.spans)) >= 0.0


def test_every_layer_metric_is_reported():
    tracer = Tracer()
    tracer.spans.extend(_tree())
    out = tracing.layer_metrics(tracer, 0)
    assert set(tracing.LAYER_METRICS) <= set(out)
    assert out["cli.run_self_s"] == (pytest.approx(3.0), "s")
    assert out["tree.run_self_s"] == (pytest.approx(4.0), "s")
    assert out["other.run_self_s"] == (0.0, "s")
