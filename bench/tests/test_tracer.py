import numpy as np

import failcast
from failcast import cli, features, pipeline
from failcast.features import Instance
from failcast.forest import ForestParams
from failcast.ocsvm import OcsvmParams
from failcast.trace_model import FailureType

import layers
from tracer import Tracer, instrument, layer_modules


def layers_modules():
    return [failcast, *layer_modules(failcast), cli]


def test_instrument_reaches_functions_imported_by_name(monkeypatch):
    # undo the patching after the test, in every loaded failcast module
    for mod in layers_modules():
        for name, obj in list(vars(mod).items()):
            if callable(obj):
                monkeypatch.setattr(mod, name, obj)
    tracer = Tracer("run")
    wrapped = instrument(tracer, failcast)
    assert "features.to_arrays" in wrapped and "pipeline.train" in wrapped
    assert pipeline.to_arrays is features.to_arrays  # the by-name reference was swapped

    rng = np.random.default_rng(0)
    instances = [
        Instance(FailureType(int(y)), rng.normal(size=72) + 3 * (y != 0), 0, i)
        for i, y in enumerate([0] * 60 + [1] * 10)
    ]
    pipeline.train(instances, OcsvmParams(nu=0.2, gamma=0.01), ForestParams(n_trees=3))

    names = {s[0]: s[2] for s in tracer.spans}
    edges = {(s[2], names.get(s[1])) for s in tracer.spans}
    assert ("features.to_arrays", "pipeline.train") in edges
    assert ("ocsvm.train", "pipeline.train") in edges
    totals = layers.aggregate(tracer.spans)
    assert totals["forest.grow_tree.calls"] == 3
    assert totals["ocsvm.train.rows"] == 60
    assert layers.missing_calls(tracer.spans, ["features.to_arrays<pipeline.train"],
                                set(wrapped)) == []


def test_span_nests_and_records_on_exit():
    tracer = Tracer("run", root_parent=7)
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    (inner, o) = tracer.spans
    assert inner[2] == "inner" and inner[1] == outer
    assert o[2] == "outer" and o[1] == 7
    assert o[3] <= inner[3] <= inner[4] <= o[4]
