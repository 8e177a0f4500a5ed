"""failcast: two-stage machine-failure forecasting over datacenter traces.

Stages: trace ingestion into 5-minute intervals, failure pairing and
categorization, lag-window feature construction, a one-class SVM anomaly
filter feeding a random-forest classifier, and an evaluation harness.

``import failcast`` loads none of the submodules. Each public name below
imports its submodule on first use, so a process that runs one stage
loads only the modules that stage needs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the submodule that defines each public name
_SOURCES = {
    "CascadeModel": "pipeline",
    "Dataset": "features",
    "DatasetConfig": "features",
    "FailureType": "trace_model",
    "ForestModel": "forest",
    "ForestParams": "forest",
    "GridSpec": "pipeline",
    "INTERVAL_US": "trace_model",
    "IntervalSeries": "trace_model",
    "LabelTracks": "trace_model",
    "MachineEventKind": "trace_model",
    "OcsvmModel": "ocsvm",
    "OcsvmParams": "ocsvm",
    "ResourceKind": "trace_model",
    "SynthConfig": "synth",
    "pacf": "features",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
