"""failcast: two-stage machine-failure forecasting over datacenter traces.

Stages: trace ingestion into 5-minute intervals, failure pairing and
categorization, lag-window feature construction, a one-class SVM anomaly
filter feeding a random-forest classifier, and an evaluation harness.
"""

from .features import Dataset, DatasetConfig, FeatureConfig, pacf
from .forest import ForestModel, ForestParams
from .ingestion import IntervalSeries
from .labeling import LabelingConfig, LabelTracks
from .ocsvm import OcsvmModel, OcsvmParams
from .pipeline import CascadeModel, GridSpec
from .synth import SynthConfig
from .trace_model import INTERVAL_US, FailureType, MachineEventKind, ResourceKind

__version__ = "0.1.0"

__all__ = [
    "CascadeModel",
    "Dataset",
    "DatasetConfig",
    "FailureType",
    "FeatureConfig",
    "ForestModel",
    "ForestParams",
    "GridSpec",
    "INTERVAL_US",
    "IntervalSeries",
    "LabelTracks",
    "LabelingConfig",
    "MachineEventKind",
    "OcsvmModel",
    "OcsvmParams",
    "ResourceKind",
    "SynthConfig",
    "pacf",
    "__version__",
]
