"""Benchmark harness for early classification of time series: per-timestamp
calibrated classifiers composed with pluggable trigger functions, priced
under configurable misclassification/delay cost models."""

from .core import (
    CostModel,
    Decision,
    DelayCurve,
    RecordTable,
    SampledTimeline,
    SeriesSet,
    anomaly_cost_model,
    delay_cost,
    misclassification_cost,
    standard_cost_model,
)

__all__ = [
    "CostModel",
    "Decision",
    "DelayCurve",
    "RecordTable",
    "SampledTimeline",
    "SeriesSet",
    "anomaly_cost_model",
    "delay_cost",
    "misclassification_cost",
    "standard_cost_model",
]

__version__ = "0.1.0"
