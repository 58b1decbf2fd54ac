"""Benchmark harness for early classification of time series: per-timestamp
calibrated classifiers composed with pluggable trigger functions, priced
under configurable misclassification/delay cost models."""

__version__ = "0.1.0"
