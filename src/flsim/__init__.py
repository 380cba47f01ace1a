"""Deterministic federated-learning simulator with pluggable optimizers."""

# every module `flsim run` loads: perfbench/run.py times a bare import as its start-up
from . import data, engine, errors, harness, methods, models

__version__ = "0.1.0"
