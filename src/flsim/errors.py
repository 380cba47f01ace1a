"""Exception types shared across the simulator, and the configs' field-type check."""
import numbers
from collections.abc import Mapping
from dataclasses import fields

import numpy as np

# annotation (its text: the config modules import annotations from __future__) -> the type
# a field's value must have; NumPy scalars and bools are numbers, and a NumPy bool is a bool
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "tuple": tuple, "dict": Mapping,
                "str": str, "bool": (bool, np.bool_)}


class FLSimError(Exception):
    """Base class for all flsim errors."""


class ConfigError(FLSimError):
    """Invalid configuration value, dimension, or method/hparam combination."""


class ParseError(ConfigError):
    """Config text could not be parsed; carries the offending key and line."""

    def __init__(self, message, key=None, line=None):
        detail = message
        if key is not None:
            detail += f" (key: {key})"
        if line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.key = key
        self.line = line


class NumericalOverflowError(FLSimError):
    """Non-finite loss or gradient; carries the offending block name."""

    def __init__(self, block):
        super().__init__(f"non-finite value in block '{block}'")
        self.block = block


class UnsupportedOperationError(FLSimError):
    """Operation not defined for this model kind."""


class DivergenceError(FLSimError):
    """Training produced non-finite parameters or losses.

    ``metrics`` holds the per-round records completed before the failure.
    """

    def __init__(self, method, round_idx, metrics=None):
        super().__init__(f"method '{method}' diverged at round {round_idx}")
        self.method = method
        self.round_idx = round_idx
        self.metrics = metrics if metrics is not None else []


def check_field_types(config):
    """Raise ConfigError naming the first field of dataclass ``config`` not of its declared type."""
    for f in fields(config):
        if not isinstance(getattr(config, f.name), _FIELD_TYPES.get(f.type, object)):
            kind = f"a number of type {f.type}" if f.type in ("int", "float") else f"a {f.type}"
            raise ConfigError(f"{f.name} must be {kind}")
