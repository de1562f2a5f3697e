"""Exception types, and the one kind rule for input fields, shared."""

import numbers
from dataclasses import fields

_KINDS = {"int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a number"), "dict": (dict, "a dict")}


def is_kind(value, kind=numbers.Integral):
    return isinstance(value, kind) and not isinstance(value, bool)


def check_kinds(obj):
    """TypeError naming an init field of dataclass ``obj`` annotated "int",
    "float" or "dict" whose value is a bool or another kind (an integer is
    a float); ValueError naming a float field past float range."""
    for f in (f for f in fields(obj) if f.init):
        kind, noun = _KINDS.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if kind and not is_kind(value, kind):
            raise TypeError(f"{f.name} must be {noun}, got {value!r}")
        if f.type == "float":
            try:
                float(value)
            except OverflowError:
                raise ValueError(
                    f"{f.name} is too large for a float") from None


class SensorSchedError(Exception):
    """Base class for all package-specific errors."""


class RiccatiConvergenceError(SensorSchedError):
    """Fixed-point iteration for a steady-state covariance did not converge."""


class GenerationError(SensorSchedError):
    """Random scenario generation exhausted its rejection-sampling budget."""


class NumericalError(SensorSchedError):
    """A computation produced non-finite values where finite ones are
    required, or needs arrays too large to allocate."""


class TrainingDivergedError(SensorSchedError):
    """Training aborted on a non-finite episode cost or network output.

    Carries the per-episode records accumulated before the failure so a
    partial learning curve can still be inspected or written out.
    """

    def __init__(self, message, curve):
        super().__init__(message)
        self.curve = list(curve)


class PersistenceError(SensorSchedError):
    """Base class for file save/load failures."""


class MalformedFileError(PersistenceError):
    """File is not in the expected format (bad magic, truncation, bad fields)."""


class VersionMismatchError(PersistenceError):
    """File was written by an unsupported format version."""


class ChecksumError(PersistenceError):
    """File content does not match its embedded checksum."""
