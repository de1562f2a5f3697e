"""Exception types shared across the package."""


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
