"""Exception taxonomy shared by all mixflow modules: one class per way a command ends."""


class MixflowError(Exception):
    """Base class for all mixflow errors."""


class ValidationError(MixflowError):
    """A physical-parameter or configuration invariant is violated."""


class SolverBlowup(MixflowError):
    """Time integration aborted.

    Carries the last valid trajectory (may be None when the failure happens
    before the first record).
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class DensityFloor(SolverBlowup):
    """Density fell below the configured floor; step aborted, no clipping."""


class NonFinite(SolverBlowup):
    """NaN/Inf detected in the evolved fields."""


class FileFormatError(MixflowError):
    pass


class ParseError(MixflowError):
    """Config text could not be parsed; message carries location context."""


class WorkerDied(MixflowError):
    """A forked worker exited without returning a result or an error."""
