"""Exception hierarchy shared across the toolkit."""


class DFSLineupError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(DFSLineupError):
    """A CSV row or header failed validation."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}"
            if column is not None:
                loc += f", column {column!r}"
            loc += ")"
        super().__init__(message + loc)


class DuplicateKeyError(DFSLineupError):
    """Two rows carry the same (player_id, week) key."""


class WindowRangeError(DFSLineupError):
    """Window index outside the 14 windows a season supports."""


class TrainingDivergedError(DFSLineupError):
    """Training loss became non-finite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(epoch)  # args hold the epoch, so the error pickles whole

    def __str__(self):
        return f"training diverged at epoch {self.epoch}"


class EnsembleTrainingError(DFSLineupError):
    """A member model failed to train even after a seed perturbation."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"model {index} diverged twice; giving up")


class PositionShortfallError(DFSLineupError):
    """Not enough candidates at a position to fill its slots."""

    def __init__(self, position, needed, available):
        self.position = position
        super().__init__(
            f"position {position}: need {needed} candidates, have {available}"
        )


class InfeasibleLineupError(DFSLineupError):
    """No lineup satisfies the salary cap and position counts."""


class NoFeasibleSampleError(DFSLineupError):
    """Random-lineup rejection sampling exhausted its attempt budget."""


class ZeroVarianceError(DFSLineupError):
    """A statistic is undefined because the samples carry no variance."""


class ConfigError(DFSLineupError):
    """Run configuration failed validation."""
