"""Exception hierarchy shared across the toolkit.

Every concrete error derives from exactly one family, and the family's
``exit_code`` is what the CLI returns for it: ``InputError`` 2 (a bad
config, file or season), ``InfeasibleError`` 3 (no lineup or random
sample fits), ``NumericError`` 4 (training or a statistic failed).
"""


class DFSLineupError(Exception):
    """Base class for all toolkit errors."""


class InputError(DFSLineupError):
    exit_code = 2


class InfeasibleError(DFSLineupError):
    exit_code = 3


class NumericError(DFSLineupError):
    exit_code = 4


class SchemaError(InputError):
    """A CSV row or header failed validation.  The loaders set ``path`` to
    the file, which the message then names first."""

    def __init__(self, message, line=None, column=None, path=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = path

    def __str__(self):
        text = self.args[0]
        if self.path is not None:
            text = f"{self.path}: {text}"
        if self.line is not None:
            text += f" (line {self.line}"
            if self.column is not None:
                text += f", column {self.column!r}"
            text += ")"
        return text


class DuplicateKeyError(SchemaError):
    """Two rows carry the same (player_id, week) key; ``line`` is the later
    row, and ``column`` names both key columns."""


class WindowRangeError(InputError):
    """Window index outside the 14 windows a season supports."""


class UnservableWeekError(InputError):
    """The season cannot serve the target week: a window without rows, a
    draftable pool that fills no flex configuration, or a random population
    whose lineups all score the same."""


class TrainingDivergedError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(epoch)  # args hold the epoch, so the error pickles whole

    def __str__(self):
        return f"training diverged at epoch {self.epoch}"


class EnsembleTrainingError(NumericError):
    """A member model failed to train even after a seed perturbation."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"model {index} diverged twice; giving up")


class InfeasibleLineupError(InfeasibleError):
    """No lineup satisfies the salary cap and position counts."""


class NoFeasibleSampleError(InfeasibleError):
    """Random-lineup rejection sampling exhausted its attempt budget."""


class ZeroVarianceError(NumericError):
    """A statistic is undefined because the samples carry no variance."""


class ConfigError(InputError):
    """Run configuration failed validation."""


def not_utf8(exc: UnicodeDecodeError) -> str:
    """What a SchemaError or ConfigError says of bytes that are not UTF-8."""
    return f"not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
