"""Exception hierarchy shared across the package."""


class AugLocalError(Exception):
    """Base class for all errors raised by this package."""


# --- tensor / autodiff ---

class ShapeMismatch(AugLocalError):
    pass


class UnsupportedOperator(AugLocalError):
    pass


class NonScalarLoss(AugLocalError):
    pass


class EmptyTape(AugLocalError):
    pass


# --- settings ---

class ConfigError(AugLocalError, ValueError):
    """A setting, flag or text document is invalid; the CLI exits with 2."""


# --- network specs ---

class ChannelChainBreak(ConfigError):
    pass


class SpatialCollapse(ConfigError):
    pass


# --- auxiliary network planning ---

class InvalidDepthBounds(ConfigError):
    pass


class DepthExceedsRemaining(AugLocalError):
    pass


class UnknownStrategy(ConfigError):
    pass


# --- training ---

class PlanMismatch(AugLocalError):
    pass


class LabelOutOfRange(AugLocalError):
    pass


class CheckpointError(AugLocalError):
    pass


class WorkerPanicPropagated(AugLocalError):
    pass


# --- analysis ---

class RowCountMismatch(AugLocalError):
    pass


class SpecMismatch(ConfigError):
    pass


# --- data ingestion ---

class DataError(AugLocalError):
    pass


class TruncatedFile(DataError):
    pass


class BadLabelByte(DataError):
    pass
