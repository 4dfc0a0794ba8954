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


class NonDeterministicFunction(AugLocalError):
    pass


# --- network specs ---

class ChannelChainBreak(AugLocalError):
    pass


class SpatialCollapse(AugLocalError):
    pass


# --- auxiliary network planning ---

class InvalidDepthBounds(AugLocalError):
    pass


class DepthExceedsRemaining(AugLocalError):
    pass


class UnknownStrategy(AugLocalError):
    pass


# --- training ---

class PlanMismatch(AugLocalError):
    pass


class LabelOutOfRange(AugLocalError):
    pass


class CheckpointError(AugLocalError):
    pass


# --- pipeline ---

class WorkerPanicPropagated(AugLocalError):
    pass


# --- analysis ---

class RowCountMismatch(AugLocalError):
    pass


class SpecMismatch(AugLocalError):
    pass


# --- data ingestion / config ---

class DataError(AugLocalError):
    pass


class TruncatedFile(DataError):
    pass


class BadLabelByte(DataError):
    pass


class BadMagic(DataError):
    pass


class DimMismatch(DataError):
    pass


class ConfigError(AugLocalError):
    pass
