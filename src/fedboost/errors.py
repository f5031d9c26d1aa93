"""Exception hierarchy shared across the package, one class per cause."""


class FedBoostError(Exception):
    """Base class for all package errors."""


# --- data and shapes ---

class InvalidLayout(FedBoostError):
    pass


class NonFiniteInput(FedBoostError):
    pass


class EmptyDataset(FedBoostError):
    pass


class ShapeMismatch(FedBoostError):
    pass


# --- crypto ---

class WeakKey(FedBoostError):
    pass


class PlaintextOutOfRange(FedBoostError):
    pass


class KeyMismatch(FedBoostError):
    pass


# --- weights ---

class InvalidWeight(FedBoostError):
    pass


class GradientOverflow(FedBoostError):
    pass


# --- transport ---

class TransportError(FedBoostError):
    pass


class TransportTimeout(TransportError):
    pass


class ChannelClosed(TransportError):
    pass


# --- protocol ---

class ProtocolViolation(FedBoostError):
    pass


class RoundAborted(FedBoostError):
    pass


# --- runner ---

class ConfigError(FedBoostError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


class IoError(FedBoostError):
    pass
