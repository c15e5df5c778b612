"""Exception types shared across the package."""


class RessetError(Exception):
    """Base class for every error raised by this library."""


class ShapeError(RessetError):
    """Operand shapes are incompatible."""


class InvalidKernel(RessetError):
    """Kernel extent is not a positive odd integer."""


class DegenerateKernel(RessetError):
    """Kernel extent so large that some windows would read only padding."""


class NumericError(RessetError):
    """Non-finite values where finite ones are required."""


class ConfigError(RessetError):
    """Invalid or inconsistent configuration."""


class WindowTooLarge(RessetError):
    """Image is smaller than the similarity window."""


class NonFiniteLoss(RessetError):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")
