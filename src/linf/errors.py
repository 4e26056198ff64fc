"""Exception types shared across the package."""


class LinfError(Exception):
    """Base class for all package errors."""


class ShapeError(LinfError):
    """Operand extents are incompatible with the requested operation."""


class ConfigError(LinfError):
    """Invalid configuration value, key, or parameter/config mismatch."""


class SingularMatrixError(LinfError):
    """Matrix is exactly singular (pivot below tolerance)."""


class UsageError(LinfError):
    """Operation called outside its contract (bad argument, wrong mode)."""


class ImageParseError(LinfError):
    """Malformed image file; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ImageFormatError(LinfError):
    """Unsupported image format or bit depth."""


class TrainingError(LinfError):
    """Training-time failure (non-finite loss, divergence)."""
