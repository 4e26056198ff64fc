"""Exception types shared across the package."""


class LinfError(Exception):
    """Base class for all package errors."""


class ShapeError(LinfError):
    """Operand extents are incompatible with the requested operation."""


class ConfigError(LinfError):
    """Invalid configuration value, key, or parameter/config mismatch."""


def check_ranges(section: str, config, bounds: dict[str, tuple[bool, str]]) -> None:
    """Raise a ConfigError naming the first out-of-range field; `bounds` maps
    each field of `config` to (in range, the range)."""
    for name, (ok, want) in bounds.items():
        if not ok:
            raise ConfigError(f"{section}.{name} must be {want}, got {getattr(config, name)!r}")


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
