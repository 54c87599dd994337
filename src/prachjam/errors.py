"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration document or parameter record is invalid."""


class SimulationError(RuntimeError):
    """A simulation failed at runtime with a valid configuration."""


def check_number(name: str, value) -> None:
    """Refuse a value that is no int or float: as in the JSON loader, a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
