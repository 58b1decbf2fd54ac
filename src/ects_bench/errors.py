"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""

from contextlib import contextmanager


class EctsBenchError(Exception):
    """Base class for all library errors."""


class ConfigError(EctsBenchError):
    """Invalid configuration (unknown method, bad alpha grid, ...)."""


class DataError(EctsBenchError):
    """Malformed or unusable input data."""


class SplitError(DataError):
    """A stratified split cannot satisfy its per-class guarantees."""


class NumericError(EctsBenchError):
    """A numeric procedure diverged."""


@contextmanager
def writing_to(what: str, out_dir: str):
    """Turn an OSError raised while writing what into out_dir into a
    ConfigError naming that directory."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to {out_dir!r}: {exc.strerror or exc}") from None
