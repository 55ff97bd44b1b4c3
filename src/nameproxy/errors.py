"""Exception types shared across the package.

A class exists only where some code catches it by name; every other
failure the package detects is a plain :class:`NameproxyError` whose
message says what went wrong.
"""


class NameproxyError(Exception):
    """Base class for all package-specific errors: invalid input or an
    operation the data cannot support."""


class SchemaError(NameproxyError):
    """A file the program read does not match its expected schema."""
