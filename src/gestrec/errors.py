"""The root of every exception the package raises."""


class GestrecError(Exception):
    """Base class of every gestrec error; the CLI reports each as one line."""


class InvalidConfig(GestrecError):
    """Out-of-range generator or discretization parameters."""
