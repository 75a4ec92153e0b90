"""Exception types shared across the package, and the checked float conversion of document numbers."""

import numpy as np


class GraphError(ValueError):
    """Malformed graph document or invalid graph/spec structure."""


class DomainError(ValueError):
    """An operation was evaluated or relaxed outside its valid domain."""


def _floats(x, convert=lambda x: np.array(x, dtype=np.float64)):
    """``convert(x)``, a float64 array by default; GraphError where an integer lies past the float range."""
    try:
        return convert(x)
    except OverflowError as exc:
        raise GraphError(f"number past the float range: {exc}") from exc
