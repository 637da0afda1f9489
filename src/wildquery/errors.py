"""Shared exception types."""


class KeyRangeError(ValueError):
    """A key lies outside [0, k**m) for the structure it was given to."""


class SizeLimitError(ValueError):
    """An operation would exceed its configured desk-scale resource limit."""


class PatternShapeError(ValueError):
    """A query pattern does not fit the target structure (length or arity)."""


def refuse_non_int(**args) -> None:
    """Raise TypeError naming the first argument that is not an int.

    Callers test `type(x) is int` themselves and call this only when a
    test fails, so a well-typed call pays no function call. A float would
    turn an exact count into an inexact one, and a bool is not a size.
    """
    for name, value in args.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")
