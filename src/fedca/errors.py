"""Exception types shared across the package, and the type checks on parsed
JSON that raise them."""

import math


class FedcaError(Exception):
    """Base class for all library errors."""


class ValidationError(FedcaError):
    """Malformed input data or a violated operation precondition."""


class BudgetExceededError(FedcaError):
    """An exact search was refused because it would exceed its evaluation budget."""


_JSON_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}
_REQUIRED = object()


def check_json(value, kinds: tuple[type, ...], what: str, items: tuple[type, ...] | None = None):
    """``value`` if it is one of ``kinds``; a ValidationError naming ``what`` otherwise.

    With ``items``, ``value`` must also be a list whose every element is one
    of ``items``. ``bool`` passes only where it is listed, never as a number.
    """
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        expected = " or ".join(_JSON_NAMES.get(k, k.__name__) for k in kinds
                               if not (k is int and float in kinds))
        raise ValidationError(
            f"{what} must be {expected}, got {_JSON_NAMES.get(type(value), type(value).__name__)}"
        )
    if items is not None:
        for i, item in enumerate(value):
            check_json(item, items, f"{what}[{i}]")
    return value


def check_number(value, what: str, finite: bool = True, minimum: float | None = None) -> float:
    """``value`` as a float; a ValidationError naming ``what`` if it is NaN,
    an integer beyond float range, below ``minimum`` or, when ``finite``,
    infinite."""
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{what} is beyond float range") from None
    if math.isnan(number) or (finite and math.isinf(number)):
        kind = "a finite number" if finite else "a number, not NaN"
        raise ValidationError(f"{what} must be {kind}, got {number!r}")
    if minimum is not None and number < minimum:
        raise ValidationError(f"{what} must be >= {minimum:g}, got {number!r}")
    return number


def json_field(obj, name: str, kinds: tuple[type, ...], owner: str,
               items: tuple[type, ...] | None = None, default=_REQUIRED):
    """Field ``name`` of the parsed JSON object ``obj``, checked by ``check_json``.

    A missing field returns ``default``, or raises when no default is given.
    Errors name ``owner`` and the field.
    """
    check_json(obj, (dict,), owner)
    if name not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{owner} is missing field {name!r}")
        return default
    return check_json(obj[name], kinds, f"{owner} field {name!r}", items)
