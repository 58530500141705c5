"""Typed reads of JSON number fields, shared by the spectrum and samples readers."""


def json_int(value, what: str) -> int:
    # JSON true/false load as bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def json_real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer with more than 308 digits
        raise ValueError(f"{what} lies beyond the double range") from None
