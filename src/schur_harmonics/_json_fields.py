"""Typed reads of JSON number fields, shared by the package's JSON readers."""


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


def json_square(rows, n: int, what: str) -> list:
    if not isinstance(rows, list) or [len(r) if isinstance(r, list) else -1 for r in rows] != [n] * n:
        raise ValueError(f"{what} must be an {n} x {n} array")
    return [[json_real(v, what) for v in row] for row in rows]
