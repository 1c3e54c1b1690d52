"""Exception types shared across the package, and the text of integers
in their messages and in reports.

The CLI maps these onto exit codes: validation problems (bad fans, bad
files, non-complete fans) exit with 2, internal contract violations with 3.
"""

from decimal import Decimal


def int_text(n: int) -> str:
    """``str(n)``, also past the interpreter's limit on the digits of an
    int-to-str conversion (``sys.set_int_max_str_digits``)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


class ValidationError(ValueError):
    """Input data violates a documented precondition (bad fan, bad file)."""


class InternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not a bad input."""
