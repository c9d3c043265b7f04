"""Exception taxonomy shared across the package, plus the integer check and the
vector grammar: its parser and its writer.

The CLI maps these onto distinct exit codes, so the split matters:
malformed input is a different failure than a well-formed input lying
outside an operation's domain, and both differ from an exhausted search
budget.
"""

import re
from collections.abc import Sequence
from functools import lru_cache


class ValidationError(ValueError):
    """Malformed input: wrong length, entry out of range, unparseable text."""


class DomainError(ValueError):
    """Well-formed input outside an operation's domain.

    Examples: asking for the displacement of a vector that is not a
    parking function, or mapping a non-ideal tower state.
    """


class IllegalMoveError(DomainError):
    """A move that breaks the stacking rules in a given state."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search or scan would exceed the configured budget."""


def check_int(value: object, name: str, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an int (not a bool) >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}"
        )
        raise ValidationError(f"{name} must be {kind}, got {value!r}")


@lru_cache(maxsize=16)
def _numerals(size: int) -> tuple[str, ...]:
    """``str(0)``, ..., ``str(size)``: the text of every entry a length-``size``
    vector of the package can hold."""
    return tuple(map(str, range(size + 1)))


def _entry_cells(size: int) -> list[str]:
    """``"0,"``, ..., ``"{size},"``: the text of each entry with the comma after
    it, the pieces from which callers join a vector's text a prefix at a time."""
    return [s + "," for s in _numerals(size)]


def vector_text(vec: Sequence[int]) -> str:
    """``vec`` written as ``"3,1,1"``, the inverse of ``parse_vector``; every entry
    lies in 0..len(vec)."""
    table = _numerals(len(vec))
    return ",".join([table[v] for v in vec])


def parse_vector(text: str, what: str) -> tuple[int, ...]:
    """Entries of a vector written as ASCII digits and single commas, like ``"3,1,1"``."""
    if re.fullmatch(r"[0-9]+(,[0-9]+)*", text):
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:  # an entry past the interpreter's digit limit
            pass
    raise ValidationError(f"cannot parse {what} from {text!r}")
