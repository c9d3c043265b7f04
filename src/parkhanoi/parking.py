"""One-way-street parking and the displacement statistic.

Cars 1..n enter a street of spots 1..n one at a time.  Car i drives to
its preferred spot and parks there if it is free; otherwise it rolls
forward and takes the first free spot, failing if it runs off the end.
A preference vector under which every car parks is a parking function.

Displacement measures how far the cars get pushed: car i is bumped
``assigned - preferred`` spots, and the displacement of the whole vector
is the sum over all cars.  A car bumped zero spots is lucky.

Everything here is an immutable value, and every function is pure.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import DomainError, ValidationError, parse_vector, vector_text


@dataclass(frozen=True)
class PreferenceVector:
    """1-indexed spot preferences for cars 1..n on a street of n spots."""

    prefs: tuple[int, ...]

    def __post_init__(self) -> None:
        prefs = self.prefs
        if type(prefs) is not tuple:
            try:
                prefs = tuple(prefs)
            except TypeError as exc:
                raise ValidationError(f"preferences must be a sequence, got {prefs!r}") from exc
            object.__setattr__(self, "prefs", prefs)
        n = len(prefs)
        if n == 0:
            raise ValidationError("a preference vector needs at least one car")
        for i, a in enumerate(prefs, start=1):
            if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)):
                raise ValidationError(f"preference of car {i} is not an integer: {a!r}")
            if not 1 <= a <= n:
                raise ValidationError(f"preference of car {i} is {a}, outside spots 1..{n}")

    @property
    def n(self) -> int:
        """Number of cars (equal to the number of spots)."""
        return len(self.prefs)

    def __len__(self) -> int:
        return len(self.prefs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.prefs)

    @classmethod
    def from_text(cls, text: str) -> "PreferenceVector":
        """Parse a comma-separated vector such as ``"3,1,1,3,2"``."""
        return cls(parse_vector(text, "preference vector"))

    def to_text(self) -> str:
        return vector_text(self.prefs)


def as_preference_vector(value: PreferenceVector | Sequence[int]) -> PreferenceVector:
    """Coerce a raw sequence of spot preferences, validating it."""
    if isinstance(value, PreferenceVector):
        return value
    return PreferenceVector(value)


@dataclass(frozen=True)
class ParkingOutcome:
    """Where each car parked, or the first car that could not.

    On success ``assignment`` is a permutation of 1..n and ``failed_car``
    is None.  On failure only ``failed_car`` is set; the statistics are
    undefined and stay None.
    """

    assignment: tuple[int, ...] | None
    displacements: tuple[int, ...] | None
    total_displacement: int | None
    lucky_count: int | None
    failed_car: int | None

    @property
    def succeeded(self) -> bool:
        return self.failed_car is None

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "displacements": list(self.displacements) if self.displacements is not None else None,
            "total_displacement": self.total_displacement,
            "lucky_count": self.lucky_count,
            "failed_car": self.failed_car,
        }


def park(alpha: PreferenceVector | Sequence[int]) -> ParkingOutcome:
    """Run the parking process, car by car in order of entry."""
    alpha = as_preference_vector(alpha)
    n = alpha.n
    occupied = bytearray(n + 1)  # spots 1..n
    assignment: list[int] = []
    for car, preferred in enumerate(alpha.prefs, start=1):
        spot = preferred
        while spot <= n and occupied[spot]:
            spot += 1
        if spot > n:
            return ParkingOutcome(None, None, None, None, car)
        occupied[spot] = 1
        assignment.append(spot)
    displacements = tuple(s - a for s, a in zip(assignment, alpha.prefs))
    return ParkingOutcome(
        assignment=tuple(assignment),
        displacements=displacements,
        total_displacement=sum(displacements),
        lucky_count=displacements.count(0),
        failed_car=None,
    )


def is_parking_function(alpha: PreferenceVector | Sequence[int]) -> bool:
    """True iff every car manages to park under the given preferences."""
    return park(alpha).failed_car is None


def displacement(alpha: PreferenceVector | Sequence[int]) -> int:
    """Total bumping under alpha.  Defined only for parking functions."""
    outcome = park(alpha)
    if outcome.failed_car is not None:
        raise DomainError(
            f"displacement is undefined: car {outcome.failed_car} cannot park"
        )
    return outcome.total_displacement


def _shape_violation(prefs: tuple[int, ...]) -> str | int:
    """The doubled preference j (an int) when the entries have the
    displacement-one shape, or the first broken condition as a message.

    One set pass decides and words: prefs has one value twice and the
    rest once exactly when it takes n-1 distinct values; the doubled one
    is then ``sum(prefs) - sum(values)``, and prefs has the shape exactly
    when it is one less than the missing one, ``1 + ... + n - sum(values)``."""
    n = len(prefs)
    values = set(prefs)
    if len(values) == n - 1:
        total = sum(values)
        j = sum(prefs) - total
        if j == n * (n + 1) // 2 - total - 1:
            return j
        if j > n - 1:
            return f"the doubled preference is {j}; it must be at most {n - 1}"
        return (
            f"the single preferences are {sorted(values - {j})}; they must be exactly "
            f"{sorted(set(range(1, n + 1)) - {j, j + 1})} (every spot except {j} and {j + 1})"
        )
    return "exactly one preference value must appear exactly twice"


def displacement_one_violation(alpha: PreferenceVector | Sequence[int]) -> str | None:
    """Why alpha fails the displacement-one shape, or None if it has it.

    The shape: exactly one value j <= n-1 appears exactly twice, and the
    remaining n-2 entries are exactly the spots 1..n other than j and
    j+1, each once.  Vectors of this shape are precisely the parking
    functions of total displacement one; the check is purely structural
    and never simulates any parking.
    """
    found = _shape_violation(as_preference_vector(alpha).prefs)
    return found if isinstance(found, str) else None


def is_displacement_one_characterized(alpha: PreferenceVector | Sequence[int]) -> bool:
    """Structural displacement-one test; no parking simulation involved."""
    return displacement_one_violation(alpha) is None


def doubled_preference(alpha: PreferenceVector | Sequence[int]) -> int:
    """The unique spot preferred by exactly two cars.

    Only defined for displacement-one parking functions; raises
    DomainError naming the first violated shape condition otherwise.
    """
    return _doubled(as_preference_vector(alpha).prefs)


def _doubled(prefs: tuple[int, ...]) -> int:
    """The doubled preference of displacement-one entries; raises DomainError
    naming the first broken shape condition."""
    found = _shape_violation(prefs)
    if isinstance(found, str):
        raise DomainError(f"not a displacement-one parking function: {found}")
    return found
