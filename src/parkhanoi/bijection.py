"""The explicit one-to-one map between ideal tower states and
displacement-one parking functions.

An ideal state (x_0, ..., x_{n-1}, 0) with doubled peg j maps to the preference
vector whose (i+1)-th entry is x_i, shifted up by one when x_i > j.  The doubled
peg becomes the doubled preference, so j is preserved.  The inverse undoes the
shift: entries above j+1 drop by one (no entry ever equals j+1, since the single
preferences skip it).  Each map decides its input, reads j and words a
rejection in one set pass, on entry tuples; ``th_to_pf`` and ``pf_to_th``
validate their input and wrap the result in the public type.

``verify_bijection`` checks the map exhaustively at one size; ``verify`` returns
the whole battery, with the counts and the ideal layer, as a ``VerifyReport``.
The check streams the public enumerators and maps the entry tuples they yield.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Any

from .enumeration import (
    DEFAULT_SCAN_MAX_N,
    CountReport,
    _check_scan_budget,
    _count_reports,
    _scan,
    enumerate_pf_displacement,
    generate_displacement_one,
    lah_count,
)
from .errors import check_int
from .hanoi import (
    DEFAULT_STATE_BUDGET,
    HanoiState,
    IdealLayerReport,
    _doubled_peg,
    as_state,
    enumerate_ideal_states,
    optimal_strategies_through_ideal,
)
from .parking import PreferenceVector, _doubled, as_preference_vector


def th_to_pf(state: HanoiState | Sequence[int]) -> PreferenceVector:
    """Map an ideal state to its displacement-one parking function.

    Raises DomainError naming the first broken ideal-state condition
    when the input is not ideal.
    """
    return PreferenceVector(_to_prefs(as_state(state).pegs))


def _to_prefs(x: tuple[int, ...]) -> tuple[int, ...]:
    """``th_to_pf`` on entry tuples: the preferences of the ideal state with pegs x."""
    return _shifted(x, _doubled_peg(x))


def _shifted(pegs: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The preferences of an ideal state's pegs whose doubled peg is j."""
    return tuple([p + 1 if p > j else p for p in pegs[:-1]])


def pf_to_th(alpha: PreferenceVector | Sequence[int]) -> HanoiState:
    """Inverse map: rebuild the ideal state from a displacement-one
    parking function.

    Raises DomainError naming the first broken shape condition when the
    input does not have the displacement-one shape.
    """
    return HanoiState(_to_pegs(as_preference_vector(alpha).prefs))


def _to_pegs(a: tuple[int, ...]) -> tuple[int, ...]:
    """``pf_to_th`` on entry tuples: the pegs of the ideal state of preferences a."""
    j = _doubled(a)
    return (*[v - 1 if v > j + 1 else v for v in a], 0)


@dataclass(frozen=True)
class BijectionRecord:
    """One matched pair: an ideal state, its parking function, and the
    doubled value they share."""

    n: int
    ideal: HanoiState
    pf: PreferenceVector
    doubled_value: int

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "ideal": list(self.ideal.pegs),
            "pf": list(self.pf.prefs),
            "j": self.doubled_value,
        }


def make_record(state: HanoiState | Sequence[int]) -> BijectionRecord:
    """Map an ideal state and bundle both sides with the shared value, read
    in the map's one checking pass."""
    state = as_state(state)
    j = _doubled_peg(state.pegs)
    pf = PreferenceVector(_shifted(state.pegs, j))
    return BijectionRecord(n=state.n, ideal=state, pf=pf, doubled_value=j)


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of the exhaustive bijection check at one size.

    ``brute_image_matches`` is None when the scan-based image check was
    skipped; every other field is always computed.
    """

    n: int
    ideal_count: int
    pf_count: int
    expected_count: int
    injective: bool
    structural_image_matches: bool
    brute_image_matches: bool | None
    round_trip_states_ok: bool
    round_trip_prefs_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.structural_image_matches
            and self.brute_image_matches is not False
            and self.round_trip_states_ok
            and self.round_trip_prefs_ok
            and self.ideal_count == self.expected_count
            and self.pf_count == self.expected_count
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {**asdict(self), "ok": self.ok}


def verify_bijection(
    n: int, *, budget_n: int = DEFAULT_SCAN_MAX_N, check_image: bool = True
) -> BijectionReport:
    """Exhaustively verify the bijection at size n.

    Streams the ideal states and the constructive displacement-one set
    once each, keeping one set of entry tuples per side, and checks: the
    map is injective; its image equals the constructive set and (when
    ``check_image``) the brute-force scan of [n]^n; both round trips are
    the identity; and both streams yield n!(n-1)/2 items.  n = 1 passes
    vacuously on empty streams.
    """
    check_int(n, "n", 1)
    check_int(budget_n, "budget_n", 1)
    scanned = (
        {a.prefs for a in enumerate_pf_displacement(n, 1, budget_n=budget_n)}
        if check_image
        else None
    )
    return _bijection_report(n, scanned)


def _bijection_report(n: int, scanned: set[tuple[int, ...]] | None) -> BijectionReport:
    """``verify_bijection``'s report, with the image checked against the
    scanned displacement-one entry tuples, or not checked when it is None.

    A constructive vector's round trip is skipped exactly when every
    tower-side round trip held and the vector is in the image: then it is
    th_to_pf(x) for a state x that pf_to_th took it back to, so for pure
    maps th_to_pf(pf_to_th(a)) = a follows from calls that already returned.
    Every field and exception is that of running each round trip in turn
    until the first one fails.

    Both maps run on the entry tuples of the streamed values, so the pass
    builds no value of its own.  A mapped tuple needs no validation: the
    image equals the constructive set, and a round trip the streamed tuple,
    only when they are valid."""
    image: set[tuple[int, ...]] = set()
    structural: set[tuple[int, ...]] = set()
    ideal_count = pf_count = 0
    round_states = round_prefs = True
    for ideal_count, state in enumerate(enumerate_ideal_states(n), 1):
        x = state.pegs
        a = _to_prefs(x)
        round_states = round_states and _to_pegs(a) == x
        image.add(a)
    for pf_count, alpha in enumerate(generate_displacement_one(n), 1):
        a = alpha.prefs
        structural.add(a)
        skip = round_states and a in image
        round_prefs = round_prefs and (skip or _to_prefs(_to_pegs(a)) == a)
    return BijectionReport(
        n=n,
        ideal_count=ideal_count,
        pf_count=pf_count,
        expected_count=lah_count(n),
        injective=len(image) == ideal_count,
        structural_image_matches=image == structural,
        brute_image_matches=None if scanned is None else image == scanned,
        round_trip_states_ok=round_states,
        round_trip_prefs_ok=round_prefs,
    )


@dataclass(frozen=True)
class VerifyReport:
    """The whole battery at one size; ``ideal_layer`` is None for n = 1."""

    n: int
    bijection: BijectionReport
    counts: tuple[CountReport, ...]
    ideal_layer: IdealLayerReport | None

    @property
    def failures(self) -> list[dict[str, Any]]:
        """One JSON entry per failed check: the bijection, each count, the ideal layer."""
        bijection, layer = self.bijection, self.ideal_layer
        failures = [] if bijection.ok else [
            {"check": "bijection", "expected": {"ok": True}, "actual": bijection.to_json_obj()}
        ]
        failures += [
            {"check": f"count:{r.statistic}", "expected": r.closed_form, "actual": r.brute_force}
            for r in self.counts if r.match is False
        ]
        if layer is not None and not layer.ok:
            expected = {"min_win_moves": 2 * self.n + 3, "flags": dict.fromkeys("abc", True)}
            actual = layer.to_json_obj()
            failures.append({"check": "ideal_layer", "expected": expected, "actual": actual})
        return failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict[str, Any]:
        failures = self.failures
        return {
            "n": self.n,
            "bijection": self.bijection.to_json_obj(),
            "counts": [r.to_json_obj() for r in self.counts],
            "ideal_layer": None if self.ideal_layer is None else self.ideal_layer.to_json_obj(),
            "failures": failures,
            "ok": not failures,
        }


def verify(
    n: int, *, budget_n: int = DEFAULT_SCAN_MAX_N, budget_states: int = DEFAULT_STATE_BUDGET
) -> VerifyReport:
    """The whole battery at size n.  Raises BudgetExceededError over either budget
    before any scan; one scan of [n]^n serves the bijection's image check and the counts."""
    check_int(budget_states, "budget_states", 1)
    _check_scan_budget(n, budget_n)
    layer = None if n < 2 else optimal_strategies_through_ideal(n, budget_states=budget_states)
    tally: Counter[int] = Counter()
    ones: set[tuple[int, ...]] = set()
    for alpha, d in _scan(n):
        tally[d] += 1
        if d == 1:
            ones.add(alpha.prefs)
    return VerifyReport(n, _bijection_report(n, ones), tuple(_count_reports(n, tally)), layer)
