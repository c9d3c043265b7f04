"""Fixtures shared by the test modules."""

import functools

import pytest

from parkhanoi import optimal_strategies_through_ideal


@pytest.fixture(scope="session")
def ideal_layer():
    """``optimal_strategies_through_ideal(n)`` at the default budget, computed once
    per n in a session: the acceptance suite and the closed-form check both read
    the reports for n = 6..9, the largest the suite builds."""
    return functools.cache(optimal_strategies_through_ideal)
