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


@pytest.fixture
def watch(monkeypatch):
    """``watch(owner, name)`` swaps ``owner.name`` for this test with a wrapper
    that records each call's positional arguments, then makes the call; it
    returns the list of those argument tuples."""

    def watch(owner, name):
        calls, real = [], getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
        return calls

    return watch
