"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import heatspec.simulate as _sim
from heatspec.trace_poly import TracePoly, v

# library names that collide with pytest's Test*/test_* collection patterns
_sim.TestFunction.__test__ = False
_sim.test_function_norms.__test__ = False


def coeff_strategy():
    part = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def _build_poly(terms) -> TracePoly:
    total = TracePoly.zero()
    for pairs, c in terms:
        mono = TracePoly.const(c)
        for k, e in pairs:
            mono = mono * v(k) ** e
        total = total + mono
    return total


def poly_strategy(max_index: int = 3, max_exp: int = 2, max_terms: int = 3):
    """Small random trace polynomials (possibly zero)."""
    pair = st.tuples(
        st.integers(-max_index, max_index).filter(lambda k: k != 0),
        st.integers(1, max_exp),
    )
    term = st.tuples(st.lists(pair, max_size=2), coeff_strategy())
    return st.lists(term, max_size=max_terms).map(_build_poly)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
