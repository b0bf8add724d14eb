"""Inequality reports: a NaN or an infinity never passes."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finslerheat.reporting import compare


def test_non_finite_residuals_fail():
    cases = [
        (np.full(3, np.nan), np.zeros(3), 0),
        (np.array([np.inf]), np.array([np.inf]), 0),
        (np.array([0.0, np.nan]), np.zeros(2), 1),
        (np.array([1.0, 2.0, -np.inf]), np.zeros(3), 2),
    ]
    for lhs, rhs, first in cases:
        rep = compare("c", lhs, rhs, 10.0, "rule")
        assert not rep.passed
        assert rep.n_violations >= 1
        assert rep.worst_location == {"index": first}


finite = st.floats(-1e6, 1e6)


@given(
    lhs=hnp.arrays(np.float64, st.integers(1, 30), elements=finite),
    rhs=hnp.arrays(np.float64, st.integers(1, 30), elements=finite),
    bad=st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from([np.nan, np.inf, -np.inf])),
        min_size=1,
        max_size=5,
    ),
    tolerance=st.floats(0.0, 1e300),
)
def test_any_non_finite_residual_fails(lhs, rhs, bad, tolerance):
    size = min(lhs.size, rhs.size)
    lhs, rhs = lhs[:size].copy(), rhs[:size].copy()
    for index, value in bad:
        lhs[index % size] = value
    residual = lhs - rhs
    broken = np.flatnonzero(~np.isfinite(residual))
    rep = compare("c", lhs, rhs, tolerance, "rule")
    assert not rep.passed
    assert rep.n_violations >= broken.size
    assert rep.worst_location == {"index": int(broken[0])}
