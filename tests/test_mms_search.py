"""Property tests: the exact maxmin-share search against its references.

mms_exact prunes with the closed-bundle bound and places the last item
without recursing, and at n=2 scans every split instead of searching; it
must return exactly what the search without either returns
(oracles.mms_exact_reference): the same value, compared with ==, the same
witness bundles and the same method. Its value must also equal the
brute-force minimum over every partition (oracles.mms_bruteforce).

Rows come in five kinds: integers 0..4 (ties and zeros are common),
half-steps, uniform floats, floats of mixed magnitude (1e-9 to 1e9), and
integers nudged by 1e-15 to 1e-13, whose partitions tie up to rounding:
there the bound's rounding margin decides what may be cut. The n=2
property adds eighths with a few costs of 1e-300 to 1e-16, which a bundle
absorbs without changing its float load, and runs to the cap of 20 items,
past one scan block of 2**14 splits.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choremms.mms import mms_exact
from oracles import mms_bruteforce, mms_exact_reference


def _rows(m_max):
    def of(values):
        return st.lists(values, min_size=1, max_size=m_max)

    integer = st.integers(0, 4).map(float)
    half = st.integers(0, 8).map(lambda k: k / 2)
    uniform = st.floats(0.0, 1.0)
    mixed = st.builds(lambda c, e: c * 10.0**e, st.floats(0.0, 1.0), st.integers(-9, 9))
    nudged = st.builds(
        lambda c, e: c + e, st.integers(1, 4), st.sampled_from([0.0, 1e-15, 1e-14, 1e-13])
    )
    return of(integer) | of(half) | of(uniform) | of(mixed) | of(nudged)


def _exact_sums(row) -> bool:
    # integers and half-steps add up without rounding in any order
    return all((2 * c).is_integer() for c in row)


@settings(max_examples=400, deadline=None)
@given(row=_rows(14), n=st.integers(1, 6))
@example(row=[3.0, 3.0, 2.0, 2.0, 2.0], n=2)
@example(row=[1.0, 1.0, 1.0, 1.0, 0.0, 0.0], n=3)
@example(row=[3.0, 3.00000000000001, 1.0, 4.0, 4.00000000000001], n=2)
def test_mms_exact_matches_reference(row, n):
    got = mms_exact(row, n)
    expected = mms_exact_reference(row, n)
    assert got.value == expected.value
    assert got.witness.bundles == expected.witness.bundles
    assert got.method == expected.method


@settings(max_examples=150, deadline=None)
@given(row=_rows(9), n=st.integers(1, 6))
def test_mms_exact_value_is_the_bruteforce_minimum(row, n):
    res = mms_exact(row, n)
    expected = mms_bruteforce(row, n)
    if _exact_sums(row):
        assert res.value == expected
    else:
        # both sum in float, each in its own order
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert res.witness.check_partition(len(row)) == []
    worst = max(sum(row[j] for j in b) for b in res.witness.bundles)
    assert worst == pytest.approx(res.value, rel=1e-12, abs=0.0)


def _absorbed_rows(m_max):
    # eighths add up exactly, so many splits tie; a tiny cost leaves the
    # load of a bundle of eighths unchanged
    eighths = st.lists(st.integers(1, 16).map(lambda k: k / 8), min_size=1, max_size=m_max - 1)
    tiny = st.lists(
        st.builds(lambda c, e: c * 10.0**e, st.floats(0.1, 1.0), st.integers(-300, -16)),
        min_size=1,
        max_size=3,
    )
    return st.builds(lambda big, small: (big + small)[:m_max], eighths, tiny)


@settings(max_examples=200, deadline=None)
@given(row=_rows(20) | _absorbed_rows(20) | st.lists(st.floats(0.0, 1.0), min_size=15, max_size=20))
# bundle 0 reaches the share exactly, absorbs the tiny item, and the search
# still admits the split that moves every item from there to bundle 1
@example(row=[1.0] * 8 + [0.5, 0.75, 0.75, 0.125, 9.826133882900746e-176])
# 17 positive items: the share lies in the third of four scan blocks
@example(
    row=[0.6, 0.67, 0.01, 0.23, 0.48, 0.73, 0.83, 0.76, 0.34, 0.38, 0.86, 0.99, 0.48, 0.19]
    + [0.62, 0.54, 0.36]
)
def test_two_agent_scan_matches_reference(row):
    got = mms_exact(row, 2)
    expected = mms_exact_reference(row, 2)
    assert got.value == expected.value
    assert got.witness.bundles == expected.witness.bundles
    assert got.method == expected.method
