"""Property tests: the exact maxmin-share search against its references.

mms_exact prunes with one fit bound: the open bundles' fits must hold the
items left, where a fit is a bundle's room below the incumbent or, at
n = 2 to 4 over the last _FILL_ITEMS items, the largest subset sum within
it read from a table. Without a table the bound is skipped where it cannot
cut (no bundle closed and no incumbent drop since it last ran), and it
never runs at the last item's node. mms_exact must return exactly what the
search with no bound returns (oracles.mms_exact_reference): the same value,
compared with ==, the same witness bundles and the same method. Its value
must also equal the brute-force minimum over every partition
(oracles.mms_bruteforce).

Rows come in five kinds: integers 0..4 (ties and zeros are common),
half-steps, uniform floats, floats of mixed magnitude (1e-9 to 1e9), and
integers nudged by 1e-15 to 1e-13, whose partitions tie up to rounding:
there the bound's rounding margin decides what may be cut. The n=2
property adds eighths with a few costs of 1e-300 to 1e-16, which a bundle
absorbs without changing its float load, so that a bundle holds exactly the
incumbent and the search admits a tie below it, and runs to the cap of 20
items. The fill-bound property takes tie-heavy rows at the sizes where that
bound runs.

mms_value runs the same search for the value alone: it returns from a
node whose largest load has reached the incumbent, where every leaf ties
at best, and places the last item in closed form. Its value must be
mms_exact's, compared by `repr`, on rows of the five kinds at n 1 to 6 and
on the two-agent rows of eighths with absorbed costs up to the cap, where
a bundle holds exactly the incumbent and the witness search walks the ties
below it. It must refuse what mms_exact refuses, with the same exception
and message.

At n >= 3 the search starts from Karmarkar-Karp's slackened value where
that is below LPT's load. On rows where it is, at n 3 to 6, the search from
that start must return the value (compared with ==) and the assignment the
search from LPT's load returns.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from choremms.mms import (
    _FILL_ITEMS,
    _bracket,
    _branch_and_bound,
    _kk_start,
    mms_exact,
    mms_value,
)
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
# 17 positive items: the share's split parts the two costliest items, so
# the search reaches it only after the subtree that keeps them together
@example(
    row=[0.6, 0.67, 0.01, 0.23, 0.48, 0.73, 0.83, 0.76, 0.34, 0.38, 0.86, 0.99, 0.48, 0.19]
    + [0.62, 0.54, 0.36]
)
def test_two_agent_share_matches_reference(row):
    got = mms_exact(row, 2)
    expected = mms_exact_reference(row, 2)
    assert got.value == expected.value
    assert got.witness.bundles == expected.witness.bundles
    assert got.method == expected.method


@settings(max_examples=400, deadline=None)
@given(
    case=st.tuples(_rows(14), st.integers(1, 6)) | st.tuples(_absorbed_rows(20), st.just(2))
)
# a bundle holds exactly the share and absorbs the tiny item: the witness
# search walks the ties below it, the value search returns there
@example(case=([1.0] * 8 + [0.5, 0.75, 0.75, 0.125, 9.826133882900746e-176], 2))
def test_value_search_matches_the_witness_search(case):
    row, n = case
    value = mms_value(row, n)
    assert type(value) is float
    assert repr(value) == repr(mms_exact(row, n).value)


@pytest.mark.parametrize(
    "row, n",
    [((1.0, 2.0), 0), ((1.0, -1.0), 2), ((True, 2.0), 2), ((1.0,) * 21, 2)],
    ids=["no agents", "negative cost", "bool cost", "21 items"],
)
def test_value_search_refuses_what_the_witness_search_refuses(row, n):
    with pytest.raises(ValueError) as witness:
        mms_exact(row, n)
    with pytest.raises(ValueError) as value:
        mms_value(row, n)
    assert value.type is witness.type
    assert str(value.value) == str(witness.value)


def _tie_rows():
    # m from _FILL_ITEMS to 12. Integers 0..4 and eighths with costs a
    # bundle absorbs add up exactly, so many leaves tie and a bundle often
    # holds exactly the incumbent. Integers 1..4 times 0.1 tie in exact
    # arithmetic but round by the order of addition, which the tables do
    # not share with the search. Integers 0..4 times the least subnormal
    # add up exactly with a slack that rounds to zero.
    def of(values, size=12):
        return st.lists(values, min_size=_FILL_ITEMS, max_size=size)

    tiny = st.builds(lambda c, e: c * 10.0**e, st.floats(0.1, 1.0), st.integers(-300, -16))
    eighths = st.builds(
        lambda big, small: big + small,
        of(st.integers(1, 16).map(lambda k: k / 8), 9),
        st.lists(tiny, min_size=1, max_size=3),
    )
    return (
        of(st.integers(0, 4).map(float))
        | eighths
        | of(st.integers(1, 4).map(lambda k: k * 0.1))
        | of(st.integers(0, 4).map(lambda k: k * 5e-324))
    )


@settings(max_examples=300, deadline=None)
@given(row=_tie_rows(), n=st.sampled_from([2, 3, 4]))
# a fill with no slack on its key, or one that excludes a sum equal to the
# room, cuts the subtree of the last admitted leaf
@example(
    row=[0.4, 0.2, 0.30000000000000004, 0.1, 0.30000000000000004, 0.4, 0.1, 0.1, 0.1, 0.4, 0.1],
    n=3,
)
@example(row=[0.5, 0.9, 0.5, 0.8, 0.4, 0.2, 0.6, 0.7, 0.3, 0.6, 0.7, 0.8], n=4)
# exact sums: the only leaf's fits add up to exactly the rest
@example(row=[k * 5e-324 for k in (3, 3, 0, 0, 2, 0, 4, 2, 3, 4, 3)], n=3)
# KK's partition is optimal and its slack factor rounds to nothing, so only
# nextafter keeps the start above the optimum
@example(row=[1e-323] * 4 + [1.5e-323] * 2 + [2e-323] * 3, n=4)
def test_fill_bound_matches_reference_on_tied_rows(row, n):
    got = mms_exact(row, n)
    expected = mms_exact_reference(row, n)
    assert got.value == expected.value
    assert got.witness.bundles == expected.witness.bundles
    assert got.method == expected.method


def _kk_rows():
    # n from 3 to 6 with m from 2n + 2 to 3n, at most 16: at these sizes
    # Karmarkar-Karp often beats LPT on floats of one magnitude and on
    # half-steps, whose sums tie exactly
    def rows(n):
        def of(values):
            return st.lists(values, min_size=2 * n + 2, max_size=min(3 * n, 16))

        half = st.integers(1, 8).map(lambda k: k / 2)
        return st.tuples(of(st.floats(0.1, 1.0)) | of(half), st.just(n))

    return st.integers(3, 6).flatmap(rows)


# a quarter to a third of the rows drawn have KK beat LPT; the rest are
# filtered out
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=_kk_rows())
def test_kk_start_admits_what_the_lpt_start_admits(case):
    row, n = case
    items, lower, (lpt, _) = _bracket(row, n)
    assume(lpt > lower)  # mms_exact runs no search otherwise
    costs = [row[j] for j in items]
    start = _kk_start(costs, n)
    assume(start < lpt)
    from_lpt = _branch_and_bound(costs, n, len(row), lpt, lower, True)
    from_kk = _branch_and_bound(costs, n, len(row), start, lower, True)
    assert from_kk[0] == from_lpt[0]
    assert from_kk[1] == from_lpt[1]
