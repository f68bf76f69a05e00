"""Property tests: what divide_choose_3 reads of a reported row, which
lets the deviation search settle a dc3 check from it. The divider's
bundle depends on its row only through its `model.rank` order, and a
chooser ends with a bundle of its `dc3_offer`, whatever row it reports.

Costs are drawn from 0..3 so that ties, which the rank's index tie-break
and the choosers' bundle-index tie-break settle, are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import allocate, dc3_offer, divide_choose_3
from choremms.model import CostMatrix, descending

EXAMPLES = settings(max_examples=300, deadline=None)


@st.composite
def reports(draw):
    """A 3 x m matrix of costs in 0..3 with m 4..8, and one more row."""
    m = draw(st.integers(4, 8))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    matrix = CostMatrix.from_rows(draw(st.lists(row, min_size=3, max_size=3)))
    return matrix, tuple(float(c) for c in draw(row))


def reporting(matrix, agent, row):
    return CostMatrix(matrix.costs[:agent] + (tuple(row),) + matrix.costs[agent + 1 :])


@EXAMPLES
@given(reports(), st.sampled_from([1, 2]))
def test_a_chooser_ends_with_a_bundle_on_offer(report, agent):
    matrix, row = report
    offer = dc3_offer(matrix, agent)
    assert len(offer) == 4 - agent
    assert allocate(matrix, "dc3").bundles[agent] in offer
    assert allocate(reporting(matrix, agent, row), "dc3").bundles[agent] in offer


@EXAMPLES
@given(reports())
def test_divider_rows_of_one_ranking_give_one_bundle(report):
    """The divider's reported row, and the distinct costs m, ..., 1 along
    its descending order, ties going to the lower index."""
    matrix, row = report
    m = matrix.m
    strict = [0.0] * m
    for pos, j in enumerate(descending(row)):
        strict[j] = float(m - pos)
    assert descending(strict) == descending(row)
    bundles = [divide_choose_3(reporting(matrix, 0, r)).bundles[0] for r in (row, strict)]
    assert bundles[0] == bundles[1]
