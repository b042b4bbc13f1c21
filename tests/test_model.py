import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    PhaseState,
    ValidationError,
    bifurcation_diagram,
    flow_free,
    in_image,
    linearization_operators,
    pencil_eigenvalues,
    simulate,
    time_to_boundary,
)

STATE = PhaseState(1, 0.3, 0.1, 0.4, -0.7)
#: every entry point that takes the Hooke coefficient k itself
TAKES_K = {
    "BookTable": lambda k: BookTable(k),
    "flow_free": lambda k: flow_free(STATE, 0.5, k),
    "time_to_boundary": lambda k: time_to_boundary(STATE, k),
    "in_image": lambda k: in_image(0.3, 0.5, k),
    "bifurcation_diagram": bifurcation_diagram,
    "linearization_operators": linearization_operators,
    "pencil_eigenvalues": pencil_eigenvalues,
}


def test_in_range_parameters_accepted():
    table = BookTable(k=-1.0, sheets=3)
    assert table.k == -1.0
    assert table.sheets == 3
    assert [table.next_sheet(s) for s in (1, 2, 3)] == [2, 3, 1]


def test_nonnegative_k_rejected():
    with pytest.raises(ValidationError, match="k must be negative"):
        BookTable(k=0.0, sheets=1)
    with pytest.raises(ValidationError):
        BookTable(k=1.0, sheets=1)


@pytest.mark.parametrize("k", [-math.inf, math.nan, 0.0, 1.0])
@pytest.mark.parametrize("entry", TAKES_K)
def test_k_that_is_not_finite_and_negative_rejected(entry, k):
    with pytest.raises(ValidationError, match="^k must be negative"):
        TAKES_K[entry](k)


def test_empty_book_rejected():
    with pytest.raises(ValidationError, match="n must be >= 1"):
        BookTable(k=-1.0, sheets=0)


def test_bool_counts_rejected():
    # True == 1, so only the type tells a flag from a count
    with pytest.raises(ValidationError, match="n must be >= 1"):
        BookTable(k=-1.0, sheets=True)
    with pytest.raises(ValidationError, match="max_reflections must be an integer"):
        simulate(BookTable(k=-1.0), STATE, max_reflections=True)


def test_next_sheet_examples():
    assert BookTable(k=-1.0, sheets=3).next_sheet(3) == 1
    assert BookTable(k=-1.0, sheets=1).next_sheet(1) == 1
    assert BookTable(k=-1.0, sheets=5).next_sheet(2) == 3


def test_next_sheet_out_of_range():
    table = BookTable(k=-1.0, sheets=3)
    for bad in (0, 4, -1):
        with pytest.raises(ValidationError):
            table.next_sheet(bad)


@given(n=st.integers(min_value=1, max_value=12), start=st.integers(min_value=1, max_value=12))
def test_permutation_is_an_n_cycle(n, start):
    if start > n:
        start = 1 + (start - 1) % n
    table = BookTable(k=-1.0, sheets=n)
    sheet = start
    for _ in range(n):
        sheet = table.next_sheet(sheet)
    assert sheet == start


def test_table_is_immutable_value():
    table = BookTable(k=-2.0, sheets=2)
    assert table == BookTable(k=-2.0, sheets=2)
    with pytest.raises(AttributeError):
        table.k = -3.0
