import math
import re

import numpy as np
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
    loop_around_origin,
    pencil_eigenvalues,
    reflect,
    simulate,
    time_to_boundary,
)
from billiardbook.io import write_trajectory_csv

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
    with pytest.raises(ValidationError, match="^n must be an integer >= 1, got 0$"):
        BookTable(k=-1.0, sheets=0)


def test_bool_counts_rejected():
    # True == 1, so only the type tells a flag from a count
    with pytest.raises(ValidationError, match="^n must be an integer >= 1, got True$"):
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


def test_a_runs_own_sheet_is_a_sheet():
    # the sheet column holds numpy integers: next_sheet() and reflect() take them
    table = BookTable(k=-1.0, sheets=np.int64(3))
    traj = simulate(table, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_reflections=4)
    sheet = traj.sheet[-1]
    assert repr(sheet) == "np.int64(1)" and table.next_sheet(sheet) == 2
    assert reflect(table, PhaseState(sheet, *traj.end[-1].tolist())).sheet == 2
    for bad in (0, 4, True, 1.0):
        message = rf"^sheet must be in 1\.\.3, got {re.escape(repr(bad))}$"
        with pytest.raises(ValidationError, match=message):
            table.next_sheet(bad)


def _write_samples(count, path):
    table = BookTable(k=-1.0)
    trajectory = simulate(table, STATE, max_reflections=2)
    write_trajectory_csv(path / "trajectory.csv", table, trajectory, samples_per_segment=count)


#: every count the package takes: (a call with the count, the least count it takes)
COUNTS = {
    "n": (lambda count, _: BookTable(k=-1.0, sheets=count), 1),
    "max_reflections": (lambda count, _: simulate(BookTable(-1.0), STATE, max_reflections=count), 0),
    "points_per_arc": (lambda count, _: loop_around_origin(BookTable(-1.0), points_per_arc=count), 2),
    "samples_per_segment": (_write_samples, 1),
    "resolution": (lambda count, _: bifurcation_diagram(-1.0, resolution=count), 2),
}


@pytest.mark.parametrize("name", COUNTS)
def test_one_rule_for_counts(name, tmp_path):
    # a bool, a fraction and a count below the least are refused alike; a numpy integer is a count
    call, least = COUNTS[name]
    for count in (True, least + 0.5, least - 1):
        message = rf"^{name} must be an integer >= {least}, got {re.escape(repr(count))}$"
        with pytest.raises(ValidationError, match=message):
            call(count, tmp_path)
    call(np.int64(least), tmp_path)


@given(n=st.integers(min_value=1, max_value=12), start=st.integers(min_value=1, max_value=12))
def test_permutation_is_an_n_cycle(n, start):
    if start > n:
        start = 1 + (start - 1) % n
    table = BookTable(k=-1.0, sheets=n)
    sheets = [start]
    for _ in range(n):
        sheets.append(table.next_sheet(sheets[-1]))
    assert sheets[-1] == start
    # an array of step counts gives the sheet after each, as that many single steps do
    assert table.next_sheet(start, np.arange(n)).tolist() == sheets[:-1]


def test_largest_book_glues_exactly():
    # up to n = 2^62, sheet - 1 + steps with steps below n is exact in the int64 sheet column
    n = 2**62
    table = BookTable(k=-1.0, sheets=n)
    assert table.next_sheet(n - 1, np.arange(4)).tolist() == [n - 1, n, 1, 2]
    traj = simulate(table, PhaseState(n, 0.3, 0.1, 0.4, -0.7), max_reflections=4)
    assert traj.sheet.tolist() == [n, 1, 2, 3]
    for past in (n + 1, 2**63 - 1, 10**20):
        with pytest.raises(ValidationError, match=rf"^n must be at most 2\*\*62, got {past}$"):
            BookTable(k=-1.0, sheets=past)


def test_table_is_immutable_value():
    table = BookTable(k=-2.0, sheets=2)
    assert table == BookTable(k=-2.0, sheets=2)
    with pytest.raises(AttributeError):
        table.k = -3.0
