"""The rulebook for bad input: the ``hestonlab.errors`` helpers that the
package's entry points take their integers and arrays through."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import hestonlab as hl
from hestonlab.errors import (INT64_MAX, is_real, real_array, require_finite, require_int,
                              require_positive)


@pytest.mark.parametrize("value, minimum", [
    (0, 0), (7, 1), (2**70, 0), (np.int64(3), 1), (np.uint64(2**64 - 1), 0), (np.int8(-2), -2),
])
def test_require_int_gives_the_int_of_an_integer_in_range(value, minimum):
    got = require_int(value, "n", hl.InvalidArgument, minimum)
    assert type(got) is int and got == int(value)


@pytest.mark.parametrize("value", [True, np.True_, 2.0, 2.5, "3", None, -1, np.int64(-1)],
                         ids=repr)
def test_require_int_refuses_a_bool_a_non_integer_or_one_below_the_minimum(value):
    with pytest.raises(hl.InvalidSeed,
                       match=f"^seed must be an integer >= 0, got {re.escape(repr(value))}$"):
        require_int(value, "seed", hl.InvalidSeed)


def test_require_int_refuses_one_above_the_maximum():
    assert require_int(INT64_MAX, "steps", ValueError, maximum=INT64_MAX) == 2**63 - 1
    with pytest.raises(ValueError, match=rf"^steps must be an integer <= {INT64_MAX}, got "):
        require_int(INT64_MAX + 1, "steps", ValueError, maximum=INT64_MAX)


@pytest.mark.parametrize("value", [0.5, 3, np.float64(1e300), 2**1000, Fraction(1, 3), 5e-324],
                         ids=repr)
def test_require_positive_takes_a_finite_number_above_zero(value):
    assert require_positive(value, "dt", hl.InvalidGrid) is None


@pytest.mark.parametrize("value", [10**400, -10**400, 2**1024, math.inf, math.nan, 0, -0.0, -1.0,
                                   True, "1", None, np.array([1.0])], ids=repr)
def test_require_positive_refuses_an_int_beyond_the_doubles_and_what_is_not_above_zero(value):
    """An int beyond the doubles is refused here, not by an OverflowError
    from the first float it meets."""
    with pytest.raises(hl.InvalidGrid, match="^dt must be a finite number > 0, got "):
        require_positive(value, "dt", hl.InvalidGrid)


def small_path():
    return hl.simulate_xy(hl.canonical_params(), hl.TimeGrid(5.0, 50), hl.Scheme.DISRE,
                          hl.SeedLineage(3, 0))


# each entry point that took an int beyond the doubles into a float, with
# the error and the message that now refuse it
BEYOND_THE_DOUBLES = {
    "TimeGrid-horizon": (lambda: hl.TimeGrid(10**400, 10).dt, hl.InvalidGrid,
                         "^horizon must be a finite number > 0, got 10{400}$"),
    "lse_discrete_ab-dt": (lambda: hl.lse_discrete_ab(small_path().y, 10**400), hl.InvalidGrid,
                           "^dt must be a finite number > 0, got 10{400}$"),
    "lse_discrete_alphabeta-dt": (
        lambda: hl.lse_discrete_alphabeta(small_path().y, small_path().x, 10**400),
        hl.InvalidGrid, "^dt must be a finite number > 0, got 10{400}$"),
    "ito_cross_check-sigma1": (
        lambda: hl.ito_cross_check(hl.path_functionals(small_path()), 10**400),
        hl.NonPositiveSigma, "^sigma1 must be a finite number > 0, got 10{400}$"),
    "histogram_overlay-variance": (
        lambda: hl.histogram_overlay(np.linspace(-1.0, 1.0, 50), 10**400), hl.DegenerateSample,
        "^theoretical variance must be a finite number > 0, got 10{400}$"),
    "jarque_bera_pvalue-stat": (lambda: hl.jarque_bera_pvalue(10**400), hl.InvalidArgument,
                                "^Jarque-Bera statistic must be a number >= 0, got 10{400}$"),
    "anderson_darling_pvalue-stat": (
        lambda: hl.anderson_darling_pvalue(10**400, 50), hl.InvalidArgument,
        "^Anderson-Darling statistic must be a number >= 0, got 10{400}$"),
    "anderson_darling_pvalue-n": (
        lambda: hl.anderson_darling_pvalue(1.0, 10**400), hl.InvalidArgument,
        f"^n must be an integer <= {INT64_MAX}, got 10{{400}}$"),
}


@pytest.mark.parametrize("case", sorted(BEYOND_THE_DOUBLES))
def test_an_int_beyond_the_doubles_is_refused_by_name_not_overflowed(case):
    """Each such call raised a bare OverflowError from its first float; its
    rule refuses the int instead, and names the argument."""
    call, error, message = BEYOND_THE_DOUBLES[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("value, finite", [
    (0.5, True), (-3, True), (np.float64(2.0), True), (np.int8(-2), True), (Fraction(1, 3), True),
    (math.inf, False), (-math.inf, False), (math.nan, False), (10**400, False),
], ids=repr)
def test_is_real_takes_a_real_number_finite_where_asked(value, finite):
    assert is_real(value, finite=False)
    assert is_real(value) == finite


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j, [1.0], np.array([1.0])],
                         ids=repr)
def test_is_real_refuses_a_bool_or_other_than_a_real_number(value):
    assert not is_real(value) and not is_real(value, finite=False)


@pytest.mark.parametrize("values", [[1, 2], [0.5], np.arange(3, dtype=np.uint8), 2.0, [[1.0]]],
                         ids=repr)
def test_real_array_takes_integers_and_floats_as_float64(values):
    got = real_array(values, "x must hold real numbers")
    assert got.dtype == np.float64 and got.tolist() == np.asarray(values, dtype=float).tolist()


@pytest.mark.parametrize("values", [
    ["0.2", "0.3"], "abc", [True, False], np.ones(2, dtype=bool), [None, 1.0], [1j, 2.0],
    [2**70, 1], [[1.0, 2.0], [3.0]], [True, 0.5], [0.5, np.True_], [[1.0], [False]],
    (1, True),
], ids=repr)
def test_real_array_refuses_other_than_integers_and_floats(values):
    with pytest.raises(hl.InvalidArgument, match="^x must hold real numbers: "):
        real_array(values, "x must hold real numbers")


def test_require_finite_names_the_first_bad_entry():
    x = np.array([0.0, 1.0, math.inf, math.nan])
    with pytest.raises(hl.NonFiniteSample, match=r"^x\[2\] is inf$"):
        require_finite(x, hl.NonFiniteSample, "x[{i}] is {value}")
    head = x[:2]
    assert require_finite(head, hl.NonFiniteSample, "") is head

