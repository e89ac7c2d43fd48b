"""The one domain check, ``errors.require``."""

import math

import pytest

from laserberry.errors import ScenarioError, ValidationError, require

#: Each rule stated as a plain predicate, apart from the code under test: a
#: value equals itself unless it is NaN, and an int of any size is finite.
_PREDICATES = {
    "finite": lambda v: v == v and v not in (math.inf, -math.inf),
    "positive": lambda v: v == v and v > 0,
    "positive and finite": lambda v: v == v and v not in (math.inf, -math.inf) and v > 0,
    "non-negative and finite": lambda v: v == v and v not in (math.inf, -math.inf) and v >= 0,
}

_EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
          0, 1, -1, 10 ** 400, -(10 ** 400), 1e308, -1e308, 1.7976931348623157e308, 2.5]


@pytest.mark.parametrize("rule", sorted(_PREDICATES))
@pytest.mark.parametrize("value", _EDGES, ids=lambda v: f"{type(v).__name__}:{v!r:.24}")
def test_each_rule_passes_exactly_what_its_predicate_passes(rule, value):
    if _PREDICATES[rule](value):
        require(rule, v=value)
    else:
        with pytest.raises(ValidationError) as info:
            require(rule, v=value)
        assert str(info.value) == f"v must be {rule}, got {value}"


@pytest.mark.parametrize("sequence", [tuple, list])
def test_sequence_items_are_named_by_index_and_none_passes(sequence):
    require("positive", a=None, b=sequence((1.0, None, 2)))
    with pytest.raises(ValidationError, match=r"^b\[2\] must be finite, got nan$"):
        require("finite", a=None, b=sequence((1.0, None, math.nan)))


def test_the_first_failing_value_wins():
    with pytest.raises(ValidationError, match=r"^b must be positive, got -1$"):
        require("positive", a=1, b=-1, c=math.nan)


def test_the_rules_run_in_order_on_each_value_before_the_next():
    # b fails the first rule, a only the second: a is reported first
    with pytest.raises(ValidationError, match=r"^a must be positive, got -2$"):
        require("finite", "positive", a=-2, b=math.inf)
    with pytest.raises(ValidationError, match=r"^a must be finite, got nan$"):
        require("finite", "positive", a=math.nan)
    with pytest.raises(ValidationError, match=r"^a must be positive, got -inf$"):
        require("positive", "finite", a=-math.inf)


def test_names_need_not_be_identifiers():
    with pytest.raises(ValidationError, match=r"^stem diameter must be non-negative"):
        require("non-negative and finite", **{"stem diameter": -0.1})


def test_the_error_type_is_chosen_by_the_caller():
    with pytest.raises(ScenarioError, match=r"^x must be finite, got inf$") as info:
        require("finite", error=ScenarioError, x=math.inf)
    assert not isinstance(info.value, ValidationError)
