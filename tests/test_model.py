"""Severity banding, count statistics, and CDF behaviour."""
from __future__ import annotations

import json
import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slsa_audit.model import (
    ComponentRef,
    EmptyInputError,
    Repository,
    ScoreRangeError,
    Severity,
    cdf_of_counts,
    dump_json,
    severity_band,
    summarize_counts,
)


def test_band_examples():
    assert severity_band(9.0) is Severity.CRITICAL
    assert severity_band(8.9) is Severity.HIGH
    assert severity_band(0.0) is Severity.UNKNOWN
    assert severity_band(None) is Severity.UNKNOWN


@pytest.mark.parametrize(
    "score,expected",
    [
        (0.1, Severity.LOW),
        (3.9, Severity.LOW),
        (4.0, Severity.MEDIUM),
        (6.9, Severity.MEDIUM),
        (7.0, Severity.HIGH),
        (8.9, Severity.HIGH),
        (9.0, Severity.CRITICAL),
        (10.0, Severity.CRITICAL),
    ],
)
def test_band_boundaries(score, expected):
    assert severity_band(score) is expected


def test_band_total_on_tenth_steps():
    # Every tenth in [0.0, 10.0] lands in exactly one band, including values
    # produced by accumulating float steps.
    for tenths in range(0, 101):
        score = tenths / 10
        band = severity_band(score)
        if tenths == 0:
            assert band is Severity.UNKNOWN
        elif tenths <= 39:
            assert band is Severity.LOW
        elif tenths <= 69:
            assert band is Severity.MEDIUM
        elif tenths <= 89:
            assert band is Severity.HIGH
        else:
            assert band is Severity.CRITICAL
    accumulated = 0.0
    for _ in range(100):
        accumulated += 0.1
        severity_band(min(accumulated, 10.0))  # must not raise


@pytest.mark.parametrize("bad", [-0.1, 10.1, 11.0, -5.0, float("nan"), float("inf")])
def test_band_range_errors(bad):
    with pytest.raises(ScoreRangeError):
        severity_band(bad)


def test_severity_order():
    assert Severity.CRITICAL.rank > Severity.HIGH.rank > Severity.MEDIUM.rank > Severity.LOW.rank
    with pytest.raises(ValueError):
        Severity.UNKNOWN.rank
    assert not Severity.UNKNOWN.at_least(Severity.LOW)
    assert Severity.HIGH.at_least(Severity.MEDIUM)


def test_summarize_singleton():
    stats = summarize_counts([5])
    assert (stats.mean, stats.median, stats.min, stats.max, stats.stddev) == (5, 5, 5, 5, 0)


def test_summarize_hand_computed():
    # Population stddev of [0, 10]: sqrt(((0-5)^2 + (10-5)^2) / 2) = 5.
    stats = summarize_counts([0, 10])
    assert stats.mean == 5
    assert stats.median == 5
    assert stats.min == 0
    assert stats.max == 10
    assert stats.stddev == pytest.approx(5.0)


def test_summarize_even_median():
    assert summarize_counts([1, 2, 3, 4]).median == 2.5


def test_summarize_empty():
    with pytest.raises(EmptyInputError):
        summarize_counts([])


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_summarize_properties(counts):
    stats = summarize_counts(counts)
    shuffled = list(counts)
    random.Random(0).shuffle(shuffled)
    assert summarize_counts(shuffled) == stats
    assert stats.min <= stats.median <= stats.max
    assert stats.stddev >= 0
    if len(set(counts)) == 1:
        assert stats.stddev == 0
    else:
        assert stats.stddev > 0


def test_cdf_hand_computed():
    points = cdf_of_counts([0, 0, 5, 200], [0, 10, 100, 1000])
    assert points == [(0, 0.5), (10, 0.75), (100, 0.75), (1000, 1.0)]


def test_cdf_trivials():
    assert cdf_of_counts([7], [7]) == [(7, 1.0)]
    assert cdf_of_counts([1, 2, 3], [0]) == [(0, 0.0)]


def test_cdf_errors():
    with pytest.raises(EmptyInputError):
        cdf_of_counts([], [0, 1])
    with pytest.raises(ValueError):
        cdf_of_counts([1], [5, 1])


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
    st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=10),
)
def test_cdf_monotone_and_complete(counts, raw_thresholds):
    thresholds = sorted(raw_thresholds)
    points = cdf_of_counts(counts, thresholds)
    fractions = [f for _, f in points]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert all(0.0 <= f <= 1.0 for f in fractions)
    if max(thresholds) >= max(counts):
        assert math.isclose(fractions[-1], 1.0)


def test_component_ref_validation():
    with pytest.raises(ValueError):
        ComponentRef(Repository.GITHUB, "", "name")
    with pytest.raises(ValueError):
        ComponentRef(Repository.GITHUB, "pub", "")
    ref = ComponentRef(Repository.GITHUB, "pub", "name", "1.0")
    assert ComponentRef.from_dict(ref.to_dict()) == ref


class _DictSubclass(dict):
    pass


# Escapes, controls, non-ASCII, a character outside the BMP and lone surrogates.
_JSON_TEXT = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001F600", "\ud800", "\udfff"]),
), max_size=8)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64), 10**100]),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-7, 1.5e300, math.nan, math.inf, -math.inf]),
    _JSON_TEXT,
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
        st.dictionaries(_JSON_TEXT, children, max_size=4).map(lambda d: OrderedDict(reversed(d.items()))),
        st.dictionaries(_JSON_TEXT, children, max_size=4).map(_DictSubclass),
    ),
    max_leaves=24,
)


@given(_JSON_DOCS)
def test_dump_json_equals_stdlib_indent_2(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{1: "x"}, {"a": [{None: 1}]}, {"a": 1, 2.5: 1}])
def test_dump_json_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        dump_json(doc)
