import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gvlam.metmodel import GuardExceeded, enumerate_tables, timed_space
from gvlam.oracles import brute_tv, enumerate_nonexpansive
from gvlam.probmodel import (FinDist, no_replace_sampler, replace_sampler,
                             tv_distance)


WEIGHTS = st.lists(st.integers(0, 5), min_size=1, max_size=5).filter(
    lambda w: sum(w) > 0)


def _dist(weights):
    total = sum(weights)
    return FinDist.from_dict(
        {i: Fraction(w, total) for i, w in enumerate(weights) if w})


@given(WEIGHTS, WEIGHTS)
def test_tv_distance_matches_event_maximum(w1, w2):
    p, q = _dist(w1), _dist(w2)
    assert tv_distance(p, q) == brute_tv(p, q)


def test_brute_tv_on_samplers():
    p = replace_sampler(2, 1, 1)
    q = no_replace_sampler(2, 1, 1)
    assert brute_tv(p, q) == tv_distance(p, q) == Fraction(1, 2)


def test_brute_tv_large_support_fallback():
    p = FinDist.from_dict({i: Fraction(1, 30) for i in range(30)})
    q = FinDist.from_dict({i: Fraction(1, 30) for i in range(10, 40)})
    assert brute_tv(p, q) == tv_distance(p, q) == Fraction(1, 3)


# Weights on eight outcomes; a zero weight leaves its outcome out.
EIGHT_WEIGHTS = st.lists(st.integers(0, 5), min_size=8, max_size=8).filter(
    any)


def _event_maximum(p, q):
    """The largest p(A) - q(A) over all events A of the merged support."""
    pd, qd = p.as_dict(), q.as_dict()
    support = sorted(set(pd) | set(qd))
    return max(sum(pd.get(o, 0) - qd.get(o, 0) for o in event)
               for r in range(len(support) + 1)
               for event in itertools.combinations(support, r))


@given(EIGHT_WEIGHTS, EIGHT_WEIGHTS, st.booleans())
def test_brute_tv_is_the_event_maximum(w1, w2, disjoint):
    if disjoint:
        w2 = [0 if a else b for a, b in zip(w1, w2)]
        assume(any(w2))
    p, q = _dist(w1), _dist(w2)
    assert brute_tv(p, q) == brute_tv(q, p) == _event_maximum(p, q)
    if disjoint:
        assert brute_tv(p, q) == 1


def test_brute_tv_enumerates_no_events(monkeypatch):
    # The samplers of `gvlam oracle tv 4 3 3`: 16 outcomes, so 65,536
    # events for any search over events.
    p, q = replace_sampler(4, 3, 3), no_replace_sampler(4, 3, 3)

    def refuse(*args):
        raise AssertionError("brute_tv enumerated events")
    monkeypatch.setattr(itertools, "combinations", refuse)
    assert brute_tv(p, q) == tv_distance(p, q) == Fraction(9, 40)


def test_nonexpansive_enumeration_matches_primary():
    for dom, cod in ((timed_space(2), timed_space(2)),
                     (timed_space(3), timed_space(1)),
                     (timed_space(1), timed_space(3))):
        assert sorted(enumerate_tables(dom, cod)) \
            == sorted(enumerate_nonexpansive(dom, cod))


def test_nonexpansive_guard(monkeypatch):
    monkeypatch.setenv("GVLAM_GUARD", "5")
    with pytest.raises(GuardExceeded):
        enumerate_nonexpansive(timed_space(2), timed_space(2))
