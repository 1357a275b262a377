import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from crsdiag import SlopeQ, contact_to_topological
from crsdiag.errors import InvalidParameter

nonzero_pairs = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).filter(
    lambda pq: pq != (0, 0)
)


def test_reduction_and_infinity():
    assert SlopeQ.of(2, 4) == SlopeQ(1, 2)
    assert SlopeQ.of(-2, -4) == SlopeQ(1, 2)
    assert SlopeQ.of(2, -4) == SlopeQ(-1, 2)
    assert SlopeQ.of(5, 0) == SlopeQ(1, 0)
    assert SlopeQ.of(-1, 0) == SlopeQ(1, 0)
    with pytest.raises(ValueError):
        SlopeQ.of(0, 0)


@given(nonzero_pairs)
def test_constructor_always_reduced(pq):
    s = SlopeQ.of(*pq)
    if s.q == 0:
        assert s.p == 1
    else:
        assert s.q > 0 and gcd(abs(s.p), s.q) == 1


def test_of_equals_the_checked_constructor_on_seeded_pairs():
    """of reads its terms once and builds the reduced value without the
    constructor's checks; the constructor accepts that value and equals it."""
    rng = random.Random(20)
    for _ in range(3000):
        p = rng.choice((rng.randint(-60, 60), rng.randint(-10**30, 10**30)))
        q = rng.choice((rng.randint(-60, 60), rng.randint(-10**30, 10**30), 0))
        if p == q == 0:
            continue
        s = SlopeQ.of(p, q)
        assert s == SlopeQ(s.p, s.q) and hash(s) == hash(SlopeQ(s.p, s.q))
        assert type(s.p) is int and type(s.q) is int
        if q:
            assert s.q > 0 and Fraction(s.p, s.q) == Fraction(p, q)
        else:
            assert (s.p, s.q) == (1, 0)
    assert SlopeQ.of(True, -2) == SlopeQ(-1, 2)


@pytest.mark.parametrize("terms", [(2.5,), ("3",), (1, 2.0), (None, 1)])
def test_of_refuses_terms_of_other_types(terms):
    with pytest.raises(InvalidParameter, match="slope terms must have integer type"):
        SlopeQ.of(*terms)


def test_parse_and_str_round_trip():
    for text in ["-5/2", "3", "inf", "0", "-7", "10/3"]:
        assert str(SlopeQ.parse(text)) == text


def test_contact_to_topological_examples():
    assert contact_to_topological(SlopeQ.of(0), -1) == SlopeQ.of(-1)
    assert contact_to_topological(SlopeQ.of(1), -1) == SlopeQ.of(0)
    assert contact_to_topological(SlopeQ.of(5, 2), 0) == SlopeQ.of(5, 2)
    assert contact_to_topological(SlopeQ.infinity(), 5) == SlopeQ.infinity()


def topological_to_contact(t: SlopeQ, tb: int) -> SlopeQ:
    """Reference inverse of contact_to_topological: (p - q*tb)/q, infinity fixed."""
    if t.is_infinite:
        return t
    return SlopeQ.of(t.p - t.q * tb, t.q)


def test_topological_to_contact_examples():
    assert topological_to_contact(SlopeQ.of(-1), -1) == SlopeQ.of(0)
    assert topological_to_contact(SlopeQ.of(0), 0) == SlopeQ.of(0)


@given(nonzero_pairs, st.integers(-50, 50))
def test_conversions_mutually_inverse(pq, tb):
    c = SlopeQ.of(*pq)
    assert topological_to_contact(contact_to_topological(c, tb), tb) == c
    assert contact_to_topological(topological_to_contact(c, tb), tb) == c


def test_conversion_round_trip_sweep():
    rng = random.Random(1)
    for _ in range(10_000):
        c = SlopeQ.of(rng.randint(-40, 40), rng.randint(-40, 40) or 1)
        tb = rng.randint(-10, 10)
        assert topological_to_contact(contact_to_topological(c, tb), tb) == c


def test_framing_shift_linearity():
    rng = random.Random(2)
    for _ in range(500):
        c = rng.randint(-20, 20)
        tb, tb2 = rng.randint(-10, 10), rng.randint(-10, 10)
        lhs = contact_to_topological(SlopeQ.of(c), tb)
        rhs = contact_to_topological(SlopeQ.of(c), tb2)
        assert lhs.q == rhs.q == 1
        assert lhs.p - rhs.p == tb - tb2


def test_order_comparisons():
    assert SlopeQ.of(-5, 2) < SlopeQ.of(-2)
    assert SlopeQ.of(-1) <= SlopeQ.of(-1)
    assert SlopeQ.of(-5, 2) < -2 and SlopeQ.of(3) > 2 and SlopeQ.of(2) >= 2
    assert not SlopeQ.of(1, 2) >= 1 and not SlopeQ.of(1, 2) <= 0
    with pytest.raises(ValueError):
        _ = SlopeQ.infinity() < SlopeQ.of(0)
    with pytest.raises(ValueError):
        _ = SlopeQ.of(0) >= SlopeQ.infinity()
    with pytest.raises(TypeError):
        _ = SlopeQ.of(0) < 0.5
