"""Bounded-sequence enumeration and counting."""

from itertools import accumulate, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpark import sequences
from catpark.errors import EnumerationCapError
from catpark.sequences import (
    BoundFamily,
    canonical_family,
    count_for_bounds,
    count_u_pk,
    enumerate_u_pk,
    fuss_catalan,
    fuss_catalan_upto,
    is_u_pk,
)


def filter_oracle(n, family):
    """Independent enumeration: filter all nondecreasing candidates."""
    if n == 0:
        return [()]
    top = family.bound(n)
    return [
        seq
        for seq in combinations_with_replacement(range(1, top + 1), n)
        if all(v <= family.bound(i) for i, v in enumerate(seq, start=1))
    ]


def test_bound_values():
    assert BoundFamily(2, 1, 1).bound(3) == 5
    assert BoundFamily(1, 1, 0).bound(7) == 7
    assert BoundFamily(3, 2, 0).bound(2) == 9


def test_canonical_family_bounds():
    fam = canonical_family(3)
    assert fam.bounds(4) == [1, 4, 7, 10]


def test_bound_family_validation():
    with pytest.raises(ValueError):
        BoundFamily(0, 1, 0)
    with pytest.raises(ValueError):
        BoundFamily(2, 0, 1)
    with pytest.raises(ValueError):
        BoundFamily(2, 1, 2)
    with pytest.raises(ValueError):
        BoundFamily(2, 1, -1)
    with pytest.raises(ValueError):
        canonical_family(2).bound(0)


def test_is_u_pk_examples():
    fam = canonical_family(2)
    assert is_u_pk((1, 1, 5), fam)
    assert is_u_pk((), fam)
    assert not is_u_pk((1, 2, 6), fam)  # 6 > bound(3) = 5
    assert not is_u_pk((2, 1, 3), fam)  # not nondecreasing
    assert not is_u_pk((0, 1), fam)


def test_enumerate_table2_left_column():
    rows = list(enumerate_u_pk(3, canonical_family(2)))
    assert rows == [
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5),
        (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
        (1, 3, 3), (1, 3, 4), (1, 3, 5),
    ]


def test_enumerate_empty_length():
    assert list(enumerate_u_pk(0, canonical_family(3))) == [()]


def test_enumerate_m3_r2():
    fam = BoundFamily(3, 1, 2)
    assert list(enumerate_u_pk(2, fam)) == [(1, 1), (1, 2), (1, 3), (1, 4)]


@pytest.mark.parametrize("m,k,r,n", [
    (1, 1, 0, 5), (2, 1, 1, 4), (2, 2, 0, 3), (3, 1, 0, 3),
    (3, 2, 2, 3), (2, 3, 1, 3),
])
def test_enumerate_matches_filter_oracle(m, k, r, n):
    fam = BoundFamily(m, k, r)
    assert list(enumerate_u_pk(n, fam)) == filter_oracle(n, fam)


def test_enumeration_strictly_lexicographic():
    fam = BoundFamily(2, 2, 1)
    out = list(enumerate_u_pk(4, fam))
    assert all(a < b for a, b in zip(out, out[1:]))


def test_counts():
    assert count_u_pk(3, canonical_family(2)) == 12
    assert count_u_pk(0, canonical_family(4)) == 1
    assert count_u_pk(2, BoundFamily(2, 2, 0)) == 18


def test_fuss_catalan_values():
    assert fuss_catalan(2, 3) == 12
    assert fuss_catalan(7, 0) == 1
    assert fuss_catalan(3, 4) == 140
    assert [fuss_catalan(1, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_fuss_catalan_matches_the_binomial_formula():
    for m in range(1, 31):
        for n in range(41):
            assert fuss_catalan(m, n) * (m * n + 1) == comb(m * n + n, n)


def test_fuss_catalan_upto_walks_the_consecutive_numbers():
    for m in range(1, 5):
        for n in range(61):
            assert fuss_catalan_upto(m, n) == [fuss_catalan(m, j)
                                               for j in range(n + 1)]
    # past m the cancelled ratio keeps min(j, m) + 1 factors a step
    for m in (10, 10**6):
        assert fuss_catalan_upto(m, 12) == [fuss_catalan(m, j) for j in range(13)]
    assert fuss_catalan_upto(2, -1) == []
    with pytest.raises(ValueError):
        fuss_catalan_upto(0, 3)


def test_fuss_catalan_validation():
    with pytest.raises(ValueError):
        fuss_catalan(0, 3)
    with pytest.raises(ValueError):
        fuss_catalan(2, -1)


def test_count_equals_fuss_catalan_and_enumeration():
    for m in (1, 2, 3, 4):
        fam = canonical_family(m)
        for n in range(7):
            dp = count_u_pk(n, fam)
            assert dp == fuss_catalan(m, n)
            assert dp == sum(1 for _ in enumerate_u_pk(n, fam))


def test_count_recurrences():
    """The two convolutions the count family satisfies, m <= 3, n <= 7."""
    def h(m, k, r, n):
        return count_for_bounds([m * (i + k - 1) - r for i in range(1, n + 1)])

    for m in (1, 2, 3):
        for k in (1, 2, 3):
            for r in range(m):
                for n in range(8):
                    if r < m - 1:
                        rhs = sum(h(m, k, r + 1, j) * h(m, 1, m - 1, n - j)
                                  for j in range(n + 1))
                    else:
                        rhs = sum(h(m, k - 1, 0, j) * h(m, 1, m - 1, n - j)
                                  for j in range(n + 1))
                    assert h(m, k, r, n) == rhs, (m, k, r, n)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        list(enumerate_u_pk(8, canonical_family(4), max_objects=1000))


def test_cap_projection_matches_count(monkeypatch):
    """The Raney closed form the cap reads equals the DP on every family
    with m <= 5, k <= 4, r < m and n <= 7, and the cap is exact."""
    for m in range(1, 6):
        for k in range(1, 5):
            for r in range(m):
                fam = BoundFamily(m, k, r)
                for n in range(8):
                    assert sequences._raney_count(n, fam) == count_u_pk(n, fam)
    fam = BoundFamily(3, 2, 1)
    total = count_u_pk(4, fam)
    monkeypatch.setattr(sequences, "count_for_bounds", None)  # not consulted
    assert len(list(enumerate_u_pk(4, fam, max_objects=total))) == total
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_u_pk(4, fam, max_objects=total - 1)
    assert exc.value.projected == total


def test_cap_guard_refuses_exactly_past_the_cap():
    """The guard refuses iff the Raney count exceeds the cap, on every
    family with m <= 4, k <= 3, r < m and n <= 8, and a refusal's
    projected count lies past the cap and at most at the count."""
    for m in range(1, 5):
        for k in range(1, 4):
            for r in range(m):
                fam = BoundFamily(m, k, r)
                for n in range(9):
                    count = sequences._raney_count(n, fam)
                    for cap in {0, count // 2, count - 1, count, 2 * count}:
                        if count <= cap:
                            sequences._require_under_cap(n, fam, cap)
                            continue
                        with pytest.raises(EnumerationCapError) as exc:
                            sequences._require_under_cap(n, fam, cap)
                        assert cap < exc.value.projected <= count


def test_every_yield_passes_membership():
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(5):
            for seq in enumerate_u_pk(n, fam):
                assert is_u_pk(seq, fam)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_count_matches_filter_oracle(m, k, data):
    r = data.draw(st.integers(0, m - 1))
    n = data.draw(st.integers(0, 4))
    fam = BoundFamily(m, k, r)
    assert count_u_pk(n, fam) == len(filter_oracle(n, fam))


# short int tuples: raw draws, and running sums of steps that may be zero,
# negative (decreasing runs) or large (over the ceiling)
SHORT_TUPLES = st.one_of(
    st.lists(st.integers(-2, 34), max_size=6),
    st.lists(st.integers(-2, 6), max_size=6).map(accumulate),
).map(tuple)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data(), SHORT_TUPLES)
def test_is_u_pk_matches_definition(m, k, data, seq):
    r = data.draw(st.integers(0, m - 1))
    fam = BoundFamily(m, k, r)
    expected = (all(v >= 1 for v in seq)
                and all(a <= b for a, b in zip(seq, seq[1:]))
                and all(v <= fam.bound(i) for i, v in enumerate(seq, start=1)))
    assert is_u_pk(seq, fam) == expected
