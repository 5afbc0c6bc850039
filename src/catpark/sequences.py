"""Bounded nondecreasing sequences and their exact counts.

A parking distribution here is a nondecreasing tuple of positive integers.
A bound family (m, k, r) assigns position i the ceiling m*(i+k-1) - r; the
canonical family (m, 1, m-1) gives the ceilings (1, m+1, 2m+1, ...) that
drive everything else in the package.  Counting is exact (Python integers),
enumeration is lexicographic and guarded by a configurable object cap.  Both
run on ``kernels``, which owns the rule for bounded sequences: its counter
``count_for_bounds`` is imported here and its walker ``iter_bounded``
enumerates.

``_raney_count`` is the one closed form of the counts: ``fuss_catalan`` is
its canonical case, the CLI's ``count`` reads it, and so does
``_require_under_cap``, the one cap guard of ``enumerate_u_pk``, the
harness and the CLI.  The DP ``count_u_pk`` stays its oracle.
"""

from functools import lru_cache
from math import comb

from catpark.errors import EnumerationCapError
from catpark import kernels
from catpark.kernels import count_for_bounds

DEFAULT_MAX_OBJECTS = 10**8


class BoundFamily:
    """Per-position ceilings u_i = m*(i+k-1) - r for i >= 1, compared and
    hashed over (m, k, r)."""

    __slots__ = ("m", "k", "r")

    def __init__(self, m, k, r):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0 <= r <= m - 1:
            raise ValueError(f"r must be in [0, m-1], got r={r} with m={m}")
        self.m, self.k, self.r = m, k, r

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.k, self.r) == (other.m, other.k, other.r)

    def __hash__(self):
        return hash((self.m, self.k, self.r))

    def __repr__(self):
        return f"BoundFamily(m={self.m!r}, k={self.k!r}, r={self.r!r})"

    def bound(self, i):
        """Ceiling for position i (1-based)."""
        if i < 1:
            raise ValueError(f"position must be >= 1, got {i}")
        return self.m * (i + self.k - 1) - self.r

    def bounds(self, n):
        """Ceilings for positions 1..n as a list."""
        return [self.bound(i) for i in range(1, n + 1)]


@lru_cache
def canonical_family(m):
    """The family (m, 1, m-1) with ceilings (1, m+1, 2m+1, ...)."""
    return BoundFamily(m, 1, m - 1)


def is_u_pk(seq, family):
    """True iff seq is positive, nondecreasing, and within the family bounds.

    One pass: each entry must lie between its predecessor (1 for the first)
    and its position's ceiling, which grows by m per position.  The empty
    sequence passes vacuously.
    """
    low = 1
    top = family.m * family.k - family.r  # family.bound(1)
    for v in seq:
        if not low <= v <= top:
            return False
        low = v
        top += family.m
    return True


def _require_canonical(seq, m):
    """The input guard of the public maps: seq within the canonical bounds."""
    if not is_u_pk(seq, canonical_family(m)):
        raise ValueError(f"{seq} is not within the canonical bounds for m={m}")


def count_u_pk(n, family):
    """Exact count of family-bounded distributions of length n."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return count_for_bounds(family.bounds(n))


def _raney_count(n, family):
    """count_u_pk by the Raney closed form [x^n] B^s = s/((m+1)n+s) *
    binom((m+1)n+s, n) with s = mk - r (Graham-Knuth-Patashnik, Concrete
    Mathematics 5.4 and 7.5).  Unlike the DP it allocates no list as long
    as the largest bound, so its cost hardly grows with m.
    """
    s = family.m * family.k - family.r
    total = (family.m + 1) * n + s
    return s * comb(total, n) // total


def _require_under_cap(n, family, max_objects):
    """The one enumeration-cap guard: raise EnumerationCapError when the
    family has more than max_objects distributions of length n."""
    projected = _raney_count(n, family)
    if projected > max_objects:
        raise EnumerationCapError(projected, max_objects)


def enumerate_u_pk(n, family, max_objects=DEFAULT_MAX_OBJECTS, leaves=(),
                   text=None):
    """Yield every family-bounded distribution of length n, lexicographically.

    The count projected by the closed form is checked against max_objects
    before the first yield; EnumerationCapError is raised when it would be
    exceeded.  Rows are tuples, merged in sorted position with the labels
    in leaves; given text = (head, sep, tail), each row is that tuple's
    entries joined by sep, between head and tail, and the rows come as
    strings that, joined in order, are the framed rows, each string one or
    more whole rows (see ``kernels.iter_bounded``).
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    _require_under_cap(n, family, max_objects)
    return kernels.iter_bounded(family.bounds(n), leaves, text)


def fuss_catalan(m, n):
    """binom(m*n + n, n) / (m*n + 1): the Raney count at s = 1, which the
    canonical family has."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _raney_count(n, canonical_family(m))
