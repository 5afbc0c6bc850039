"""Regular caterpillar trees and parking on them.

A tree of regularity m and backbone length n has m*n - m + 1 nodes.  The
backbone nodes carry labels m*(j-1)+1 and point toward the sink (the largest
label); each backbone node past the first is fed by m-1 leaves, except the
second, which also receives backbone node 1.  Labels decrease with depth, so
every parent label exceeds all labels in its subtree -- several routines
exploit that by accumulating in a single ascending pass.

Parking: cars arrive in index order, drive to their preferred node, and roll
toward the sink until they find a free node or fall out.  A car is lucky when
it prefers a backbone node and parks exactly there.  Every non-sink node's
parent is the least backbone label above it, so the climb from a taken node
meets the backbone labels above it in ascending order and stops at the
least free one: ``_park_cars`` takes it off a bitmask, never reading parent.

The module has two layers.  The private core (``_park_cars``, ``_park``,
``_theta_inv``) does no argument checks and assumes its input is in range:
``_park_cars`` and ``_park`` take preferences within 1..node_count,
``_theta_inv`` a sorted parking distribution on the tree whose leaf labels
it is given.  The public functions validate their input once, at the
boundary, then run on the core: ``simulate`` checks the entries and
``theta_inv`` checks the subtree condition, then sorts.  A sweep whose
objects are in range by construction, or already checked, calls the core
directly; verify's theta sweep hands ``_theta_inv`` the walker's images,
which come sorted.

``is_tree_pk`` is the subtree condition, for ``theta_inv`` and for verify's
``condition-vs-process`` check, its oracle.  Verify's theta sweep decides
the condition without it: ``harness._theta_step`` folds it along each
sorted image, closing each node once a larger label arrives, on trees
whose every subtree is the label interval ending at its root.
"""

from collections import namedtuple
from functools import lru_cache

from catpark.errors import NonMembershipError
from catpark.sequences import (
    DEFAULT_MAX_OBJECTS,
    _require_canonical,
    canonical_family,
    enumerate_u_pk,
)


class CaterpillarTree:
    """The labelled (m, n) tree, compared and hashed over every field.

    parent[label] is the parent of each label 1..node_count (the sink's is
    0), backbone_mask has bit j set for each backbone label j, and
    subtree_size[label] counts the nodes of label's subtree."""

    __slots__ = ("m", "n", "node_count", "parent", "backbone_labels",
                 "backbone_mask", "subtree_size")

    def __init__(self, m, n, node_count, parent, backbone_labels,
                 backbone_mask, subtree_size):
        self.m = m
        self.n = n
        self.node_count = node_count
        self.parent = parent
        self.backbone_labels = backbone_labels
        self.backbone_mask = backbone_mask
        self.subtree_size = subtree_size

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"CaterpillarTree(m={self.m!r}, n={self.n!r}, "
                f"node_count={self.node_count!r}, parent={self.parent!r}, "
                f"backbone_labels={self.backbone_labels!r})")


@lru_cache
def build_caterpillar(m, n):
    """Construct the labelled tree for regularity m and backbone length n."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count = m * n - m + 1
    backbone = tuple(m * (j - 1) + 1 for j in range(1, n + 1))
    parent = [0] * (count + 1)
    for label in range(1, count):  # the sink, label count, has no parent
        # the least backbone label (1 mod m) above label: a leaf's own
        # backbone node, or a backbone node's next one up
        parent[label] = ((label - 1) // m + 1) * m + 1
    sizes = [1] * (count + 1)
    sizes[0] = 0
    for label in range(1, count):
        sizes[parent[label]] += sizes[label]
    return CaterpillarTree(
        m=m,
        n=n,
        node_count=count,
        parent=tuple(parent),
        backbone_labels=backbone,
        backbone_mask=sum(1 << label for label in backbone),
        subtree_size=tuple(sizes),
    )


@lru_cache
def non_backbone_labels(m, n):
    """Leaf labels of the (m, n) tree, ascending."""
    count = m * n - m + 1
    # the backbone labels are the ones that are 1 mod m
    return tuple(j for j in range(1, count + 1) if (j - 1) % m)


def _validate_entries(tree, seq):
    for v in seq:
        if not 1 <= v <= tree.node_count:
            raise ValueError(
                f"preference {v} outside node range 1..{tree.node_count}"
            )


def is_tree_pk(tree, seq):
    """True iff every subtree receives at least as many preferences as nodes.

    seq must have exactly one entry per node; a length mismatch is an error,
    not a False.
    """
    if len(seq) != tree.node_count:
        raise ValueError(
            f"sequence length {len(seq)} != node count {tree.node_count}"
        )
    _validate_entries(tree, seq)
    received = [0] * (tree.node_count + 1)
    for v in seq:
        received[v] += 1
    # ascending labels = children before parents
    for label in range(1, tree.node_count + 1):
        if received[label] < tree.subtree_size[label]:
            return False
        p = tree.parent[label]
        if p:
            received[p] += received[label]
    return True


class ParkingOutcome(namedtuple("ParkingOutcome", "assignment lucky_set")):
    """Where each car ended up (node label, or None if it exited) and which
    cars were lucky.  Car indices are 1-based."""

    __slots__ = ()

    @property
    def all_parked(self):
        return all(node is not None for node in self.assignment)


def _park_cars(tree, state, cars):
    """Park cars, preferences within 1..node_count, in order from state =
    (taken nodes as a bitmask, lucky cars, every car parked); return the
    state after them.  A car takes its preference if that node is free,
    else the least free backbone node above it, else it falls out."""
    occupied, luck, parked = state
    backbone = tree.backbone_mask
    for pref in cars:
        bit = 1 << pref
        if not occupied & bit:
            occupied |= bit
            if backbone & bit:
                luck += 1
            continue
        free = backbone & ~occupied & -(bit << 1)
        if free:
            occupied |= free & -free
        else:
            parked = False
    return occupied, luck, parked


def _park(tree, seq):
    """The parking process on preferences within 1..node_count, one
    _park_cars step per car; a car's node is the bit its step set."""
    state = (0, 0, True)
    assignment = []
    lucky = set()
    for car, pref in enumerate(seq, start=1):
        after = _park_cars(tree, state, (pref,))
        taken = after[0] ^ state[0]
        assignment.append(taken.bit_length() - 1 if taken else None)
        if after[1] != state[1]:
            lucky.add(car)
        state = after
    return ParkingOutcome(tuple(assignment), frozenset(lucky))


def simulate(tree, seq):
    """Run the parking process for the given preferences, in index order."""
    _validate_entries(tree, seq)
    return _park(tree, seq)


def theta(seq, m, n):
    """Merge one copy of every leaf label into a (1, m+1, 2m+1, ...)-bounded
    distribution of length n, producing a tree parking distribution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(seq) != n:
        raise ValueError(f"expected length {n}, got {len(seq)}")
    _require_canonical(seq, m)
    return tuple(sorted(tuple(seq) + non_backbone_labels(m, n)))


def _theta_inv(seq, leaves):
    """seq less one copy of each leaf label.  seq must be sorted and hold
    every leaf label, as every parking distribution does (a leaf's subtree
    is the leaf).  One merge pass: leaves ascend, so the first copy of the
    next leaf label in seq is the one to skip."""
    out = []
    rest = iter(leaves)
    skip = next(rest, None)
    for v in seq:
        if v == skip:
            skip = next(rest, None)
        else:
            out.append(v)
    return tuple(out)


def theta_inv(seq, m, n):
    """Remove one copy of every leaf label; inverse of theta.  seq may come
    in any order; the preimage is sorted."""
    tree = build_caterpillar(m, n)
    if not is_tree_pk(tree, seq):
        raise ValueError(f"{seq} is not a parking distribution on the ({m},{n}) tree")
    return _theta_inv(sorted(seq), non_backbone_labels(m, n))


def enumerate_caterpillar_pk(m, n, max_objects=DEFAULT_MAX_OBJECTS,
                             text=None):
    """Iterate over all parking distributions on the (m, n) tree, as theta
    images of the bounded sequences, in the induced lexicographic order.
    The walker merges the leaf labels into each row, so no row is sorted;
    given text = (head, sep, tail), each row is its entries joined by sep
    between head and tail, and the yielded strings, joined in order, are
    the framed rows, each string one or more whole rows.  An n < 1, or a
    count past max_objects, raises at the call, before any row."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return enumerate_u_pk(n, canonical_family(m), max_objects,
                          non_backbone_labels(m, n), text)


def to_lattice_path(seq, m):
    """Encode a canonically bounded distribution as an N/E step word.

    The word is E^(p1-1) N E^(p2-p1) N ... N E^(m(n-1)+1-pn); it runs from
    (0,0) to (m(n-1), n) and satisfies x <= m*y just before every N step.
    """
    _require_canonical(seq, m)
    n = len(seq)
    if n == 0:
        return ""
    parts = []
    prev = 1
    for v in seq:
        parts.append("E" * (v - prev))
        parts.append("N")
        prev = v
    parts.append("E" * (m * (n - 1) + 1 - prev))
    return "".join(parts)


def from_lattice_path(word, m):
    """Decode an N/E step word back to the bounded distribution.

    Rejects words with foreign characters, an x > m*y prefix before some N
    step, or the wrong total number of E steps.
    """
    x = 0
    y = 0
    seq = []
    for ch in word:
        if ch == "E":
            x += 1
        elif ch == "N":
            if x > m * y:
                raise NonMembershipError(
                    f"x={x} exceeds m*y={m * y} before N step {y + 1}"
                )
            seq.append(x + 1)
            y += 1
        else:
            raise NonMembershipError(f"unexpected step {ch!r}; want N or E")
    n = y
    expected_e = 0 if n == 0 else m * (n - 1)
    if x != expected_e:
        raise NonMembershipError(
            f"word has {x} E steps; a length-{n} path needs {expected_e}"
        )
    return tuple(seq)
