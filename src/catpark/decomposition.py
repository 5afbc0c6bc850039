"""First-return decomposition and the bijections built on it.

Throughout, sequences live under the canonical bounds (1, m+1, 2m+1, ...).
For 1 <= l <= m, the first fixed point of type l is the smallest position
k > 1 whose value lands in the window [m(k-2)+1+l, m(k-1)+1]; absent fixed
points are reported as n+1.  Cutting a distribution at its m fixed-point
indices and shifting each block down to start at 1 yields m+1 shorter
distributions; recomposition inverts this exactly.

The module has two layers.  The private core (``_fixed_points``, ``_cut``,
``_assemble``, ``_luck``, ``_tau``, ``_eta``, ``_eta_inv``) does no checks
and assumes in-bounds input.  ``_return_step`` is the incremental form of
``_fixed_points``'s rule: folded along a sequence by
``kernels.fold_bounded`` from ``_RETURN_START``, it carries luck, the number
of 1s and the blocks ``_cut`` would give, which ``_return_blocks`` reads,
so a sweep that walks its sequences never cuts them again.  The public
functions validate their input once, at the boundary, then run on the core
without re-checking its output.
``_assemble`` places in-bounds blocks so that the result is in bounds and
its fixed points are the forced cuts, 2 plus the running total of the block
lengths, which is what makes it decompose back into them.  That is checked
in public ``recompose``, the boundary for blocks from outside; in verify's
sweeps, where each eta image is bound-checked and each tau image must be a
sequence the walk reaches; and in the tests, over every small block tuple.

The involution tau swaps the first and last components (recursing into
each), exchanging the luck statistic with the multiplicity of 1.  Its core
``_tau(seq, m, images, comps=None)`` reads and fills a caller-owned table
of images (sequence -> tau image): it answers a sequence already in the
table and adds the image of every component it computes, never that of seq
itself.  It runs one loop on an explicit stack: a popped sequence is cut,
unless it is seq and the caller passed its blocks as comps, and when the
images of both end blocks are in the table it is assembled; otherwise it
goes back on the stack, with its cut, under the missing end blocks.
Public ``tau`` passes a fresh table, so each call stands alone; a sweep
that visits sequences by increasing length can keep one table and store
each image it wants reused, so every tau it asks for is one assembly, and
one cut unless the sweep folded the blocks along its walk.  Verify's
involution sweep folds them and asks for one tau per sequence it walks: it
checks the orbit {p, tau(p)} when the walk reaches the later member, whose
image must be the earlier one, so no member of an orbit is cut, bound-checked
or has its statistics counted again.

The map eta rebuilds a distribution from the per-component multiplicities
of 1 and transports every other entry upward by a component-dependent
offset.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import eq

from catpark.errors import InvalidCompositionError, NonMembershipError
from catpark.sequences import _require_canonical, canonical_family, is_u_pk


# components: m+1 sequences, possibly empty; fixed_points: the first index
# per type, n+1 when absent
FirstReturnDecomposition = namedtuple("FirstReturnDecomposition",
                                      "components fixed_points")


# -- core: no argument checks; every input is within the canonical bounds --


def _fixed_points(seq, m):
    """First fixed-point index per type as a plain tuple, n+1 when absent.

    Position k holds fixed points of the types l <= v - m(k-2) - 1, so the
    first index of type l is where that running maximum first reaches l.
    """
    found = []
    reached = 0
    floor = 1  # m(k-2) + 1
    for k, v in enumerate(seq[1:], start=2):
        if v - floor > reached:
            found.extend([k] * (v - floor - reached))
            reached = v - floor
            if reached == m:
                return tuple(found)
        floor += m
    return tuple(found) + (len(seq) + 1,) * (m - reached)


# the fold state of the empty prefix; see _return_step
_RETURN_START = (None, 0, 0, 0, (), 0, ())


def _return_step(m, state, v, piece):
    """The fold state of a prefix extended by v: _fixed_points's rule and
    _cut's blocks, one value at a time, for ``kernels.fold_bounded``.

    state is (floor, luck, ones, reached, closed, shift, block): floor is
    m(k-2) + 1 for the next position k (None before position 1), luck and
    ones count the lucky positions and the 1s so far, reached is the
    running maximum of v - floor, closed holds the blocks before block
    reached, and block is that open block, shifted down by shift.  A value
    that raises reached to t closes the open block, leaves the blocks of
    the types in between empty and opens block t with itself.
    """
    floor, luck, ones, reached, closed, shift, block = state
    if floor is None:  # position 1 holds 1, lucky and in no block
        return 1, 1, 1, 0, (), 0, ()
    t = v - floor  # lucky exactly when t == m, a 1 only when t <= 0
    if t <= reached:
        return (floor + m, luck + (t == m), ones + (v == 1), reached, closed,
                shift, block + (v - shift,))
    return (floor + m, luck + (t == m), ones, t,
            closed + (block,) + ((),) * (t - reached - 1), v - 1, (1,))


def _return_blocks(state, m):
    """The m+1 blocks of a finished prefix, as _cut at its fixed points
    gives them: the blocks past the open one are empty."""
    reached, closed, block = state[3], state[4], state[6]
    return closed + (block,) + ((),) * (m - reached)


def _cut(seq, cuts):
    """The blocks between consecutive cut indices, shifted to start at 1.

    With m cuts there are m+1 blocks; block l covers positions
    cuts[l-1] .. cuts[l] - 1 (the first block starts at position 2, the
    last runs to the end); the leading 1 at position 1 is dropped.
    """
    edges = (2,) + cuts + (len(seq) + 1,)
    blocks = []
    for start, stop in zip(edges, edges[1:]):
        if start >= stop:
            blocks.append(())
        else:
            shift = seq[start - 1] - 1
            blocks.append(tuple([v - shift for v in seq[start - 1:stop - 1]]))
    return tuple(blocks)


def _assemble(components, m):
    """Place the blocks after a leading 1 and return the sequence.

    Block j >= 1 starts at the position its predecessors' lengths force,
    2 + their total length, and is shifted up by m(start-2) + j, which
    makes its first entry a fresh fixed point of type j; an empty block
    adds nothing.
    """
    out = (1, *components[0])
    for j in range(1, m + 1):
        block = components[j]
        if block:
            shift = m * (len(out) - 1) + j
            out += tuple([v + shift for v in block])
    return out


def _luck(seq, m):
    return sum(map(eq, seq, range(1, m * len(seq) + 1, m)))


# -- public entry points: validate once, then run on the core --------------


def _checked_fixed_points(seq, m):
    """_fixed_points of seq, checked to be nonempty and in bounds: what
    first_fixed_point reads, and ``stats`` in the CLI for both its types."""
    _require_canonical(seq, m)
    if not seq:
        raise ValueError("sequence must be nonempty")
    return _fixed_points(seq, m)


def first_fixed_point(seq, m, l):
    """Smallest k > 1 with m(k-2)+1+l <= seq[k] <= m(k-1)+1, else n+1."""
    fixed = _checked_fixed_points(seq, m)
    if not 1 <= l <= m:
        raise ValueError(f"type must be in [1, {m}], got {l}")
    return fixed[l - 1]


def decompose(seq, m):
    """Cut at the fixed points and shift every block down to start at 1.

    Block l covers positions i_(l-1) .. i_l - 1 (the first block starts at
    position 2, the last runs to the end); empty ranges give empty
    components.  The leading 1 at position 1 is implicit and dropped.
    """
    _require_canonical(seq, m)
    if not seq:
        raise ValueError("cannot decompose the empty sequence")
    cuts = _fixed_points(seq, m)
    return FirstReturnDecomposition(_cut(seq, cuts), cuts)


def recompose(components, m):
    """Inverse of decompose: rebuild the unique sequence with these blocks.

    The cut positions are forced by the block lengths; each block is shifted
    back up by the unique offset that makes its first entry a fresh fixed
    point of the right type.  The result is checked to be in bounds and to
    have its fixed points at the forced cuts.
    """
    if len(components) != m + 1:
        raise InvalidCompositionError(
            f"need {m + 1} components, got {len(components)}"
        )
    fam = canonical_family(m)
    for comp in components:
        if not is_u_pk(comp, fam):
            raise InvalidCompositionError(
                f"component {comp} is not within the canonical bounds for m={m}"
            )
    result = _assemble(components, m)
    if not is_u_pk(result, fam):
        raise InvalidCompositionError(f"recomposed {result} violates the bounds")
    # the forced cuts: 2 plus the running total of the block lengths
    cuts = tuple(accumulate(map(len, components[1:m]),
                            initial=2 + len(components[0])))
    if _fixed_points(result, m) != cuts:
        raise InvalidCompositionError(
            f"recomposed {result} does not decompose back into {components}"
        )
    return result


def _tau(seq, m, images, comps=None):
    """tau of an in-bounds seq, reading and filling the table images.

    images maps sequences to their tau images and holds at least {(): ()}.
    Each stack entry is a sequence and its cut, None until it is first cut;
    a caller that holds seq's blocks already passes them as comps.
    A popped sequence already in the table is answered from it; one whose
    end blocks both have images is assembled; any other goes back on the
    stack under its missing end blocks.  The image of every component
    computed on the way is added to images, but not the image of seq itself,
    which sits at the bottom of the stack: the caller decides whether the
    table keeps it.  The explicit stack keeps deep inputs off the recursion
    limit.
    """
    stack = [(seq, comps)]
    while stack:
        s, comps = stack.pop()
        image = images.get(s)
        if image is not None:
            continue
        if comps is None:
            comps = _cut(s, _fixed_points(s, m))
        first, last = images.get(comps[0]), images.get(comps[m])
        if first is None or last is None:
            stack.append((s, comps))
            if last is None:
                stack.append((comps[m], None))
            if first is None:
                stack.append((comps[0], None))
            continue
        image = _assemble((last,) + comps[1:m] + (first,), m)
        if stack:
            images[s] = image
    return image


def tau(seq, m):
    """Involution exchanging luck with the multiplicity of 1.

    tau of the empty sequence is empty; otherwise the first and last
    components are swapped, with tau applied inside each.
    """
    seq = tuple(seq)
    _require_canonical(seq, m)
    return _tau(seq, m, {(): ()})


def u_luck(seq, m):
    """Number of positions i with seq[i] = m*i - m + 1."""
    _require_canonical(seq, m)
    return _luck(seq, m)


def u_omega(seq, j):
    """Number of entries equal to j."""
    return seq.count(j)


def f_stat(seq, m):
    """First fixed point of type 1."""
    return first_fixed_point(seq, m, 1)


def g_stat(seq, m):
    """First fixed point of type m."""
    return first_fixed_point(seq, m, m)


def _eta(comps, m):
    """eta of the sequence with first-return blocks comps."""
    out = [1]
    for j, comp in enumerate(comps, start=1):
        out.extend([j] * u_omega(comp, 1))
    suffix = 0  # total length of components right of j
    for j in range(m + 1, 0, -1):
        comp = comps[j - 1]
        offset = m * (1 + suffix)
        for e in comp:
            if e != 1:
                out.append(e + offset)
        suffix += len(comp)
    return tuple(sorted(out))


def eta(seq, m):
    """Rebuild a distribution from component data; a bijection on each
    length that sends the multiplicity of 1 inside component j to the
    multiplicity of j overall.

    Start from (1); add omega_1(component j) copies of j for every j; then,
    walking components right to left, re-insert each non-1 entry e of
    component j as e + m*(1 + total length of the components right of j).
    Only seq is checked; verify's eta sweep bound-checks every image.
    """
    seq = tuple(seq)
    _require_canonical(seq, m)
    if not seq:
        return ()
    return _eta(_cut(seq, _fixed_points(seq, m)), m)


def _eta_inv(seq, m):
    """eta_inv of an in-bounds seq.

    The multiplicity of j in the image fixes how many 1s component j holds
    (component 1 gets one less: the leading 1 is structural).  Remaining
    entries are processed in increasing order -- entries belonging to
    further-right components are provably smaller -- and each is shifted
    down and placed in the largest component index that keeps the component
    within bounds.  The blocks are assembled unchecked (eta is onto); only an
    entry that fits no component raises.
    """
    if not seq:
        return ()
    # in bounds, so seq is nondecreasing and starts with 1
    comps = [[1] * (seq.count(j) - (j == 1)) for j in range(1, m + 2)]
    for e in seq:
        if e <= m + 1:
            continue
        suffix = 0  # total length of components right of j
        for j in range(m + 1, 0, -1):
            comp = comps[j - 1]
            val = e - m * (1 + suffix)
            # comp is in bounds, and inserting val in order keeps it
            # nondecreasing; entries after val move one position up, to a
            # looser ceiling, so only val's own ceiling m*pos+1 can fail.
            pos = bisect_right(comp, val)
            if 0 < val <= m * pos + 1:
                comp.insert(pos, val)
                break
            suffix += len(comp)
        else:
            raise NonMembershipError(f"entry {e} of {seq} fits no component")
    # each component is all 1s or stayed in bounds at every insertion
    return _assemble(tuple(tuple(c) for c in comps), m)


def eta_inv(seq, m):
    """Invert eta by reconstructing the components."""
    seq = tuple(seq)
    _require_canonical(seq, m)
    return _eta_inv(seq, m)
