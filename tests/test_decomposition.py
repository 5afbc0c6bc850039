"""First-return decomposition, tau, eta, and the sequence statistics."""

from functools import partial
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpark import decomposition, kernels, sequences
from catpark.caterpillar import theta, to_lattice_path
from catpark.decomposition import (
    decompose,
    eta,
    eta_inv,
    f_stat,
    first_fixed_point,
    g_stat,
    recompose,
    tau,
    u_luck,
    u_omega,
)
from catpark.errors import InvalidCompositionError, NonMembershipError
from catpark.harness import run_verification
from catpark.sequences import canonical_family, count_u_pk, enumerate_u_pk, is_u_pk

# decompositions printed for m=2, n=3 (bounds 1,3,5)
TABLE_3 = {
    (1, 1, 1): ((1, 1), (), ()),
    (1, 1, 2): ((1, 2), (), ()),
    (1, 1, 3): ((1, 3), (), ()),
    (1, 1, 4): ((1,), (1,), ()),
    (1, 1, 5): ((1,), (), (1,)),
    (1, 2, 2): ((), (1, 1), ()),
    (1, 2, 3): ((), (1, 2), ()),
    (1, 2, 4): ((), (1, 3), ()),
    (1, 2, 5): ((), (1,), (1,)),
    (1, 3, 3): ((), (), (1, 1)),
    (1, 3, 4): ((), (), (1, 2)),
    (1, 3, 5): ((), (), (1, 3)),
}

# decompositions printed for m=3, n=3 (bounds 1,4,7)
TABLE_4 = {
    (1, 1, 1): ((1, 1), (), (), ()),
    (1, 1, 2): ((1, 2), (), (), ()),
    (1, 1, 3): ((1, 3), (), (), ()),
    (1, 1, 4): ((1, 4), (), (), ()),
    (1, 1, 5): ((1,), (1,), (), ()),
    (1, 1, 6): ((1,), (), (1,), ()),
    (1, 1, 7): ((1,), (), (), (1,)),
    (1, 2, 2): ((), (1, 1), (), ()),
    (1, 2, 3): ((), (1, 2), (), ()),
    (1, 2, 4): ((), (1, 3), (), ()),
    (1, 2, 5): ((), (1, 4), (), ()),
    (1, 2, 6): ((), (1,), (1,), ()),
    (1, 2, 7): ((), (1,), (), (1,)),
    (1, 3, 3): ((), (), (1, 1), ()),
    (1, 3, 4): ((), (), (1, 2), ()),
    (1, 3, 5): ((), (), (1, 3), ()),
    (1, 3, 6): ((), (), (1, 4), ()),
    (1, 3, 7): ((), (), (1,), (1,)),
    (1, 4, 4): ((), (), (), (1, 1)),
    (1, 4, 5): ((), (), (), (1, 2)),
    (1, 4, 6): ((), (), (), (1, 3)),
    (1, 4, 7): ((), (), (), (1, 4)),
}

# tau at length 3, m=2, worked by hand through decompose/recompose;
# (1,1,5) has symmetric components ((1), (), (1)) and stays fixed
TAU_N3_M2 = {
    (1, 1, 1): (1, 3, 5),
    (1, 1, 2): (1, 3, 4),
    (1, 1, 3): (1, 3, 3),
    (1, 1, 4): (1, 2, 5),
    (1, 1, 5): (1, 1, 5),
    (1, 2, 2): (1, 2, 2),
    (1, 2, 3): (1, 2, 3),
    (1, 2, 4): (1, 2, 4),
}

ETA_TABLE = {
    (1, 1, 1): (1, 1, 1),
    (1, 1, 2): (1, 1, 4),
    (1, 1, 3): (1, 1, 5),
    (1, 1, 4): (1, 1, 2),
    (1, 1, 5): (1, 1, 3),
    (1, 2, 2): (1, 2, 2),
    (1, 2, 3): (1, 2, 4),
    (1, 2, 4): (1, 2, 5),
    (1, 2, 5): (1, 2, 3),
    (1, 3, 3): (1, 3, 3),
    (1, 3, 4): (1, 3, 4),
    (1, 3, 5): (1, 3, 5),
}


def test_first_fixed_point_worked_example():
    p = (1, 2, 5, 10, 10, 16)
    assert first_fixed_point(p, 3, 1) == 2
    assert first_fixed_point(p, 3, 2) == 4
    assert first_fixed_point(p, 3, 3) == 4


def test_first_fixed_point_more():
    assert first_fixed_point((1, 1, 5), 2, 1) == 3
    assert first_fixed_point((1, 1, 5), 2, 2) == 3
    assert first_fixed_point((1, 1), 2, 1) == 3  # absent -> n+1
    assert first_fixed_point((1, 1), 2, 2) == 3


def test_first_fixed_point_validation():
    with pytest.raises(ValueError):
        first_fixed_point((1, 2, 6), 2, 1)
    with pytest.raises(ValueError):
        first_fixed_point((), 2, 1)
    with pytest.raises(ValueError):
        first_fixed_point((1, 2), 2, 3)


def test_decompose_worked_example():
    d = decompose((1, 2, 5, 10, 10, 16), 3)
    assert d.components == ((), (1, 4), (), (1, 1, 7))
    assert d.fixed_points == (2, 4, 4)


def test_decompose_tables():
    for p, comps in TABLE_3.items():
        assert decompose(p, 2).components == comps
    for p, comps in TABLE_4.items():
        assert decompose(p, 3).components == comps


def test_decompose_rejects_empty_and_non_member():
    with pytest.raises(ValueError):
        decompose((), 2)
    with pytest.raises(ValueError):
        decompose((2, 3), 2)


def test_recompose_examples():
    assert recompose(((), (1, 4), (), (1, 1, 7)), 3) == (1, 2, 5, 10, 10, 16)
    assert recompose(((), (1,), (1,)), 2) == (1, 2, 5)
    assert recompose(((1, 1), (), ()), 2) == (1, 1, 1)


def test_recompose_rejects_bad_components():
    with pytest.raises(InvalidCompositionError):
        recompose(((1, 9), (), ()), 2)  # component out of bounds
    with pytest.raises(InvalidCompositionError):
        recompose(((), ()), 2)  # wrong arity


def test_decompose_recompose_roundtrip():
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(1, 7):
            for p in enumerate_u_pk(n, fam):
                d = decompose(p, m)
                assert recompose(d.components, m) == p
                idx = d.fixed_points
                assert all(a <= b for a, b in zip(idx, idx[1:]))


def test_recomposition_shift_lemmas():
    """Block boundaries pin specific values of the original sequence."""
    for m in (1, 2, 3):
        for n in range(1, 7):
            for p in enumerate_u_pk(n, canonical_family(m)):
                d = decompose(p, m)
                comps, idx = d.components, d.fixed_points
                if comps[0]:
                    assert p[1] == 1
                if comps[m]:
                    i_m = idx[m - 1]
                    assert p[i_m - 1] == m * (i_m - 1) + 1
                for l in range(1, m):
                    if comps[l]:
                        i_l = idx[l - 1]
                        assert p[i_l - 1] == m * (i_l - 2) + l + 1


def test_tau_examples():
    assert tau((1, 1, 4), 2) == (1, 2, 5)
    assert tau((), 2) == ()
    # the full n=3 involution table; fixed by the statistic exchange
    for p, q in TAU_N3_M2.items():
        assert tau(p, 2) == q
        assert tau(q, 2) == p


def test_tau_involution_and_exchange():
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(7):
            for p in enumerate_u_pk(n, fam):
                q = tau(p, m)
                assert tau(q, m) == p
                assert u_luck(p, m) == u_omega(q, 1)
                assert u_omega(p, 1) == u_luck(q, m)


def test_tau_core_on_one_table_matches_tau():
    """One shared table, fed in enumeration order as the harness feeds it,
    gives public tau's image on every sequence."""
    for m in (1, 2, 3):
        images = {(): ()}
        for n in range(7):
            for p in enumerate_u_pk(n, canonical_family(m)):
                q = decomposition._tau(p, m, images)
                assert q == tau(p, m)
                assert p not in images or n == 0  # never stores its argument
                images[p] = q
                assert decomposition._tau(p, m, images) is q


def test_tau_on_a_full_table_matches_a_fresh_table():
    """_tau's one loop gives the same image whether the table holds every
    shorter image (one cut, one assembly) or only {(): ()} (the stack walks
    every component), and a full table comes back untouched."""
    for m in (1, 2, 3):
        full = {(): ()}
        for n in range(7):
            level = {}
            for p in enumerate_u_pk(n, canonical_family(m)):
                q = decomposition._tau(p, m, {(): ()})
                size = len(full)
                assert decomposition._tau(p, m, full) == q
                assert len(full) == size
                level[p] = q
            full.update(level)


def test_out_of_bounds_input_gets_one_message():
    """decompose, theta and to_lattice_path share one canonical-bounds
    guard, so they refuse an out-of-bounds seq with the same message."""
    seq = (1, 2, 6)
    messages = set()
    for call in (lambda: decompose(seq, 2), lambda: theta(seq, 2, 3),
                 lambda: to_lattice_path(seq, 2)):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"(1, 2, 6) is not within the canonical bounds for m=2"}


def test_luck_matches_its_definition():
    """_luck counts the positions i with seq[i] = m*i - m + 1."""
    for m in (1, 2, 3, 4):
        for n in range(7):
            for p in enumerate_u_pk(n, canonical_family(m)):
                assert decomposition._luck(p, m) == sum(
                    1 for i in range(1, n + 1) if p[i - 1] == m * i - m + 1)


@pytest.mark.parametrize("m, max_n", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_return_fold_against_cut_luck_and_ones(m, max_n):
    """The first-return fold on every p, n <= max_n, against the
    definitions: enumerate_u_pk's rows and order, _cut at _fixed_points,
    _luck and the count of 1s."""
    fam = canonical_family(m)
    step = partial(decomposition._return_step, m)
    for n in range(max_n + 1):
        folded = list(kernels.fold_bounded(fam.bounds(n), (), step,
                                           decomposition._RETURN_START))
        assert [p for p, _ in folded] == list(enumerate_u_pk(n, fam))
        for p, state in folded:
            assert (decomposition._return_blocks(state, m)
                    == decomposition._cut(p, decomposition._fixed_points(p, m)))
            assert state[1:3] == (decomposition._luck(p, m), p.count(1))


def test_tau_deep_input_stays_off_the_call_stack():
    # m=1 all-ones nests first components 1500 deep, past the default
    # recursion limit; tau swaps luck 1 and omega_1 = n
    n = 1500
    assert tau((1,) * n, 1) == tuple(range(1, n + 1))


def test_tau_equidistribution():
    """luck and the ones-count have identical histograms at each length."""
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(6):
            luck_hist = {}
            ones_hist = {}
            for p in enumerate_u_pk(n, fam):
                lk = u_luck(p, m)
                on = u_omega(p, 1)
                luck_hist[lk] = luck_hist.get(lk, 0) + 1
                ones_hist[on] = ones_hist.get(on, 0) + 1
            assert luck_hist == ones_hist


def test_statistics_examples():
    assert u_luck((1, 3, 5), 2) == 3
    assert u_omega((1, 1, 5), 1) == 2
    assert u_luck((1, 2, 4), 2) == 1
    assert f_stat((1, 3, 5), 2) == 2 and g_stat((1, 3, 5), 2) == 2
    assert f_stat((1, 1), 2) == 3 and g_stat((1, 1), 2) == 3
    assert f_stat((1, 2, 5, 10, 10, 16), 3) == 2
    assert g_stat((1, 2, 5, 10, 10, 16), 3) == 4


def test_eta_table():
    for p, image in ETA_TABLE.items():
        assert eta(p, 2) == image
        assert eta_inv(image, 2) == p


def test_eta_bijection_and_frequency_relations():
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(1, 6):
            images = set()
            for p in enumerate_u_pk(n, fam):
                image = eta(p, m)
                assert eta_inv(image, m) == p
                images.add(image)
                comps = decompose(p, m).components
                assert u_omega(image, 1) == 1 + u_omega(comps[0], 1)
                for j in range(2, m + 2):
                    assert u_omega(image, j) == u_omega(comps[j - 1], 1)
            assert len(images) == count_u_pk(n, fam)


def test_eta_inv_rejects_out_of_bounds():
    # eta is onto each length, so the only rejectable inputs break the bounds
    with pytest.raises(ValueError):
        eta_inv((2, 2), 2)
    with pytest.raises(ValueError):
        eta_inv((1, 2, 6), 2)


def test_eta_inv_is_right_inverse():
    for q in enumerate_u_pk(4, canonical_family(2)):
        assert eta(eta_inv(q, 2), 2) == q


def _old_eta_inv(seq, m):
    """Oracle eta_inv: try each candidate by sorting a copy of its component
    and re-running the full bounds check on it."""
    if not seq:
        return ()
    fam = canonical_family(m)
    counts = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    comps = [[1] * (counts[1] - 1)]
    for j in range(2, m + 2):
        comps.append([1] * counts.get(j, 0))
    for e in sorted(v for v in seq if v > m + 1):
        placed = False
        suffix = 0
        candidates = []
        for j in range(m + 1, 0, -1):
            candidates.append((j, e - m * (1 + suffix)))
            suffix += len(comps[j - 1])
        for j, val in candidates:
            if val <= 0:
                continue
            trial = sorted(comps[j - 1] + [val])
            if is_u_pk(trial, fam):
                comps[j - 1] = trial
                placed = True
                break
        if not placed:
            raise NonMembershipError(f"entry {e} of {seq} fits no component")
    try:
        return recompose(tuple(tuple(c) for c in comps), m)
    except InvalidCompositionError as exc:
        raise NonMembershipError(str(exc)) from exc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonMembershipError as exc:
        return ("raised", str(exc))


def test_eta_inv_core_matches_full_recheck_oracle():
    """Checking only the inserted entry's ceiling decides placement exactly
    as sorting and re-checking the whole component did, and the unchecked
    assembly gives what the checking public recompose gives: the oracle
    raises on no in-bounds sequence, so neither does the core."""
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(7):
            for seq in enumerate_u_pk(n, fam):
                assert (_outcome(decomposition._eta_inv, seq, m)
                        == _outcome(_old_eta_inv, seq, m)), (m, seq)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_tau_involution_sampled(m, n, data):
    fam = canonical_family(m)
    total = count_u_pk(n, fam)
    idx = data.draw(st.integers(0, total - 1))
    for i, p in enumerate(enumerate_u_pk(n, fam)):
        if i == idx:
            q = tau(p, m)
            assert tau(q, m) == p
            assert u_luck(p, m) == u_omega(q, 1)
            break


def _spy_membership(monkeypatch):
    """Record every sequence decomposition checks, in its core or through
    the input guard in sequences; forbid decompose calls."""
    checked = []

    def spy(seq, family):
        checked.append(tuple(seq))
        return is_u_pk(seq, family)

    def forbidden(seq, m):
        raise AssertionError(f"decompose({seq}, {m}) called inside a map")

    monkeypatch.setattr(decomposition, "is_u_pk", spy)
    monkeypatch.setattr(sequences, "is_u_pk", spy)
    monkeypatch.setattr(decomposition, "decompose", forbidden)
    return checked


def test_tau_and_eta_validate_once(monkeypatch):
    """The input is the only sequence tau and eta check: the core assembles
    their images unchecked."""
    checked = _spy_membership(monkeypatch)
    for m in (1, 2, 3):
        for n in range(1, 6):
            for p in enumerate_u_pk(n, canonical_family(m)):
                checked.clear()
                tau(p, m)
                assert checked == [p]
                checked.clear()
                eta(p, m)
                assert checked == [p]


def _forced_cuts(blocks):
    """The cuts the block lengths force: 2 plus the running total."""
    return tuple(accumulate(map(len, blocks[:-1]), initial=2))[1:]


def test_assemble_builds_what_cut_takes_apart():
    """The invariant the unchecked core relies on, over every in-bounds block
    tuple of total length <= 6: the assembled sequence is in bounds, its
    fixed points are the cuts the block lengths force, and cutting there
    gives the blocks back."""
    for m in (1, 2, 3):
        fam = canonical_family(m)
        by_length = [list(enumerate_u_pk(n, fam)) for n in range(7)]
        tuples = [()]
        for _ in range(m + 1):
            tuples = [t + (block,) for t in tuples
                      for n in range(7 - sum(map(len, t)))
                      for block in by_length[n]]
        for blocks in tuples:
            result = decomposition._assemble(blocks, m)
            cuts = _forced_cuts(blocks)
            assert is_u_pk(result, fam), (m, blocks)
            assert decomposition._fixed_points(result, m) == cuts, (m, blocks)
            assert decomposition._cut(result, cuts) == blocks, (m, blocks)
        # block tuples of total length n are the sequences of length n + 1
        assert len(tuples) == sum(count_u_pk(n, fam) for n in range(1, 8))


def _old_decompose(seq, m):
    """Oracle decomposition: a separate scan of each type's window, then cut."""
    n = len(seq)
    found = [n + 1] * m
    for k in range(2, n + 1):
        v = seq[k - 1]
        if v > m * (k - 1) + 1:
            continue
        for l in range(1, min(v - m * (k - 2) - 1, m) + 1):
            if found[l - 1] == n + 1:
                found[l - 1] = k
    return _blocks(seq, tuple(found))


def _blocks(seq, cuts):
    edges = (2,) + cuts + (len(seq) + 1,)
    return tuple(
        tuple(v - seq[a - 1] + 1 for v in seq[a - 1:b - 1]) if a < b else ()
        for a, b in zip(edges, edges[1:])
    )


def test_cut_point_check_matches_decompose_and_compare(monkeypatch):
    """recompose's cut-point check accepts exactly what decompose-and-compare
    accepts.

    Every enumerated p, cut at every admissible cut vector, gives blocks
    that p translates block by block, and whose lengths force those cuts.
    With an assembler that returns p, recompose's fixed-point comparison
    must agree with the old check: p decomposes back into the blocks.
    """
    accepted = rejected = 0
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(1, 6):
            for p in enumerate_u_pk(n, fam):
                for cuts in combinations_with_replacement(range(2, n + 2), m):
                    comps = _blocks(p, cuts)
                    assert _forced_cuts(comps) == cuts
                    if not all(is_u_pk(c, fam) for c in comps):
                        continue  # recompose rejects these up front
                    monkeypatch.setattr(decomposition, "_assemble",
                                        lambda c, m, r=p: r)
                    old = is_u_pk(p, fam) and _old_decompose(p, m) == comps
                    try:
                        new = recompose(comps, m) == p
                    except InvalidCompositionError:
                        new = False
                    assert new == old, (m, p, cuts)
                    accepted += new
                    rejected += not new
    assert accepted and rejected


def test_recompose_check_catches_a_wrong_shift(monkeypatch):
    """An off-by-one _assemble fails public recompose's output check, and
    verify's per-image bound and roundtrip checks fail every default
    involution and eta entry."""
    real = decomposition._assemble

    def off_by_one(components, m):
        result = real(components, m)
        return result[:-1] + (result[-1] + 1,)

    assert recompose(((), (1,), (1,)), 2) == (1, 2, 5)
    monkeypatch.setattr(decomposition, "_assemble", off_by_one)
    with pytest.raises(InvalidCompositionError):
        recompose(((), (1,), (1,)), 2)  # (1, 2, 6) is out of bounds
    with pytest.raises(InvalidCompositionError):
        recompose(((1,), (), ()), 2)  # (1, 2) has its type-1 point at 2
    for scope in ("involution", "eta"):
        entries = run_verification(scope).entries
        assert len(entries) == 3 and all(e.status == "fail" for e in entries)


def test_public_entry_points_reject_out_of_bounds():
    for fn in (tau, eta, eta_inv, u_luck, decompose, f_stat, g_stat):
        with pytest.raises(ValueError):
            fn((1, 2, 6), 2)
        with pytest.raises(ValueError):
            fn((1, 0), 2)
