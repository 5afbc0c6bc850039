"""Caterpillar trees, the parking process, theta, and the path codec."""

from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpark.caterpillar import (
    _park,
    _park_cars,
    _theta_inv,
    build_caterpillar,
    enumerate_caterpillar_pk,
    from_lattice_path,
    is_tree_pk,
    non_backbone_labels,
    simulate,
    theta,
    theta_inv,
    to_lattice_path,
)
from catpark.decomposition import u_luck, u_omega
from catpark.errors import NonMembershipError
from catpark.harness import PARKING_SMALL
from catpark.sequences import canonical_family, count_u_pk, enumerate_u_pk, fuss_catalan

TABLE_2 = [
    ((1, 1, 1), (1, 1, 1, 2, 4)),
    ((1, 1, 2), (1, 1, 2, 2, 4)),
    ((1, 1, 3), (1, 1, 2, 3, 4)),
    ((1, 1, 4), (1, 1, 2, 4, 4)),
    ((1, 1, 5), (1, 1, 2, 4, 5)),
    ((1, 2, 2), (1, 2, 2, 2, 4)),
    ((1, 2, 3), (1, 2, 2, 3, 4)),
    ((1, 2, 4), (1, 2, 2, 4, 4)),
    ((1, 2, 5), (1, 2, 2, 4, 5)),
    ((1, 3, 3), (1, 2, 3, 3, 4)),
    ((1, 3, 4), (1, 2, 3, 4, 4)),
    ((1, 3, 5), (1, 2, 3, 4, 5)),
]


def all_candidates(tree):
    size = tree.node_count
    return combinations_with_replacement(range(1, size + 1), size)


def test_build_2_3():
    tree = build_caterpillar(2, 3)
    assert tree.node_count == 5
    assert tree.backbone_labels == (1, 3, 5)
    assert tree.parent[2] == 3 and tree.parent[4] == 5
    assert tree.parent[1] == 3 and tree.parent[3] == 5 and tree.parent[5] == 0


def test_build_3_3():
    tree = build_caterpillar(3, 3)
    assert tree.node_count == 7
    assert tree.backbone_labels == (1, 4, 7)
    assert tree.parent[2] == tree.parent[3] == 4
    assert tree.parent[5] == tree.parent[6] == 7


def test_build_path():
    tree = build_caterpillar(1, 4)
    assert tree.node_count == 4
    assert tree.backbone_labels == (1, 2, 3, 4)
    assert [tree.parent[v] for v in (1, 2, 3)] == [2, 3, 4]


def test_build_node_count_invariant():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 5):
            tree = build_caterpillar(m, n)
            assert tree.node_count == m * n - m + 1
            # every backbone vertex past the second feeds m-1 leaves
            leaves = non_backbone_labels(m, n)
            assert len(leaves) == tree.node_count - n


def test_build_matches_the_two_case_definition():
    """A backbone node points to the next backbone node, label + m, and a
    leaf to the least backbone label above it; the sink has no parent."""
    for m in range(1, 6):
        for n in range(1, 7):
            tree = build_caterpillar(m, n)
            count = m * n - m + 1
            backbone = [m * (j - 1) + 1 for j in range(1, n + 1)]
            parent = [0] * (count + 1)
            for label in range(1, count):
                if label in backbone:
                    parent[label] = label + m
                else:
                    parent[label] = min(b for b in backbone if b > label)
            assert tree.backbone_labels == tuple(backbone)
            assert tree.parent == tuple(parent), (m, n)
            assert non_backbone_labels(m, n) == tuple(
                label for label in range(1, count + 1) if label not in backbone)


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_caterpillar(0, 3)
    with pytest.raises(ValueError):
        build_caterpillar(2, 0)


def test_is_tree_pk_examples():
    tree = build_caterpillar(2, 3)
    assert is_tree_pk(tree, (1, 1, 2, 3, 4))
    assert not is_tree_pk(tree, (1, 1, 1, 2, 3))  # leaf 4 unserved
    path = build_caterpillar(1, 3)
    assert is_tree_pk(path, (1, 1, 3))
    assert not is_tree_pk(path, (2, 2, 3))


def test_is_tree_pk_length_mismatch():
    tree = build_caterpillar(2, 3)
    with pytest.raises(ValueError):
        is_tree_pk(tree, (1, 1, 2))
    with pytest.raises(ValueError):
        is_tree_pk(tree, (1, 1, 2, 3, 9))


def test_simulate_hand_example():
    tree = build_caterpillar(2, 3)
    out = simulate(tree, (1, 1, 2, 3, 4))
    # car 1 parks at 1 (lucky); car 2 bumps to 3; car 3 takes leaf 2;
    # car 4 bumps to 5; car 5 takes leaf 4
    assert out.assignment == (1, 3, 2, 5, 4)
    assert out.lucky_set == {1}
    assert out.all_parked


def test_simulate_identity_and_overflow():
    tree = build_caterpillar(2, 3)
    assert simulate(tree, (1, 2, 3, 4, 5)).lucky_set == {1, 3, 5}
    out = simulate(tree, (5, 5, 5, 5, 5))
    assert out.assignment == (5, None, None, None, None)
    assert not out.all_parked


def test_simulate_long_runs_of_one_preference():
    # on the path car k rolls to node k; on the m = 2 tree the displaced
    # cars take the backbone nodes 3, 5, ..., 2001 and the rest fall out
    out = simulate(build_caterpillar(1, 2000), (1,) * 2000)
    assert out.assignment == tuple(range(1, 2001))
    assert out.lucky_set == {1}
    out = simulate(build_caterpillar(2, 1001), (1,) * 2001)
    assert out.assignment == (1, *range(3, 2002, 2), *(None,) * 1000)
    assert out.lucky_set == {1}


def test_luck_and_omega():
    tree = build_caterpillar(2, 3)
    assert len(simulate(tree, (1, 1, 2, 3, 4)).lucky_set) == 1
    assert u_omega((1, 1, 2, 3, 4), 1) == 2
    assert u_omega((1, 1, 2, 3, 4), 2) == 1
    assert len(simulate(tree, (1, 2, 3, 4, 5)).lucky_set) == 3
    assert len(simulate(tree, (1, 2, 2, 4, 5)).lucky_set) == 2
    assert not is_tree_pk(tree, (1, 1, 1, 2, 3))  # not a parking distribution


def test_theta_table2():
    for pre, image in TABLE_2:
        assert theta(pre, 2, 3) == image
        assert theta_inv(image, 2, 3) == pre


def test_theta_m1_identity():
    assert theta((1, 2, 2), 1, 3) == (1, 2, 2)
    assert theta_inv((1, 2, 2), 1, 3) == (1, 2, 2)


def test_theta_rejects_non_member():
    with pytest.raises(ValueError):
        theta((1, 2, 6), 2, 3)
    with pytest.raises(ValueError):
        theta((1, 1), 2, 3)  # wrong length
    # no tree has backbone length 0, so neither the map nor the listing does
    with pytest.raises(ValueError, match="n must be >= 1"):
        theta((), 2, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_caterpillar_pk(2, 0)  # raised at the call, before any row


def test_theta_inv_missing_leaf_label():
    # (1,1,1,3,5) is not a tree distribution (leaves unserved): ValueError
    with pytest.raises(ValueError):
        theta_inv((1, 1, 1, 3, 5), 2, 3)


def reference_park(tree, seq):
    """The parking process spelled out from the definition: each car walks
    parent links from its preference to the first free node; it is lucky
    when that node is its preference and a backbone node (label 1 mod m)."""
    taken = set()
    assignment = []
    lucky = set()
    for car, pref in enumerate(seq, start=1):
        node = pref
        while node != 0 and node in taken:
            node = tree.parent[node]
        assignment.append(node or None)
        if node:
            taken.add(node)
            if node == pref and (pref - 1) % tree.m == 0:
                lucky.add(car)
    return tuple(assignment), frozenset(lucky)


def counter_theta_inv(seq, leaves):
    """Removal of one copy of each leaf label through a multiset count."""
    counts = Counter(seq)
    for label in leaves:
        counts[label] -= 1
    return tuple(label for label in sorted(counts) for _ in range(counts[label]))


def remove_theta_inv(seq, leaves):
    """Removal of one copy of each leaf label from sorted(seq) by list.remove."""
    out = sorted(seq)
    for label in leaves:
        out.remove(label)
    return tuple(out)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_theta_inv_merge_matches_sort_and_remove_on_every_image(m):
    for n in range(1, 7):
        leaves = non_backbone_labels(m, n)
        for image in enumerate_caterpillar_pk(m, n):
            assert _theta_inv(image, leaves) == remove_theta_inv(image, leaves)


@pytest.mark.parametrize("m,n", PARKING_SMALL)
def test_park_core_matches_definition_on_every_candidate(m, n):
    tree = build_caterpillar(m, n)
    for cand in all_candidates(tree):
        out = _park(tree, cand)
        assert out == simulate(tree, cand)
        assert (out.assignment, out.lucky_set) == reference_park(tree, cand)


@pytest.mark.parametrize("m,n", PARKING_SMALL)
def test_park_cars_matches_definition_at_every_split(m, n):
    """The one parking step: parking seq[:k] and then seq[k:] is the whole
    run, whose taken nodes, luck and all-parked flag are reference_park's,
    which climbs parent links."""
    tree = build_caterpillar(m, n)
    start = (0, 0, True)
    for cand in all_candidates(tree):
        whole = _park_cars(tree, start, cand)
        assignment, lucky = reference_park(tree, cand)
        assert whole == (sum(1 << node for node in assignment if node),
                         len(lucky), None not in assignment), cand
        for k in range(len(cand) + 1):
            head = _park_cars(tree, start, cand[:k])
            assert _park_cars(tree, head, cand[k:]) == whole, (cand, k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PARKING_SMALL), st.data())
def test_park_core_matches_definition_on_shuffled_orders(shape, data):
    tree = build_caterpillar(*shape)
    size = tree.node_count
    multiset = data.draw(st.lists(st.integers(1, size), min_size=size,
                                  max_size=size))
    seq = tuple(data.draw(st.permutations(multiset)))
    out = _park(tree, seq)
    assert out == simulate(tree, seq)
    assert (out.assignment, out.lucky_set) == reference_park(tree, seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_theta_inv_core_matches_counter_definition(m, n, data):
    dists = list(enumerate_caterpillar_pk(m, n))
    seq = tuple(data.draw(st.permutations(data.draw(st.sampled_from(dists)))))
    leaves = non_backbone_labels(m, n)
    # the core takes its input sorted; the public map takes any order
    core = _theta_inv(tuple(sorted(seq)), leaves)
    assert core == counter_theta_inv(seq, leaves)
    assert core == theta_inv(seq, m, n)
    assert theta_inv(seq, m, n) == remove_theta_inv(seq, leaves)


def test_theta_bijection_and_transport():
    for m in (1, 2, 3):
        fam = canonical_family(m)
        for n in range(1, 6):
            tree = build_caterpillar(m, n)
            images = set()
            for p in enumerate_u_pk(n, fam):
                image = theta(p, m, n)
                assert is_tree_pk(tree, image)
                assert theta_inv(image, m, n) == p
                images.add(image)
                out = simulate(tree, image)
                assert len(out.lucky_set) == u_luck(p, m)
                assert u_omega(image, 1) == u_omega(p, 1)
                for j in range(2, m + 1):
                    bump = 1 if j <= tree.node_count else 0
                    assert u_omega(image, j) == u_omega(p, j) + bump
            assert len(images) == count_u_pk(n, fam)


def test_enumerate_caterpillar_counts():
    assert len(list(enumerate_caterpillar_pk(2, 3))) == 12
    assert list(enumerate_caterpillar_pk(1, 2)) == [(1, 1), (1, 2)]
    for m in (1, 2, 3, 4):
        for n in range(1, 6):
            got = sum(1 for _ in enumerate_caterpillar_pk(m, n))
            assert got == fuss_catalan(m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumerate_caterpillar_is_theta_image(m):
    """theta's definition, sorted(p + leaves), is the oracle for the walker's
    sort-free merge, in tuples and in text rows, bare or framed."""
    for n in range(1, 7):
        images = [theta(p, m, n) for p in enumerate_u_pk(n, canonical_family(m))]
        assert list(enumerate_caterpillar_pk(m, n)) == images
        for text in (("", ",", ""), ("", ",", "\n"),
                     (",\n    [\n      ", ",\n      ", "\n    ]")):
            head, sep, tail = text
            assert ("".join(enumerate_caterpillar_pk(m, n, text=text))
                    == "".join(head + sep.join(map(str, image)) + tail
                               for image in images))


def test_enumerate_caterpillar_matches_filter():
    # independent route: filter raw candidates through the subtree condition
    tree = build_caterpillar(3, 2)
    expected = [seq for seq in all_candidates(tree) if is_tree_pk(tree, seq)]
    assert list(enumerate_caterpillar_pk(3, 2)) == expected
    assert len(expected) == 4


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_condition_equivalent_to_parking_success(m, n):
    tree = build_caterpillar(m, n)
    for cand in all_candidates(tree):
        assert is_tree_pk(tree, cand) == simulate(tree, cand).all_parked


@pytest.mark.parametrize("m,n", [(2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])
def test_enumerated_sets_park_fully(m, n):
    tree = build_caterpillar(m, n)
    for seq in enumerate_caterpillar_pk(m, n):
        assert is_tree_pk(tree, seq)
        assert simulate(tree, seq).all_parked


def test_lattice_path_examples():
    assert to_lattice_path((1, 1, 3), 2) == "NNEENEE"
    assert from_lattice_path("NNEENEE", 2) == (1, 1, 3)
    assert to_lattice_path((1, 2, 3), 1) == "NENEN"
    assert to_lattice_path((), 2) == ""
    assert from_lattice_path("", 2) == ()


def test_lattice_path_endpoint_and_constraint():
    for m in (1, 2, 3):
        for n in range(5):
            for p in enumerate_u_pk(n, canonical_family(m)):
                word = to_lattice_path(p, m)
                assert word.count("N") == n
                assert word.count("E") == (m * (n - 1) if n else 0)
                x = y = 0
                for ch in word:
                    if ch == "N":
                        assert x <= m * y
                        y += 1
                    else:
                        x += 1
                assert from_lattice_path(word, m) == p


def test_lattice_path_rejections():
    with pytest.raises(NonMembershipError):
        from_lattice_path("NXE", 2)
    with pytest.raises(NonMembershipError):
        from_lattice_path("ENNEE", 2)  # E before any N breaks x <= m*y
    with pytest.raises(NonMembershipError):
        from_lattice_path("NNE", 2)  # wrong E total for n = 2
    with pytest.raises(ValueError):
        to_lattice_path((1, 2, 6), 2)


def test_shared_tree_is_safe_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    tree = build_caterpillar(2, 4)
    seqs = list(enumerate_caterpillar_pk(2, 4))
    expected = [simulate(tree, s).lucky_set for s in seqs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda s: simulate(tree, s).lucky_set, seqs * 8))
    assert got == expected * 8


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.data())
def test_lattice_roundtrip_sampled(m, n, data):
    fam = canonical_family(m)
    total = count_u_pk(n, fam)
    idx = data.draw(st.integers(0, total - 1))
    for i, p in enumerate(enumerate_u_pk(n, fam)):
        if i == idx:
            assert from_lattice_path(to_lattice_path(p, m), m) == p
            break
