from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from kzbar.trees import (
    ContractionWitness,
    Tree,
    TreeError,
    assemble,
    canonical_form,
    child_index,
    edge_contract,
    encode,
    enumerate_trees,
    find_intertwiner,
    graft,
    is_intertwiner,
    leaf_contract,
    permute_successors,
    root_blocks,
    successors,
    validate,
)

# ---------------------------------------------------------------- oracles

def brute_force_trees(n):
    """Independent oracle: try every successor map and every leaf set."""
    out = []
    for svals in product(range(1, n + 1), repeat=n - 1):
        for bits in product([0, 1], repeat=n):
            L = frozenset(i + 1 for i in range(n) if bits[i])
            try:
                out.append(validate(n, svals, L))
            except TreeError:
                pass
    return out


def all_intertwiners(t1, t2):
    """Exhaustive permutation search; only usable for small n."""
    return [
        sig
        for sig in permutations(range(1, t1.n + 1))
        if is_intertwiner(t1, t2, tuple(sig))
    ]


LEAF = Tree(1, (), frozenset({1}))
STUMP = Tree(1, (), frozenset())  # childless non-leaf: 0-ary label slot
BUSH3 = Tree(3, (3, 3), frozenset({1, 2}))
CHAIN3 = Tree(3, (2, 3), frozenset({1}))


# ---------------------------------------------------------------- validate

def test_validate_examples():
    assert validate(1, (), {1}) == LEAF
    assert validate(2, (2,), {1}) == Tree(2, (2,), frozenset({1}))
    with pytest.raises(TreeError) as e:
        validate(2, (1,), set())
    assert any("condition (1)" in v for v in e.value.violations)


def test_validate_names_all_violations():
    # s(1)=1 breaks (1); leaf 5 out of range; n=2 in L breaks root rule
    with pytest.raises(TreeError) as e:
        validate(2, (1,), {2, 5})
    msgs = "\n".join(e.value.violations)
    assert "condition (1)" in msgs
    assert "outside" in msgs
    assert "root-leaf" in msgs


def test_validate_rejects_leaf_parent():
    with pytest.raises(TreeError) as e:
        validate(3, (2, 3), {1, 2})
    assert any("codomain" in v for v in e.value.violations)


def test_nesting_condition():
    # s(1)=3, s(2)=4 crosses: 1 <= 2 < 3 but s(2)=4 > 3
    with pytest.raises(TreeError) as e:
        validate(4, (3, 4, 4), {1, 2})
    assert any("condition (2)" in v for v in e.value.violations)


# ---------------------------------------------------------------- counts

def test_counts_against_oracle():
    expected = {1: 2, 2: 2, 3: 6, 4: 22, 5: 90}
    for n, count in expected.items():
        oracle = brute_force_trees(n)
        assert len(oracle) == count
        assert sorted(map(str, enumerate_trees(n))) == sorted(map(str, oracle))


def test_count_n6_against_oracle():
    assert len(brute_force_trees(6)) == 394
    assert len(enumerate_trees(6)) == 394


def test_class_counts():
    assert len(enumerate_trees(3, up_to_equiv=True)) == 5
    # classes partition the full set
    for n in range(1, 6):
        allt = enumerate_trees(n)
        classes = {canonical_form(t)[0] for t in allt}
        assert classes == set(enumerate_trees(n, up_to_equiv=True))


def test_enumeration_cap():
    with pytest.raises(TreeError):
        enumerate_trees(3, cap=2)


# Grown trees against tree_oracle's search-then-filter enumeration, in
# all four modes: planar or canonical, unsorted or sorted.
GROWN_CASES = (
    [(n, eq, None) for n in range(1, 9) for eq in (False, True)]
    + [(n, True, ("a", "m")) for n in range(1, 7)]
    + [(n, False, ("a", "m")) for n in range(1, 6)]
    + [(n, eq, ("a", "b", "c")) for n in range(1, 5) for eq in (False, True)])


@pytest.mark.parametrize("n,up_to_equiv,sorts", GROWN_CASES)
def test_grown_trees_match_the_filtered_search(n, up_to_equiv, sorts):
    got = enumerate_trees(n, up_to_equiv, sorts)
    want = tree_oracle.enumerate_trees(n, up_to_equiv, sorts)
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == set(want)


def test_canonical_enumeration_never_calls_canonical_form(monkeypatch):
    import kzbar.trees

    calls = []
    kzbar.trees._grown.cache_clear()
    monkeypatch.setattr(kzbar.trees, "canonical_form",
                        lambda t: calls.append(t) or canonical_form(t))
    grown = [t for sorts in (None, ("a", "m"), ("a", "b", "c"))
             for n in range(1, 6) for t in enumerate_trees(n, True, sorts)]
    assert calls == []
    monkeypatch.undo()
    assert all(canonical_form(t) == (t, tuple(range(1, t.n + 1))) for t in grown)


# ---------------------------------------------------------------- successors

def test_successors_of_bush():
    assert successors(BUSH3) == [LEAF, LEAF]


def test_successors_of_chain():
    assert successors(CHAIN3) == [Tree(2, (2,), frozenset({1}))]


def test_successors_of_stump():
    assert successors(STUMP) == []


def test_successors_of_leaf_errors():
    with pytest.raises(TreeError):
        successors(LEAF)


def test_assemble_roundtrip():
    for n in range(2, 6):
        for t in enumerate_trees(n):
            assert assemble(successors(t)) == t


# ---------------------------------------------------------------- permute

def test_permute_identity():
    t2, sig = permute_successors(BUSH3, (0, 1))
    assert t2 == BUSH3 and sig == (1, 2, 3)


def test_permute_mixed_bush():
    t = Tree(3, (3, 3), frozenset({1}))
    t2, sig = permute_successors(t, (1, 0))
    assert t2 == Tree(3, (3, 3), frozenset({2}))
    assert is_intertwiner(t, t2, sig)


def test_permute_is_intertwiner_everywhere():
    for n in range(2, 6):
        for t in enumerate_trees(n):
            m = len(successors(t))
            for perm in permutations(range(m)):
                t2, sig = permute_successors(t, perm)
                assert is_intertwiner(t, t2, sig)


# ---------------------------------------------------------------- intertwiners

def test_intertwiner_identity():
    assert find_intertwiner(CHAIN3, CHAIN3) == (1, 2, 3)


def test_intertwiner_bush_swap():
    t1 = Tree(3, (3, 3), frozenset({1}))
    t2 = Tree(3, (3, 3), frozenset({2}))
    sig = find_intertwiner(t1, t2)
    assert sig == (2, 1, 3)


def test_intertwiner_chain_vs_bush():
    assert find_intertwiner(CHAIN3, BUSH3) is None
    assert all_intertwiners(CHAIN3, BUSH3) == []


def test_find_matches_exhaustive_small():
    for n in range(1, 5):
        ts = enumerate_trees(n)
        for t1 in ts:
            for t2 in ts:
                found = find_intertwiner(t1, t2)
                brute = all_intertwiners(t1, t2)
                if found is None:
                    assert brute == []
                else:
                    assert is_intertwiner(t1, t2, found)
                    assert tuple(found) in set(brute)


# ---------------------------------------------------------------- canonical

def test_canonical_example_leaf_first():
    t = Tree(3, (3, 3), frozenset({2}))
    c, sig = canonical_form(t)
    assert c == Tree(3, (3, 3), frozenset({1}))
    assert sig == (2, 1, 3)


def test_canonical_idempotent():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            c, sig = canonical_form(t)
            assert is_intertwiner(t, c, sig)
            c2, sig2 = canonical_form(c)
            assert c2 == c
            assert sig2 == tuple(range(1, c.n + 1))


def test_canonical_iff_intertwiner():
    for n in range(1, 6):
        ts = enumerate_trees(n)
        for t1 in ts:
            for t2 in ts:
                same = canonical_form(t1)[0] == canonical_form(t2)[0]
                assert same == (find_intertwiner(t1, t2) is not None)


# ---------------------------------------------------------------- contractions

def test_edge_contract_chain():
    w = edge_contract(CHAIN3, 2)
    assert w.result == Tree(2, (2,), frozenset({1}))
    assert w.tau == (1, 3)
    assert w.rho == (1, 2, 2)


def test_edge_contract_stump_child():
    w = edge_contract(Tree(2, (2,), frozenset()), 1)
    assert w.result == STUMP
    # the surviving vertex is the old root
    assert w.tau == (2,)
    assert w.rho == (1, 1)


def test_edge_contract_leaf_errors():
    with pytest.raises(TreeError):
        edge_contract(BUSH3, 1)
    with pytest.raises(TreeError):
        edge_contract(BUSH3, 3)


def test_edge_contract_bookkeeping():
    for n in range(2, 6):
        for t in enumerate_trees(n):
            for j in range(1, n):
                if j in t.L:
                    continue
                w = edge_contract(t, j)
                # rho o tau = id
                for k in range(1, n):
                    assert w.rho[w.tau[k - 1] - 1] == k
                # merged valence: v(s(j)) - 1 + v(j)
                merged = w.rho[t.s[j - 1] - 1]
                assert w.result.valence(merged) == t.valence(t.s[j - 1]) - 1 + t.valence(j)


def test_leaf_contract_bush():
    w = leaf_contract(BUSH3, 1, 3)
    assert w.result == LEAF
    assert w.tau == (3,)
    assert w.rho == (1, 1, 1)


def test_leaf_contract_single_edge():
    w = leaf_contract(Tree(2, (2,), frozenset({1})), 1, 2)
    assert w.result == LEAF


def test_leaf_contract_zero_ary():
    # i = j: a childless non-leaf collapses to a leaf in place
    w = leaf_contract(Tree(2, (2,), frozenset()), 1, 1)
    assert w.result == Tree(2, (2,), frozenset({1}))


def test_leaf_contract_bad_corona():
    with pytest.raises(TreeError) as e:
        leaf_contract(CHAIN3, 1, 3)
    assert any("not all leaves" in v or "children of" in v for v in e.value.violations)


def test_leaf_contract_rho_collapses():
    for n in range(2, 6):
        for t in enumerate_trees(n):
            for j in range(1, n + 1):
                if j in t.L:
                    continue
                kids = t.children(j)
                if kids and not all(k in t.L for k in kids):
                    continue
                i = kids[0] if kids else j
                if kids != list(range(i, j)):
                    continue
                w = leaf_contract(t, i, j)
                assert all(w.rho[k - 1] == i for k in range(i, j + 1))
                for k in range(1, w.result.n + 1):
                    assert w.rho[w.tau[k - 1] - 1] == k


# ---------------------------------------------------------------- graft

def test_graft_leaf():
    assert graft(LEAF) == Tree(2, (2,), frozenset({1}))


def test_graft_successors_roundtrip():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            g = graft(t)
            assert g.L == t.L
            assert successors(g) == [t]


# ---------------------------------------------------------------- lemma l4

def _contractible_edges(t):
    return [j for j in range(1, t.n) if j not in t.L]


def test_intertwiners_commute_with_edge_contraction():
    # n <= 5: for every intertwiner sigma and contractible j, the induced
    # map rho' o sigma o tau is an intertwiner of the contractions
    for n in range(2, 6):
        classes = {}
        for t in enumerate_trees(n):
            classes.setdefault(canonical_form(t)[0], []).append(t)
        for cls in classes.values():
            for t1 in cls:
                for t2 in cls:
                    for sig in all_intertwiners(t1, t2):
                        for j in _contractible_edges(t1):
                            w1 = edge_contract(t1, j)
                            w2 = edge_contract(t2, sig[j - 1])
                            induced = tuple(
                                w2.rho[sig[w1.tau[k - 1] - 1] - 1]
                                for k in range(1, n)
                            )
                            assert is_intertwiner(w1.result, w2.result, induced)


def test_intertwiners_commute_with_leaf_contraction():
    for n in range(2, 6):
        classes = {}
        for t in enumerate_trees(n):
            classes.setdefault(canonical_form(t)[0], []).append(t)
        for cls in classes.values():
            for t1 in cls:
                for t2 in cls:
                    for sig in all_intertwiners(t1, t2):
                        for j in range(1, n + 1):
                            if j in t1.L:
                                continue
                            kids = t1.children(j)
                            if any(k not in t1.L for k in kids):
                                continue
                            i = kids[0] if kids else j
                            if kids != list(range(i, j)):
                                continue
                            j2 = sig[j - 1]
                            kids2 = t2.children(j2)
                            i2 = kids2[0] if kids2 else j2
                            w1 = leaf_contract(t1, i, j)
                            w2 = leaf_contract(t2, i2, j2)
                            induced = tuple(
                                w2.rho[sig[w1.tau[k - 1] - 1] - 1]
                                for k in range(1, w1.result.n + 1)
                            )
                            assert is_intertwiner(w1.result, w2.result, induced)


# ---------------------------------------------------------------- sorted trees

def test_sorted_tree_enumeration():
    # every vertex gets a sort; 2 sorts on n=2 gives 2 trees * 4 assignments
    ts = enumerate_trees(2, sorts=("a", "m"))
    assert len(ts) == 8
    assert all(t.sorts is not None for t in ts)


def test_sorted_canonical_orders_by_sort():
    t = Tree(3, (3, 3), frozenset({1, 2}), ("m", "a", "a"))
    c, sig = canonical_form(t)
    assert c.sorts == ("a", "m", "a")
    assert is_intertwiner(t, c, sig)


def test_contractions_carry_sorts():
    t = Tree(3, (2, 3), frozenset({1}), ("a", "a", "m"))
    w = edge_contract(t, 2)
    assert w.result.sorts == ("a", "m")
    w2 = leaf_contract(t, 1, 2)
    assert w2.result.sorts == ("a", "m")


# ---------------------------------------------------------------- properties

small_tree = st.integers(1, 5).flatmap(lambda n: st.sampled_from(enumerate_trees(n)))


@given(small_tree)
def test_child_index_consistent(t):
    for q in range(1, t.n):
        kids = t.children(t.s[q - 1])
        assert kids[child_index(t, q) - 1] == q


@given(small_tree, st.data())
def test_intertwiner_composition(t, data):
    m = len(successors(t)) if t.n not in t.L else 0
    if m < 2:
        return
    perm1 = tuple(data.draw(st.permutations(range(m))))
    perm2 = tuple(data.draw(st.permutations(range(m))))
    t1, sig1 = permute_successors(t, perm1)
    t2, sig2 = permute_successors(t1, perm2)
    comp = tuple(sig2[sig1[v - 1] - 1] for v in range(1, t.n + 1))
    assert is_intertwiner(t, t2, comp)


@given(small_tree)
def test_encode_invariant_under_equivalence(t):
    c, _ = canonical_form(t)
    assert encode(t) == encode(c)


# ------------------------------------------- stored hash, child table, memo
# Every planar tree up to 7 vertices, and every two-sorted tree up to 4,
# against the rescanning oracle in tree_oracle.py.

PLANAR = [t for n in range(1, 8) for t in enumerate_trees(n)]
TWO_SORTED = [t for n in range(1, 5) for t in enumerate_trees(n, sorts=("a", "m"))]
ALL_TREES = PLANAR + TWO_SORTED


def _rebuilt(t):
    """An equal tree built separately, from fresh containers."""
    sorts = None if t.sorts is None else tuple(list(t.sorts))
    return Tree(t.n, tuple(list(t.s)), frozenset(set(t.L)), sorts)


def test_tree_families_are_complete():
    assert len(PLANAR) == len(set(PLANAR))
    assert len(TWO_SORTED) == sum(
        len(enumerate_trees(n)) * 2 ** n for n in range(1, 5))


def test_stored_hash_matches_a_separately_built_tree():
    for t in ALL_TREES:
        u = _rebuilt(t)
        assert u is not t and u == t and hash(u) == hash(t)


def test_equality_and_hash_are_those_of_the_value_tuple():
    values = [(t.n, t.s, t.L, t.sorts) for t in ALL_TREES]
    assert len(set(values)) == len(ALL_TREES) == len(set(ALL_TREES))
    for t, value in zip(ALL_TREES, values):
        assert hash(t) == hash(value)
    # equal shapes that differ only in sorts are different trees
    for t in PLANAR[:40]:
        for sorts in (("a",) * t.n, ("m",) * t.n):
            sorted_t = Tree(t.n, t.s, t.L, sorts)
            assert sorted_t != t and t != sorted_t
            assert hash(sorted_t) == hash((t.n, t.s, t.L, sorts)) != hash(t)
    assert len({Tree(2, (2,), frozenset({1}), f) for f in
                (None, ("a", "a"), ("a", "m"), ("m", "a"))}) == 4
    assert Tree(1, (), frozenset()) != (1, (), frozenset(), None)


def test_child_table_matches_the_scan():
    for t in ALL_TREES:
        for v in range(1, t.n + 1):
            kids = t.children(v)
            assert kids == tree_oracle.children(t, v)
            assert isinstance(kids, list) and t.valence(v) == len(kids)
            assert t.sizes[v] == 1 + sum(t.sizes[c] for c in kids)
        assert root_blocks(t) == tree_oracle.root_blocks(t)
        for q in range(1, t.n):
            assert child_index(t, q) == tree_oracle.children(
                t, t.s[q - 1]).index(q) + 1


def test_children_hands_out_a_copy():
    t = Tree(3, (3, 3), frozenset({1, 2}))
    t.children(3).append(99)
    assert t.children(3) == [1, 2]


def test_memoized_canonical_form_matches_the_oracle():
    for t in ALL_TREES:
        want = tree_oracle.canonical_form(t)
        for u in (t, _rebuilt(t)):
            assert canonical_form(u) == want
            assert encode(u) == tree_oracle.encode(t)
        c, sigma = want
        assert canonical_form(c) == (c, tuple(range(1, t.n + 1)))
        assert is_intertwiner(t, c, sigma)


def test_equality_does_not_rest_on_the_stored_hash():
    base = Tree(3, (3, 3), frozenset({1, 2}), ("a", "a", "m"))
    others = [Tree(3, (3, 3), frozenset({1, 2}), ("a", "m", "m")),
              Tree(3, (3, 3), frozenset({1, 2})),
              Tree(3, (3, 3), frozenset({1}), ("a", "a", "m")),
              Tree(3, (2, 3), frozenset({1, 2}), ("a", "a", "m"))]
    for other in others:
        object.__setattr__(other, "_hash", base._hash)  # a forced collision
        assert other != base and base != other


def test_repr_is_the_value_record_and_trees_are_immutable():
    """Bar keys are ordered by str((tree, labels)), which fixes pivots and
    report bytes: the repr is pinned to the form the golden reports were
    made with."""
    assert repr(BUSH3) == "Tree(n=3, s=(3, 3), L=frozenset({1, 2}), sorts=None)"
    sorted_bush = Tree(3, (3, 3), frozenset({1, 2}), ("a", "a", "m"))
    assert repr(sorted_bush) == (
        "Tree(n=3, s=(3, 3), L=frozenset({1, 2}), sorts=('a', 'a', 'm'))")
    assert str((STUMP, ((("*",), "*"), 1))) == (
        "(Tree(n=1, s=(), L=frozenset(), sorts=None), ((('*',), '*'), 1))")
    w = edge_contract(CHAIN3, 2)
    for obj, field in [(BUSH3, "n"), (BUSH3, "s"), (BUSH3, "L"),
                       (BUSH3, "sorts"), (BUSH3, "kids"), (BUSH3, "sizes"),
                       (BUSH3, "_hash"), (w, "result"), (w, "tau"),
                       (w, "rho")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        del BUSH3.n
    assert BUSH3 == Tree(3, (3, 3), frozenset({1, 2})) and BUSH3.n == 3
