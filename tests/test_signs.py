from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kzbar.signs import (
    ONE,
    ZERO,
    SignWord,
    block_swap_sign,
    left_mul_f,
    multiply,
    partial_e,
    relabel,
    word,
)
from kzbar.trees import enumerate_trees
from sign_oracle import as_gens, naive_normalize


def test_multiply_examples():
    assert multiply(word(fs=[2]), word(fs=[1])) == word(fs=[1, 2], sign=-1)
    assert multiply(word(fs=[1]), word(fs=[1])) == ONE
    assert multiply(word(es=[1], fs=[1]), word(es=[2])) == word(es=[1, 2], fs=[1], sign=-1)


def test_partial_e_examples():
    w = word(es=[1, 2])
    assert partial_e(1, w) == word(es=[2])
    assert partial_e(2, w) == word(es=[1], sign=-1)
    assert partial_e(3, w) == ZERO


def test_left_mul_f_examples():
    assert left_mul_f(1, word(es=[1])) == word(es=[1], fs=[1], sign=-1)
    assert left_mul_f(1, word(fs=[1])) == ONE
    assert left_mul_f(2, word(es=[1], fs=[1])) == word(es=[1], fs=[1, 2])


def test_relabel_examples():
    assert relabel(word(es=[2]), {2: 1}) == word(es=[1])
    assert relabel(word(fs=[1, 2]), {1: 1, 2: 1}) == ONE
    assert relabel(word(es=[1, 2]), {1: 1, 2: 1}) == ZERO


def test_zero_is_distinguished():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert multiply(ZERO, ONE) == ZERO
    assert str(ZERO) == "0"


def test_rendering():
    assert str(SignWord(-1, (1, 3), (2,))) == "-e1 e3 f2"
    assert str(ONE) == "1"


def test_malformed_words_rejected():
    with pytest.raises(ValueError):
        SignWord(1, (2, 1), ())
    with pytest.raises(ValueError):
        SignWord(1, (1, 1), ())
    with pytest.raises(ValueError):
        SignWord(2, (), ())
    with pytest.raises(ValueError):
        SignWord(0, (1,), ())
    with pytest.raises(ValueError):
        SignWord(1, (0, 2), ())
    with pytest.raises(ValueError):
        SignWord(1, (), (2, 2))


def test_words_are_immutable_values():
    w = SignWord(-1, (1, 3), (2,))
    assert repr(w) == "SignWord(sign=-1, es=(1, 3), fs=(2,))"
    same = SignWord(-1, (1, 3), (2,))
    assert w == same and hash(w) == hash(same) == hash((-1, (1, 3), (2,)))
    assert w != SignWord(1, (1, 3), (2,)) and w != (-1, (1, 3), (2,))
    assert len({w, same, ONE, ZERO, SignWord(1)}) == 3
    for field in ("sign", "es", "fs"):
        with pytest.raises(AttributeError):
            setattr(w, field, getattr(w, field))


# ---------------------------------------------------------------- oracle

gen = st.tuples(st.sampled_from("ef"), st.integers(1, 8))
gen_seq = st.lists(gen, max_size=10)
words = st.builds(
    lambda es, fs, s: SignWord(s, tuple(sorted(es)), tuple(sorted(fs))),
    st.sets(st.integers(1, 8), max_size=5),
    st.sets(st.integers(1, 8), max_size=5),
    st.sampled_from([1, -1]),
)


@given(st.sampled_from([1, -1]), gen_seq)
def test_normalizer_matches_oracle(sign, gens):
    es = [i for t, i in gens if t == "e"]
    fs = [i for t, i in gens if t == "f"]
    got = multiply(word(sign=sign, es=[], fs=[]), _raw(sign, gens))
    assert got == naive_normalize(sign, gens)


def _raw(sign, gens):
    # feed the raw sequence through the production normalizer
    from kzbar.signs import _normalize

    return _normalize(1, gens)


@given(words, words, words)
def test_multiply_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(words, words)
def test_multiply_matches_oracle(a, b):
    expected = naive_normalize(a.sign * b.sign, as_gens(a) + as_gens(b))
    assert multiply(a, b) == expected


def _all_small_words(idx):
    out = []
    for k_e in range(len(idx) + 1):
        for es in combinations(idx, k_e):
            for k_f in range(len(idx) + 1):
                for fs in combinations(idx, k_f):
                    out.append(SignWord(1, es, fs))
    return out


SMALL = _all_small_words((1, 2, 3, 4))


def test_partial_e_anticommutes_and_squares_to_zero():
    for w in SMALL:
        for i in range(1, 5):
            assert partial_e(i, partial_e(i, w)) == ZERO
            for j in range(1, 5):
                if i == j:
                    continue
                lhs = partial_e(i, partial_e(j, w))
                rhs = partial_e(j, partial_e(i, w))
                assert lhs == _negate(rhs)


def test_left_mul_f_anticommutes():
    for w in SMALL:
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                lhs = left_mul_f(i, left_mul_f(j, w))
                assert lhs == _negate(left_mul_f(j, left_mul_f(i, w)))


def test_partial_e_anticommutes_with_left_mul_f():
    for w in SMALL:
        for i in range(1, 5):
            for j in range(1, 5):
                lhs = partial_e(i, left_mul_f(j, w))
                assert lhs == _negate(left_mul_f(j, partial_e(i, w)))


def _negate(w):
    if w.sign == 0:
        return w
    return SignWord(-w.sign, w.es, w.fs)


@given(words, st.data())
def test_relabel_composition(w, data):
    # composition is only defined for collision-free stages: a collapse
    # step's cancellation sign depends on the ordering of its input, so
    # splitting a collapse across two maps may cost a sign. Both stages
    # injective is the honest domain of the law.
    perm1 = data.draw(st.permutations(range(1, 9)))
    perm2 = data.draw(st.permutations(range(1, 9)))
    rho1 = {i + 1: perm1[i] for i in range(8)}
    rho2 = {i + 1: perm2[i] for i in range(8)}
    one_shot = relabel(w, {i: rho2[rho1[i]] for i in rho1})
    two_step = relabel(relabel(w, rho1), rho2)
    assert one_shot == two_step


@given(words, st.data())
def test_relabel_injective_preserves_length(w, data):
    perm = data.draw(st.permutations(range(1, 9)))
    rho = {i + 1: perm[i] for i in range(8)}
    out = relabel(w, rho)
    assert not out.is_zero()
    assert len(out.es) == len(w.es) and len(out.fs) == len(w.fs)


def _relabeled_naively(w, rho):
    return naive_normalize(w.sign, [(k, rho[i]) for k, i in as_gens(w)])


@given(words, st.lists(st.integers(1, 12), min_size=8, max_size=8, unique=True))
def test_relabel_by_an_injective_map_matches_the_naive_normalizer(w, images):
    """An injective map is signed by inversion parity, with no walk."""
    rho = {i + 1: images[i] for i in range(8)}
    assert relabel(w, rho) == _relabeled_naively(w, rho)


@given(words, st.lists(st.integers(1, 4), min_size=8, max_size=8))
def test_relabel_by_a_colliding_map_matches_the_naive_normalizer(w, images):
    rho = {i + 1: images[i] for i in range(8)}
    assert relabel(w, rho) == _relabeled_naively(w, rho)


@given(st.data())
def test_relabel_onto_a_target_tree_matches_the_naive_normalizer(data):
    """A vertex permutation onto a tree keeps a word whose e's land on
    labeled vertices and rejects one that puts an e on a leaf."""
    n = data.draw(st.integers(1, 5))
    t = data.draw(st.sampled_from(enumerate_trees(n)))
    perm = data.draw(st.permutations(range(1, n + 1)))
    rho = {i + 1: perm[i] for i in range(n)}
    es = data.draw(st.lists(st.sampled_from(range(1, n + 1)), unique=True))
    fs = data.draw(st.lists(st.sampled_from(range(1, n + 1)), unique=True))
    w = word(es, fs, sign=data.draw(st.sampled_from([1, -1])))
    if all(rho[i] not in t.L for i in w.es):
        assert relabel(w, rho, target=t) == _relabeled_naively(w, rho)
    else:
        with pytest.raises(ValueError, match="does not fit"):
            relabel(w, rho, target=t)


@given(words, st.data())
def test_block_swap_sign_is_the_sign_relabel_gives_the_exchange(w, data):
    """Exchanging the adjacent blocks a+1..b and b+1..c of 1..8."""
    a, b, c = sorted(data.draw(st.lists(st.integers(0, 8), min_size=3, max_size=3)))
    rho = {i: i + c - b if a < i <= b else i - (b - a) if b < i <= c else i
           for i in range(1, 9)}
    moved = _relabeled_naively(w, rho)
    assert block_swap_sign(w, a, b, c) * w.sign == moved.sign
