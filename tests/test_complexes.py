import pytest
from hypothesis import given
from hypothesis import strategies as st

from kzbar.complexes import ChainComplex, ChainMap, ComplexError, QuasiIsoVerdict
from kzbar.fields import GF, QQ
from kzbar.linalg import echelon, kernel_of_map, rank, vec_axpy, vec_box, vec_iaxpy, vec_unbox

from homology_oracle import rank as oracle_rank


def interval(F):
    # e in degree 1 maps to v: acyclic
    return ChainComplex(F, {"e": 1, "v": 0}, {"e": {"v": F.one}})


def test_rank_over_f2():
    F = GF(2)
    rows = [{"a": F.one, "b": F.one}, {"a": F.one, "b": F.one}]
    assert rank(rows, F) == 1


_SUPPORT = st.dictionaries(st.sampled_from("abcde"), st.integers(-3, 3), max_size=5)


@given(st.sampled_from([GF(2), GF(3), QQ]), st.lists(_SUPPORT, max_size=5), _SUPPORT)
def test_echelon_reduce_leaves_the_remainder_off_the_span(F, raw_rows, raw_v):
    """The remainder of v has no support on a pivot, is zero exactly when v
    lies in the row span, and differs from v by an element of the span.
    Span membership is decided by the oracle's own elimination."""
    def vec(raw):
        return {k: F.scalar(c) for k, c in raw.items() if not F.scalar(c).is_zero()}

    rows = [vec(r) for r in raw_rows]
    v = vec(raw_v)
    E = echelon(rows, F)
    rem = vec_box(E.reduce(vec_unbox(v, F)), F)
    r0 = oracle_rank(rows, F)
    assert not set(rem) & set(E.pivots)
    assert (rem == {}) == (oracle_rank(rows + [v], F) == r0)
    assert oracle_rank(rows + [vec_axpy(v, -F.one, rem)], F) == r0


def test_kernel_of_map():
    F = GF(2)
    cols = {"a": {"t": F.one}, "b": {"t": F.one}, "c": {}}
    ker = kernel_of_map(cols, F)
    assert len(ker) == 2
    for v in ker:
        img = {}
        for n, s in v.items():
            for t, c in cols[n].items():
                img[t] = img.get(t, F.zero) + c * s
        assert all(x.is_zero() for x in img.values())


def test_iaxpy_drops_a_cancelled_entry():
    F = GF(3)
    u = {"a": F.one, "b": F.scalar(2)}
    vec_iaxpy(u, F.scalar(2), {"a": F.one, "c": F.one})
    assert u == {"b": F.scalar(2), "c": F.scalar(2)}


def test_iaxpy_with_zero_scale_leaves_u_unchanged():
    u = {"a": QQ.one}
    vec_iaxpy(u, QQ.zero, {"a": -QQ.one, "b": QQ.one})
    assert u == {"a": QQ.one}


def test_iaxpy_never_mutates_v():
    F = GF(3)
    v = {"a": F.one, "b": F.scalar(2)}
    u = {"a": F.scalar(2)}
    vec_iaxpy(u, F.one, v)
    assert v == {"a": F.one, "b": F.scalar(2)}
    assert u == {"b": F.scalar(2)}
    u["b"] = F.one  # the sum holds no reference into v
    assert v["b"] == F.scalar(2)


_NAMES = st.sampled_from("abcd")


@given(st.sampled_from([GF(3), QQ]),
       st.dictionaries(_NAMES, st.integers(-4, 4)),
       st.integers(-4, 4),
       st.dictionaries(_NAMES, st.integers(-4, 4)))
def test_iaxpy_equals_axpy(F, u_raw, s, v_raw):
    u = {k: F.scalar(c) for k, c in u_raw.items() if not F.scalar(c).is_zero()}
    v = {k: F.scalar(c) for k, c in v_raw.items() if not F.scalar(c).is_zero()}
    v_before = dict(v)
    want = vec_axpy(u, F.scalar(s), v)
    # entrywise oracle, independent of both
    naive = {k: u.get(k, F.zero) + F.scalar(s) * v.get(k, F.zero) for k in {*u, *v}}
    vec_iaxpy(u, F.scalar(s), v)
    assert u == want == {k: c for k, c in naive.items() if not c.is_zero()}
    assert list(u) == list(want)
    assert all(not c.is_zero() for c in u.values())
    assert v == v_before


def test_homology_of_two_by_two_f2():
    # both generators in degree 1 map to y1+y2: rank 1, H_1 and H_0 both 1-dim
    F = GF(2)
    C = ChainComplex(
        F,
        {"x1": 1, "x2": 1, "y1": 0, "y2": 0},
        {"x1": {"y1": F.one, "y2": F.one}, "x2": {"y1": F.one, "y2": F.one}},
    )
    H = C.homology()
    assert H[1].dim == 1 and H[0].dim == 1
    assert H[1].boundary_rank == 0 and H[0].boundary_rank == 1


def test_interval_acyclic():
    H = interval(QQ).homology()
    assert H[0].dim == 0 and H[1].dim == 0


def test_degree_violation_rejected():
    F = QQ
    with pytest.raises(ComplexError):
        ChainComplex(F, {"a": 2, "b": 0}, {"a": {"b": F.one}})


def test_d_squared_rejected():
    F = QQ
    with pytest.raises(ComplexError):
        ChainComplex(
            F,
            {"a": 2, "b": 1, "c": 0},
            {"a": {"b": F.one}, "b": {"c": F.one}},
        )


def test_shift_sign():
    C = interval(QQ).shift(1)
    assert C.degrees == {"e": 2, "v": 1}
    assert C.d["e"]["v"] == -QQ.one
    # double shift brings the sign back
    C2 = interval(QQ).shift(2)
    assert C2.d["e"]["v"] == QQ.one


def test_tensor_square_of_interval():
    F = QQ
    T = interval(F).tensor(interval(F))
    # square: acyclic, and d*d = 0 was checked on construction via validate
    T._validate()
    H = T.homology()
    assert all(h.dim == 0 for h in H.values())


def test_tensor_koszul_sign():
    F = QQ
    T = interval(F).tensor(interval(F))
    col = T.d[("e", "e")]
    assert col[("v", "e")] == F.one
    assert col[("e", "v")] == -F.one


def test_chain_map_identity_quasi_iso():
    C = interval(QQ)
    f = ChainMap(C, C, {n: {n: QQ.one} for n in C.basis()})
    verdicts = f.is_quasi_iso([0, 1])
    assert all(v.isomorphism for v in verdicts.values())


def test_chain_map_violation_rejected():
    F = QQ
    C = interval(F)
    D = ChainComplex(F, {"w": 0})
    with pytest.raises(ComplexError):
        ChainMap(C, D, {"e": {}, "v": {"w": F.one}})  # fails d f = f d at e? no: f(de)=f(v)=w, d f(e)=0
    # the zero map is a valid chain map, and a quasi-iso iff source is acyclic
    z = ChainMap(C, ChainComplex(F, {}), {})
    assert all(v.isomorphism for v in z.is_quasi_iso([0, 1]).values())


def test_quasi_iso_detects_failure():
    F = QQ
    # circle-like: one class in degree 0; zero map to a point complex misses it
    C = ChainComplex(F, {"pt": 0})
    D = ChainComplex(F, {})
    z = ChainMap(C, D, {})
    v = z.is_quasi_iso([0])[0]
    assert not v.isomorphism and v.source_dim == 1 and v.target_dim == 0
    again = ChainMap(C, D, {}).is_quasi_iso([0])[0]
    assert again is not v and again == v and hash(again) == hash(v)
    assert v != ChainMap(C, C, {"pt": {"pt": F.one}}).is_quasi_iso([0])[0]
    assert v == QuasiIsoVerdict(degree=0, source_dim=1, target_dim=0,
                                induced_rank=0, isomorphism=False)
    with pytest.raises(AttributeError):
        v.isomorphism = True


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(1, 3))
def test_iterated_tensor_is_complex(F, k):
    C = interval(F)
    T = C
    for _ in range(k):
        T = T.tensor(C)
    T._validate()
    # tensor of acyclic complexes stays acyclic
    assert all(h.dim == 0 for h in T.homology().values())


@given(st.sampled_from([QQ, GF(3)]), st.integers(-2, 2))
def test_shift_preserves_homology_dims(F, n):
    C = ChainComplex(
        F,
        {"x1": 1, "x2": 1, "y1": 0, "y2": 0},
        {"x1": {"y1": F.one, "y2": F.one}, "x2": {"y1": F.one, "y2": F.one}},
    )
    H0 = C.homology()
    H1 = C.shift(n).homology()
    assert {k + n: h.dim for k, h in H0.items()} == {k: h.dim for k, h in H1.items()}
