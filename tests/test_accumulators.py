"""In-place accumulators never write into a memoized or stored vector.

Every sum in kzbar is accumulated into a dict its own function created,
while the operad, algebra, bar-differential and free-algebra memos hand
out their stored vectors without copying them.  Running the same checks twice must
therefore leave every memo entry and every stored column exactly as the
first pass left it; an accumulator seeded with a memo value would
change them.  The operad and algebra memos are their structure-constant
tables, keyed by label ids and holding raw values; both verifiers read
them uncopied, and so does every boxed reader.

Each algebra carries one bar complex, which ``build`` and every suite
share; the suites run here on one build must give the golden reports,
only add to the shared differential memo, and, once the build's bar
D-structure has been read, find the whole n_max basis already in it.
"""

from pathlib import Path

from kzbar.algebras import AlgebraElement, verify_algebra
from kzbar.cli import (
    DEFAULT_SEED,
    Report,
    _run_bar,
    _run_dstruct,
    _run_homology,
    _run_roundtrip,
    to_json,
)
from kzbar.dstructures import roundtrip_algebra, split_identity_failures
from kzbar.manifest import build, load_builtin, manifest_digest, parse_manifest
from kzbar.operads import OperadElement, verify_operad


def _snap(x):
    """A deep copy of nested dicts and tuples that also keeps dict order."""
    if isinstance(x, dict):
        return [(k, _snap(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return tuple(_snap(v) for v in x)
    return x


def _state(alg, ds, B) -> dict[str, dict]:
    """Per store, a snapshot of each entry by key."""
    op = alg.operad
    stores = {
        "operad gamma table": op._gamma_memo,
        "operad perm memo": op._perm_memo,
        "algebra theta table": alg._theta_memo,
        "bar differential memo": B._d_memo,
        "bar normal-form memo": B._normal_memo,
        "algebra carrier d": {s: c.d for s, c in alg.carrier.items()},
        "dstructure carrier d": {s: c.d for s, c in ds.carrier.items()},
        "free-algebra part columns": {
            key: (part.complex.degrees, part.complex.d, part.big_degrees)
            for key, part in ds.free._parts.items()},
    }
    return {name: {k: _snap(v) for k, v in store.items()}
            for name, store in stores.items()}


def _sums(alg) -> None:
    """Compose and evaluate sums of basis elements, so that each sum is
    accumulated onto the memoized vector of its first term."""
    op, one = alg.operad, alg.field.one

    def total(sig):
        return OperadElement(op, sig, dict.fromkeys(op.components[sig].degrees, one))

    xs = {s: AlgebraElement(alg, s, dict.fromkeys(c.degrees, one))
          for s, c in alg.carrier.items()}
    for sig in op.signatures():
        alg.theta_eval([xs[s] for s in sig[0]], total(sig))
        if len(sig[0]) == 2:
            for inner in op.signatures():
                if len(inner[0]) == 2 and inner[1] == sig[0][0]:
                    op.gamma([total(inner), op.unit(sig[0][1])], total(sig))


def _one_pass(alg, ds, B, n_max: int) -> list[bool]:
    """The checks of one pass and their verdicts; the chain-complex and
    chain-map certificates raise instead.  B is the same bar complex in
    every pass, so the second bar_quotient reads the first one's
    differential memo, and the certificate sums d.d and dh + hd of every
    quotient key from the memoized vectors of d and h."""
    verdicts = [verify_operad(alg.operad).ok, verify_algebra(alg).ok]
    _sums(alg)
    quotient = B.bar_quotient(n_max)
    B.mu_chain_map(quotient)
    verdicts.append(B.certificate_faults(quotient.degrees) == (None, None))
    verdicts.append(roundtrip_algebra(alg, n_max).matrices_equal)
    verdicts.append(not split_identity_failures(ds))
    return verdicts


def test_a_second_pass_leaves_memos_and_columns_unchanged():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    assert m.window.n_max == 3
    built = build(m, cap=3)  # the cap `kz validate` verifies at
    alg = built.algebras["dual"]
    ds = built.dstructures["bardual"]
    assert ds.operad is alg.operad
    B = alg.bar
    assert all(_one_pass(alg, ds, B, m.window.n_max))
    before = _state(alg, ds, B)
    assert all(before.values()), [k for k, v in before.items() if not v]
    # the tables are keyed by label ids
    assert all(type(y) is int and all(type(x) is int for x in xs)
               for y, xs in alg.operad._gamma_memo)
    assert all(type(c) is int for c, _ in alg._theta_memo)
    second = _one_pass(alg, ds, B, m.window.n_max)
    after = _state(alg, ds, B)
    for name, entries in before.items():
        assert {k: after[name][k] for k in entries} == entries, name
    assert all(second)


# ------------------------------------------- one bar complex per algebra

GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(run_suite, suite: str, m, built) -> str:
    rep = Report(suite, manifest_digest(m), DEFAULT_SEED)
    run_suite(m, built, rep)
    return to_json(rep)


def _memo_unchanged(B, before: dict) -> bool:
    after = {k: _snap(v) for k, v in B._d_memo.items()}
    return {k: after.get(k) for k in before} == before


def test_build_and_the_bar_suites_share_one_bar_complex():
    m = parse_manifest((GOLDEN / "bar_w5.kz").read_text())
    built = build(m)
    alg = built.algebras["dual"]
    B = alg.bar
    assert B is alg.bar and built.dstructures["bardual"].operad is alg.operad
    # reading the bar D-structure filled the differential memo for the
    # whole n_max basis, so the suites miss only on keys outside it; the
    # memo is keyed by key ids
    basis = {B._key_id(k) for k in B.enumerate_basis(m.window.n_max)}
    assert basis <= set(B._d_memo)
    for suite, run_suite in (("bar", _run_bar), ("homology", _run_homology)):
        before = {k: _snap(v) for k, v in B._d_memo.items()}
        B._d_memo = _Recorder(B._d_memo)
        got = _report(run_suite, suite, m, built)
        assert got.encode() == (GOLDEN / f"bar_w5.{suite}.json").read_bytes(), suite
        assert basis & set(B._d_memo.asked), suite  # it ran on this instance
        assert not basis & set(B._d_memo.missed), suite
        assert _memo_unchanged(B, before), suite


def test_dstruct_and_roundtrip_share_the_algebras_bar_complex():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    built = build(m)
    B = built.algebras["dual"].bar
    built.dstructures["bardual"]  # read first, as _run_dstruct does
    keys = B.enumerate_basis(m.window.n_max)
    basis = {B._key_id(k) for k in keys}
    assert basis <= set(B._d_memo)
    for suite, run_suite in (("dstruct", _run_dstruct),
                             ("roundtrip", _run_roundtrip)):
        before = {k: _snap(v) for k, v in B._d_memo.items()}
        B._d_memo = _Recorder(B._d_memo)
        got = _report(run_suite, suite, m, built)
        golden = GOLDEN / f"uass_dual_numbers.{suite}.json"
        assert got.encode() == golden.read_bytes(), suite
        assert not basis & set(B._d_memo.missed), suite
        assert _memo_unchanged(B, before), suite
    # roundtrip_algebra read the n_max quotient differential off this
    # instance (its own D-structure stops one vertex short)
    assert {B._key_id(k) for k in keys if k[0].n == m.window.n_max} & set(
        B._d_memo.asked)


def test_dstruct_and_roundtrip_build_no_part_complex():
    """The D-structure suites read the classes of each free-algebra part
    and never its differential, so no part builds its complex."""
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    built = build(m)
    parts = built.dstructures["bardual"].free._parts
    for suite, run_suite in (("dstruct", _run_dstruct),
                             ("roundtrip", _run_roundtrip)):
        got = _report(run_suite, suite, m, built)
        golden = GOLDEN / f"uass_dual_numbers.{suite}.json"
        assert got.encode() == golden.read_bytes(), suite
    assert parts
    assert [key for key, part in parts.items() if "complex" in vars(part)] == []


def test_projecting_builds_no_class_list():
    """dstruct on the dual numbers at window 4 only projects words onto
    the parts above arity one, so none of those parts enumerates its
    classes, its pre-quotient words or its complex."""
    m = parse_manifest((GOLDEN / "dual_w4.kz").read_text())
    built = build(m)
    got = _report(_run_dstruct, "dstruct", m, built)
    assert got.encode() == (GOLDEN / "dual_w4.dstruct.json").read_bytes()
    parts = built.dstructures["bardual"].free._parts
    assert [n for n, _ in parts if n >= 2]
    assert [key for key, part in parts.items() if key[0] >= 2
            and {"degrees", "big_degrees", "complex"} & set(vars(part))] == []


class _Recorder(dict):
    """The differential memo, recording each key it was asked for and
    each of those it did not hold."""

    def __init__(self, memo: dict) -> None:
        super().__init__(memo)
        self.asked: list = []
        self.missed: list = []

    def get(self, key, default=None):
        self.asked.append(key)
        if key not in self:
            self.missed.append(key)
        return super().get(key, default)
