"""Manifest grammar: positioned diagnostics, the canonical form, and
the objects each section builds."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kzbar.dstructures
from kzbar.algebras import Algebra
from kzbar.catalog import builtin_names
from kzbar.cli import DEFAULT_SEED, Report, _run_bar, _run_homology, to_json
from kzbar.dstructures import DStructure
from kzbar.fields import GF, QQ
from kzbar.manifest import (
    ALGEBRA_KINDS,
    AlgebraSection,
    DStructureSection,
    Manifest,
    ManifestError,
    OperadSection,
    Window,
    build,
    builtin_manifests,
    load_builtin,
    manifest_digest,
    parse_manifest,
    serialize,
)
from kzbar.operads import Operad

GOLDEN = Path(__file__).resolve().parent / "golden"

SCRUFFY = """\
field F3   # characteristic three

sorts *
cap 2
window 2 : -1 .. 2


operad one    # a name, not a count
  use unit-operad

algebra k
  use ground
  operad one
"""


# ------------------------------------------------------------- parsing


def test_builtin_manifest_parses():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    assert m.field == GF(2)
    assert m.sorts == ("*",)
    assert m.cap == 4
    assert m.window == Window(3, -1, 3)
    assert m.operads == (OperadSection("words", "uAss"),)
    assert m.algebras == (AlgebraSection("dual", "dual-numbers", "words"),)
    assert m.dstructures == (DStructureSection("bardual", "bar", "dual"),)


def test_manifest_records_are_hashable_immutable_values():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    again = parse_manifest(load_builtin("uass_dual_numbers"))
    records = [
        (m, again, ("field", "sorts", "cap", "window", "operads", "algebras",
                    "dstructures")),
        (m.window, again.window, ("n_max", "deg_lo", "deg_hi")),
        (m.operads[0], again.operads[0], ("name", "use")),
        (m.algebras[0], again.algebras[0], ("name", "use", "operad")),
        (m.dstructures[0], again.dstructures[0], ("name", "source", "algebra")),
    ]
    for rec, twin, fields in records:
        assert rec is not twin and rec == twin and hash(rec) == hash(twin)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
    assert len({m, again}) == 1
    wider = parse_manifest(load_builtin("uass_dual_numbers").replace(
        "window 3 : -1 .. 3", "window 3"))
    assert wider != m and wider.window == Window(3) != m.window
    assert OperadSection("words", "uAss") != OperadSection("words", "uCom")
    assert repr(m.window) == "Window(n_max=3, deg_lo=-1, deg_hi=3)"


def test_window_constructor_checks():
    with pytest.raises(ValueError, match="must not be negative"):
        Window(-1)
    with pytest.raises(ValueError, match="both ends or neither"):
        Window(3, -1)
    with pytest.raises(ValueError, match="both ends or neither"):
        Window(3, deg_hi=2)
    with pytest.raises(ValueError, match="is empty"):
        Window(3, 2, 1)
    assert Window(0, 1, 1) == Window(n_max=0, deg_lo=1, deg_hi=1)


def test_builtin_listing_and_optional_suffix():
    assert builtin_manifests() == ("uass_dual_numbers.kz",)
    assert load_builtin("uass_dual_numbers") == load_builtin("uass_dual_numbers.kz")
    with pytest.raises(ManifestError, match="no builtin manifest"):
        load_builtin("nope")


def test_parse_inverts_serialize_on_builtin():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    assert parse_manifest(serialize(m)) == m


def test_builtin_file_is_canonical_after_its_comment():
    text = load_builtin("uass_dual_numbers")
    body = "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("#"))
    assert serialize(parse_manifest(text)) == body


def test_serialize_of_a_parse_is_a_fixpoint():
    canon = serialize(parse_manifest(SCRUFFY))
    assert canon != SCRUFFY
    assert serialize(parse_manifest(canon)) == canon


def test_empty_file_reports_missing_field_header():
    with pytest.raises(ManifestError, match="missing field header") as exc:
        parse_manifest("")
    assert (exc.value.line, exc.value.col) == (1, 1)


def test_comment_only_file_reports_missing_field_header():
    with pytest.raises(ManifestError, match="missing field header"):
        parse_manifest("# nothing here\n\n")


def test_field_must_open_the_file():
    with pytest.raises(ManifestError, match="missing field header") as exc:
        parse_manifest("cap 3\nfield Q\n")
    assert exc.value.line == 1


BAD = [
    ("field Q\ncap 1\nwindow 1\nbogus 3\n", "unknown key 'bogus'", 4, 1),
    ("field Q\nfield Q\ncap 1\nwindow 1\n", "duplicate header 'field'", 2, 1),
    ("field R\n", "unknown field 'R'", 1, 7),
    ("field F9\n", "not prime", 1, 7),
    ("field Q\ncap 0\nwindow 1\n", "cap 0 must be at least 1", 2, 5),
    ("field Q\ncap 10\nwindow 1\n",
     "cap 10 exceeds the tree enumeration cap 9", 2, 5),
    ("field Q\ncap x\nwindow 1\n", "not an integer", 2, 5),
    ("field Q\ncap 1\nwindow 1 : -1\n", "window takes", 3, 1),
    ("field Q\ncap 1\nwindow 1 : 2 .. 1\n", "is empty", 3, 8),
    ("field Q\ncap 1\nwindow 10 : -1 .. 4\n",
     "window size 10 exceeds the tree enumeration cap 9", 3, 8),
    ("field Q\ncap 1\nwindow 1\nsorts a a\n", "duplicate sort 'a'", 4, 9),
    ("field Q\ncap 1\n", "missing window header", None, None),
    ("field Q\nwindow 1\n", "missing cap header", None, None),
    ("field Q\ncap 1\nwindow 1\noperad\n", "takes a single name", 4, 1),
    ("field Q\ncap 1\nwindow 1\noperad 9x\n", "bad section name", 4, 8),
    ("field Q\ncap 1\nwindow 1\noperad a\n  use unit-operad\noperad a\n",
     "duplicate section name", 6, 8),
    ("field Q\ncap 1\nwindow 1\noperad a\n  use unit-operad\n  use Ass\n",
     "duplicate key 'use'", 6, 3),
    ("field Q\ncap 1\nwindow 1\noperad a\n  spin up\n",
     "unknown key 'spin' in operad section", 5, 3),
    ("field Q\ncap 1\nwindow 1\noperad a\n  use nothing\n",
     "unknown builtin operad 'nothing'", 5, 7),
    ("field Q\ncap 1\nwindow 1\noperad a\n  use unit-operad\n"
     "algebra b\n  use soup\n  operad a\n", "unknown algebra kind 'soup'", 7, 7),
    ("field Q\ncap 1\nwindow 1\nalgebra b\n  use ground\n  operad nope\n",
     "unresolved reference: no operad named 'nope'", 6, 10),
    ("field Q\ncap 1\nwindow 1\ndstructure d\n  from bar\n  algebra nope\n",
     "unresolved reference: no algebra named 'nope'", 6, 11),
    ("field Q\ncap 1\nwindow 1\ndstructure d\n  from cobar\n  algebra a\n",
     "unknown dstructure source 'cobar'", 5, 8),
    ("field Q\ncap 2\nwindow 1\noperad a\n  use unit-operad\n  cap 3\n",
     "cap 3 disagrees with the manifest cap 2", 6, 7),
    ("field Q\ncap 1\nwindow 1\noperad a\n\tuse unit-operad\n",
     "indent with spaces", 5, 1),
    ("field Q\ncap 1\nwindow 1\noperad a\n   use unit-operad\n",
     "indentation must be two spaces", 5, 4),
    ("field Q\ncap 1\nwindow 1\n  use unit-operad\n",
     "indented line outside a section", 4, 3),
    ("field Q\ncap 1\nwindow 1\nalgebra b\n  use ground\n",
     "algebra section 'b' is missing 'operad'", 4, 1),
    ("field Q\ncap 1\nwindow 1\noperad a\n  use unit-operad\ncap 1\n",
     "must come before the first section", 6, 1),
]


@pytest.mark.parametrize("text,needle,line,col", BAD,
                         ids=[b[1][:30] for b in BAD])
def test_diagnostics_carry_positions(text, needle, line, col):
    with pytest.raises(ManifestError) as exc:
        parse_manifest(text)
    assert needle in str(exc.value)
    if line is not None:
        assert (exc.value.line, exc.value.col) == (line, col)


def test_sorts_defaults_to_star():
    m = parse_manifest("field Q\ncap 1\nwindow 1\n")
    assert m.sorts == ("*",)


def test_sorts_are_stored_sorted():
    m = parse_manifest("field Q\nsorts m a\ncap 1\nwindow 1\n")
    assert m.sorts == ("a", "m")


# ----------------------------------------------------------- the build


def test_build_builtin_instantiates_every_section():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    b = build(m)
    assert isinstance(b.operads["words"], Operad)
    assert isinstance(b.algebras["dual"], Algebra)
    assert isinstance(b.dstructures["bardual"], DStructure)
    assert b.dstructures["bardual"].name == "bardual"
    assert b.manifest is m


@pytest.fixture
def dstructure_builds(monkeypatch):
    """Calls to ``bar_dstructure``; the manifest module imports it from
    ``kzbar.dstructures`` at the first read of a D-structure."""
    calls = []
    orig = kzbar.dstructures.bar_dstructure

    def counted(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(kzbar.dstructures, "bar_dstructure", counted)
    return calls


def test_build_constructs_no_dstructure_until_one_is_read(dstructure_builds):
    m = parse_manifest((GOLDEN / "bar_w5.kz").read_text())
    b = build(m)
    B = b.algebras["dual"].bar
    assert len(b.dstructures) == 1 and list(b.dstructures) == ["bardual"]
    assert "bardual" in b.dstructures and "other" not in b.dstructures
    assert dstructure_builds == []
    assert B._d_memo == {} and B._basis_memo == {}
    ds = b.dstructures["bardual"]
    assert b.dstructures["bardual"] is ds
    assert dstructure_builds == ["bardual"]
    assert B._d_memo and B._basis_memo
    with pytest.raises(KeyError):
        b.dstructures["other"]


def test_bar_and_homology_never_construct_the_dstructure(dstructure_builds):
    m = parse_manifest((GOLDEN / "bar_w5.kz").read_text())
    b = build(m)
    for suite, run_suite in (("bar", _run_bar), ("homology", _run_homology)):
        rep = Report(suite, manifest_digest(m), DEFAULT_SEED)
        run_suite(m, b, rep)
        golden = GOLDEN / f"bar_w5.{suite}.json"
        assert to_json(rep).encode() == golden.read_bytes(), suite
    assert dstructure_builds == []


def test_a_section_past_the_cap_fails_when_read_not_when_built():
    text = load_builtin("uass_dual_numbers").replace(
        "window 3 : -1 .. 3", "window 7")
    b = build(parse_manifest(text))
    assert len(b.dstructures) == 1
    with pytest.raises(ManifestError, match=(
            "dstructure section 'bardual' could not be built: "
            "gamma result arity 5 exceeds cap 4")):
        b.dstructures["bardual"]


def test_build_clips_the_cap_but_never_raises_it():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    small = build(m, cap=2)
    assert max(len(s[0]) for s in small.operads["words"].signatures()) == 2
    wide = build(m, cap=9)
    assert max(len(s[0]) for s in wide.operads["words"].signatures()) == 4


def test_build_checks_the_sorts_header():
    text = ("field Q\nsorts a m\ncap 2\nwindow 2\n"
            "operad w\n  use uAss\n")
    with pytest.raises(ManifestError, match="sorts header"):
        build(parse_manifest(text))


def test_build_rejects_an_algebra_on_the_wrong_sorts():
    # the module pattern needs both sorts; the dual numbers live on one
    text = ("field Q\nsorts a m\ncap 2\nwindow 2\n"
            "operad w\n  use module-operad\n"
            "algebra d\n  use dual-numbers\n  operad w\n")
    with pytest.raises(ManifestError, match="carries sorts"):
        build(parse_manifest(text))


def test_digest_is_the_hash_of_the_canonical_form():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    want = hashlib.sha256(serialize(m).encode()).hexdigest()
    assert manifest_digest(m) == "sha256:" + want
    other = parse_manifest("field Q\ncap 1\nwindow 1\n")
    assert manifest_digest(other) != manifest_digest(m)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("text", [
    *(load_builtin(name) for name in builtin_manifests()),
    *(p.read_text() for p in sorted(GOLDEN.glob("*.kz")))])
def test_the_builtin_digest_matches_hashlib(text):
    """manifest_digest uses the interpreter's builtin sha256, not
    hashlib's OpenSSL one; both give the same digest."""
    m = parse_manifest(text)
    want = hashlib.sha256(serialize(m).encode()).hexdigest()
    assert manifest_digest(m) == "sha256:" + want


# -------------------------------------------------- random round trips


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,7}", fullmatch=True)


@st.composite
def manifests(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    sorts = tuple(sorted(draw(st.lists(
        st.sampled_from(["*", "a", "m", "x0"]),
        min_size=1, max_size=3, unique=True))))
    cap = draw(st.integers(1, 6))
    if draw(st.booleans()):
        lo = draw(st.integers(-4, 4))
        window = Window(draw(st.integers(0, 6)), lo, draw(st.integers(lo, lo + 6)))
    else:
        window = Window(draw(st.integers(0, 6)))
    ops: list[OperadSection] = []
    algs: list[AlgebraSection] = []
    dss: list[DStructureSection] = []
    for nm in draw(st.lists(_IDENT, max_size=6, unique=True)):
        kinds = ["operad"] + (["algebra"] if ops else []) + \
            (["dstructure"] if algs else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "operad":
            ops.append(OperadSection(nm, draw(st.sampled_from(builtin_names()))))
        elif kind == "algebra":
            algs.append(AlgebraSection(
                nm, draw(st.sampled_from(sorted(ALGEBRA_KINDS))),
                draw(st.sampled_from([o.name for o in ops]))))
        else:
            dss.append(DStructureSection(
                nm, "bar", draw(st.sampled_from([a.name for a in algs]))))
    return Manifest(field, sorts, cap, window,
                    tuple(ops), tuple(algs), tuple(dss))


@given(manifests())
def test_parse_inverts_serialize(m):
    assert parse_manifest(serialize(m)) == m


@given(manifests())
def test_digest_only_sees_the_canonical_form(m):
    noisy = serialize(m).replace("\nsorts", "   # noise\nsorts", 1)
    assert manifest_digest(parse_manifest(noisy)) == manifest_digest(m)
