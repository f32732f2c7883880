"""Run manifests: a small line-oriented description of one computation.

A manifest names a ground field, a vertex cap, a window, and a list of
sections that build on each other.  The format is plain text, two-space
indentation, ``#`` comments::

    field F2
    sorts *
    cap 4
    window 3 : -1 .. 3

    operad words
      use uAss

    algebra dual
      use dual-numbers
      operad words

    dstructure bardual
      from bar
      algebra dual

The first meaningful line must be the ``field`` header.  Section bodies
refer to earlier sections by name; every reference is resolved before a
manifest is returned, and every diagnostic carries a line and column.
``serialize`` writes the canonical form, so ``parse(serialize(m)) == m``
and serializing a reparse is a fixpoint.

The cap and the window size are each at most ``kzbar.ENUMERATION_CAP``,
the most vertices a window takes.  A vertex of arity k needs k + 1
vertices, so no window reads a component of arity above that cap, and a
larger cap would only build components nothing reads.

Builds resolve ``use`` values through the stock catalog.  A section may
repeat the ``cap`` for emphasis, but only with the manifest's value;
anything else is rejected rather than silently reconciled.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from kzbar import ENUMERATION_CAP
from kzbar.algebras import Algebra
from kzbar.catalog import (
    augmentation_module_pair,
    builtin,
    builtin_names,
    dual_numbers_algebra,
    ground_algebra,
)
from kzbar.fields import GF, QQ, FieldSpec
from kzbar.operads import Operad

# The interpreter's builtin sha256, the one hashlib itself falls back on
# without OpenSSL: importing hashlib loads OpenSSL's libcrypto, which
# every kz process would map for one digest of a manifest under a
# kilobyte.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from kzbar.dstructures import DStructure

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_HEADERS = ("field", "sorts", "cap", "window")
_SECTION_KEYS = {
    "operad": ("use", "cap"),
    "algebra": ("use", "operad", "cap"),
    "dstructure": ("from", "algebra", "cap"),
}

ALGEBRA_KINDS = {
    "dual-numbers": dual_numbers_algebra,
    "ground": ground_algebra,
    "augmentation-module-pair": augmentation_module_pair,
}

DSTRUCTURE_KINDS = ("bar",)


class ManifestError(ValueError):
    """Parse or build failure; carries a 1-based position when known."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None) -> None:
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class _WindowFields(NamedTuple):
    n_max: int
    deg_lo: int | None = None
    deg_hi: int | None = None


class Window(_WindowFields):
    """The arity bound of a run and, optionally, its degree range."""

    __slots__ = ()

    def __new__(cls, n_max: int, deg_lo: int | None = None,
                deg_hi: int | None = None) -> Window:
        if n_max < 0:
            raise ValueError(f"window size {n_max} must not be negative")
        if (deg_lo is None) != (deg_hi is None):
            raise ValueError("window range needs both ends or neither")
        if deg_lo is not None and deg_lo > deg_hi:  # type: ignore[operator]
            raise ValueError(f"window range {deg_lo} .. {deg_hi} is empty")
        return super().__new__(cls, n_max, deg_lo, deg_hi)


class OperadSection(NamedTuple):
    name: str
    use: str


class AlgebraSection(NamedTuple):
    name: str
    use: str
    operad: str


class DStructureSection(NamedTuple):
    name: str
    source: str
    algebra: str


class Manifest(NamedTuple):
    field: FieldSpec
    sorts: tuple[str, ...]
    cap: int
    window: Window
    operads: tuple[OperadSection, ...] = ()
    algebras: tuple[AlgebraSection, ...] = ()
    dstructures: tuple[DStructureSection, ...] = ()


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_field(tok: str, line: int, col: int) -> FieldSpec:
    if tok == "Q":
        return QQ
    m = re.fullmatch(r"F([0-9]+)", tok)
    if m is None:
        raise ManifestError(f"unknown field {tok!r} (use Q or F<p>)", line, col)
    try:
        return GF(int(m.group(1)))
    except ValueError as e:
        raise ManifestError(str(e), line, col) from None


def _parse_int(tok: str, line: int, col: int, what: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ManifestError(f"{what} {tok!r} is not an integer", line, col) from None


class _Section:
    def __init__(self, kind: str, name: str, line: int) -> None:
        self.kind = kind
        self.name = name
        self.line = line
        self.body: dict[str, tuple[str, int, int]] = {}


def parse_manifest(text: str) -> Manifest:
    """Read manifest text; raise ManifestError with a position on the
    first problem found."""
    headers: dict[str, object] = {}
    sections: list[_Section] = []
    current: _Section | None = None
    seen_any = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        lead = line[: len(line) - len(line.lstrip())]
        if "\t" in lead:
            raise ManifestError("indent with spaces, not tabs", lineno,
                                lead.index("\t") + 1)
        indent = len(lead)
        toks = _tokens(line)
        key, kcol = toks[0]

        if not seen_any:
            if indent != 0 or key != "field":
                raise ManifestError("missing field header", lineno, 1)
            seen_any = True

        if indent == 0:
            current = None
            if key in _HEADERS:
                if sections:
                    raise ManifestError(
                        f"header {key!r} must come before the first section",
                        lineno, kcol)
                if key in headers:
                    raise ManifestError(f"duplicate header {key!r}", lineno, kcol)
                headers[key] = _parse_header(key, toks, lineno)
            elif key in _SECTION_KEYS:
                if len(toks) != 2:
                    raise ManifestError(f"{key} takes a single name", lineno, kcol)
                name, ncol = toks[1]
                if not _NAME.match(name):
                    raise ManifestError(f"bad section name {name!r}", lineno, ncol)
                if any(s.name == name for s in sections):
                    raise ManifestError(f"duplicate section name {name!r}",
                                        lineno, ncol)
                current = _Section(key, name, lineno)
                sections.append(current)
            else:
                raise ManifestError(f"unknown key {key!r}", lineno, kcol)
        elif indent == 2:
            if current is None:
                raise ManifestError("indented line outside a section", lineno, 3)
            if key not in _SECTION_KEYS[current.kind]:
                raise ManifestError(
                    f"unknown key {key!r} in {current.kind} section", lineno, kcol)
            if key in current.body:
                raise ManifestError(f"duplicate key {key!r}", lineno, kcol)
            if len(toks) != 2:
                raise ManifestError(f"{key} takes a single value", lineno, kcol)
            val, vcol = toks[1]
            current.body[key] = (val, lineno, vcol)
        else:
            raise ManifestError("indentation must be two spaces", lineno,
                                indent + 1)

    if "field" not in headers:
        raise ManifestError("missing field header", 1, 1)
    for needed in ("cap", "window"):
        if needed not in headers:
            raise ManifestError(f"missing {needed} header")
    return _assemble(headers, sections)


def _parse_header(key: str, toks: list[tuple[str, int]], lineno: int):
    vals = toks[1:]
    if key == "field":
        if len(vals) != 1:
            raise ManifestError("field takes one value", lineno, toks[0][1])
        return _parse_field(vals[0][0], lineno, vals[0][1])
    if key == "sorts":
        if not vals:
            raise ManifestError("sorts needs at least one name", lineno, toks[0][1])
        seen: set[str] = set()
        for v, c in vals:
            if v in seen:
                raise ManifestError(f"duplicate sort {v!r}", lineno, c)
            seen.add(v)
        return tuple(sorted(v for v, _ in vals))
    if key == "cap":
        if len(vals) != 1:
            raise ManifestError("cap takes one value", lineno, toks[0][1])
        cap = _parse_int(vals[0][0], lineno, vals[0][1], "cap")
        if cap < 1:
            raise ManifestError(f"cap {cap} must be at least 1", lineno, vals[0][1])
        if cap > ENUMERATION_CAP:
            raise ManifestError(
                f"cap {cap} exceeds the tree enumeration cap {ENUMERATION_CAP}",
                lineno, vals[0][1])
        return cap
    # window N  or  window N : LO .. HI
    if len(vals) == 1:
        n = _parse_int(vals[0][0], lineno, vals[0][1], "window size")
        return _window(n, None, None, lineno, vals[0][1])
    if len(vals) == 5 and vals[1][0] == ":" and vals[3][0] == "..":
        n = _parse_int(vals[0][0], lineno, vals[0][1], "window size")
        lo = _parse_int(vals[2][0], lineno, vals[2][1], "window degree")
        hi = _parse_int(vals[4][0], lineno, vals[4][1], "window degree")
        return _window(n, lo, hi, lineno, vals[0][1])
    raise ManifestError("window takes 'N' or 'N : LO .. HI'", lineno, toks[0][1])


def _window(n: int, lo: int | None, hi: int | None, lineno: int, col: int) -> Window:
    if n > ENUMERATION_CAP:
        raise ManifestError(
            f"window size {n} exceeds the tree enumeration cap {ENUMERATION_CAP}",
            lineno, col)
    try:
        return Window(n, lo, hi)
    except ValueError as e:
        raise ManifestError(str(e), lineno, col) from None


def _require(sec: _Section, key: str) -> tuple[str, int, int]:
    if key not in sec.body:
        raise ManifestError(
            f"{sec.kind} section {sec.name!r} is missing {key!r}", sec.line, 1)
    return sec.body[key]


def _assemble(headers: dict, sections: list[_Section]) -> Manifest:
    cap = headers["cap"]
    operads: list[OperadSection] = []
    algebras: list[AlgebraSection] = []
    dstructures: list[DStructureSection] = []

    for sec in sections:
        if "cap" in sec.body:
            v, ln, cl = sec.body["cap"]
            local = _parse_int(v, ln, cl, "cap")
            if local != cap:
                raise ManifestError(
                    f"cap {local} disagrees with the manifest cap {cap}", ln, cl)
        if sec.kind == "operad":
            use, ln, cl = _require(sec, "use")
            if use not in builtin_names():
                known = ", ".join(builtin_names())
                raise ManifestError(
                    f"unknown builtin operad {use!r}; known: {known}", ln, cl)
            operads.append(OperadSection(sec.name, use))
        elif sec.kind == "algebra":
            use, ln, cl = _require(sec, "use")
            if use not in ALGEBRA_KINDS:
                known = ", ".join(sorted(ALGEBRA_KINDS))
                raise ManifestError(
                    f"unknown algebra kind {use!r}; known: {known}", ln, cl)
            ref, ln, cl = _require(sec, "operad")
            if not any(o.name == ref for o in operads):
                raise ManifestError(
                    f"unresolved reference: no operad named {ref!r}", ln, cl)
            algebras.append(AlgebraSection(sec.name, use, ref))
        else:
            src, ln, cl = _require(sec, "from")
            if src not in DSTRUCTURE_KINDS:
                known = ", ".join(DSTRUCTURE_KINDS)
                raise ManifestError(
                    f"unknown dstructure source {src!r}; known: {known}", ln, cl)
            ref, ln, cl = _require(sec, "algebra")
            if not any(a.name == ref for a in algebras):
                raise ManifestError(
                    f"unresolved reference: no algebra named {ref!r}", ln, cl)
            dstructures.append(DStructureSection(sec.name, src, ref))

    return Manifest(
        field=headers["field"],
        sorts=headers.get("sorts", ("*",)),
        cap=cap,
        window=headers["window"],
        operads=tuple(operads),
        algebras=tuple(algebras),
        dstructures=tuple(dstructures),
    )


def serialize(m: Manifest) -> str:
    """Canonical text for a manifest; parse of the result gives ``m`` back."""
    w = m.window
    out = [
        f"field {m.field}",
        "sorts " + " ".join(m.sorts),
        f"cap {m.cap}",
        f"window {w.n_max}" if w.deg_lo is None
        else f"window {w.n_max} : {w.deg_lo} .. {w.deg_hi}",
    ]
    for o in m.operads:
        out += ["", f"operad {o.name}", f"  use {o.use}"]
    for a in m.algebras:
        out += ["", f"algebra {a.name}", f"  use {a.use}", f"  operad {a.operad}"]
    for d in m.dstructures:
        out += ["", f"dstructure {d.name}", f"  from {d.source}",
                f"  algebra {d.algebra}"]
    return "\n".join(out) + "\n"


def manifest_digest(m: Manifest) -> str:
    return "sha256:" + sha256(serialize(m).encode()).hexdigest()


class _LazyDStructures(Mapping):
    """The D-structure sections of a build by name, in manifest order.

    Each one is built, with all its certificates, the first time it is
    read and kept; ``len`` and iteration build nothing.  Parsing already
    checked every section's kind and references, so laziness only defers
    construction.
    """

    def __init__(self, m: Manifest, algebras: dict[str, Algebra]) -> None:
        self._sections = {d.name: d for d in m.dstructures}
        self._algebras = algebras
        self._n_max = m.window.n_max
        self._built: dict[str, DStructure] = {}

    def __getitem__(self, name: str) -> DStructure:
        ds = self._built.get(name)
        if ds is None:
            d = self._sections[name]
            from kzbar.dstructures import bar_dstructure  # the first read pays
            try:
                ds = bar_dstructure(self._algebras[d.algebra], self._n_max,
                                    name=d.name)
            except (KeyError, ValueError) as e:
                raise ManifestError(
                    f"dstructure section {d.name!r} could not be built: {e}"
                ) from e
            self._built[name] = ds
        return ds

    def __contains__(self, name: object) -> bool:
        return name in self._sections

    def __iter__(self) -> Iterator[str]:
        return iter(self._sections)

    def __len__(self) -> int:
        return len(self._sections)


class Build(NamedTuple):
    """The operads and algebras of a manifest, built, and its D-structures,
    each built on first read: only ``dstruct`` and ``roundtrip`` read one,
    so only they import ``kzbar.dstructures``."""

    manifest: Manifest
    operads: dict[str, Operad]
    algebras: dict[str, Algebra]
    dstructures: Mapping[str, DStructure]


def build(m: Manifest, cap: int | None = None) -> Build:
    """Instantiate the operad and algebra sections and wrap the D-structure
    sections to build on first read; ``cap`` clips the arity cap for
    cheaper exhaustive verification and never raises it."""
    eff = m.cap if cap is None else min(cap, m.cap)
    operads: dict[str, Operad] = {}
    algebras: dict[str, Algebra] = {}
    for o in m.operads:
        operads[o.name] = builtin(o.use, m.field, eff)
    if operads:
        seen = sorted({srt for op in operads.values() for srt in op.sorts})
        if tuple(seen) != m.sorts:
            raise ManifestError(
                "sorts header ({}) does not match the operads ({})".format(
                    " ".join(m.sorts), " ".join(seen)))
    for a in m.algebras:
        try:
            algebras[a.name] = ALGEBRA_KINDS[a.use](m.field, operads[a.operad])
        except (KeyError, ValueError) as e:
            raise ManifestError(
                f"algebra section {a.name!r} could not be built: {e}") from e
        got = sorted(algebras[a.name].carrier)
        want = sorted(operads[a.operad].sorts)
        if got != want:
            raise ManifestError(
                f"algebra section {a.name!r} carries sorts {got}, "
                f"the operad {a.operad!r} needs {want}")
    return Build(m, operads, algebras, _LazyDStructures(m, algebras))


def builtin_manifests() -> tuple[str, ...]:
    root = resources.files("kzbar").joinpath("data")
    names = [p.name for p in root.iterdir() if p.name.endswith(".kz")]
    return tuple(sorted(names))


def load_builtin(name: str) -> str:
    """Text of a packaged manifest; the ``.kz`` suffix is optional."""
    if not name.endswith(".kz"):
        name += ".kz"
    if name not in builtin_manifests():
        known = ", ".join(builtin_manifests())
        raise ManifestError(f"no builtin manifest {name!r}; known: {known}")
    return resources.files("kzbar").joinpath("data", name).read_text()


__all__ = [
    "ALGEBRA_KINDS",
    "AlgebraSection",
    "Build",
    "DSTRUCTURE_KINDS",
    "DStructureSection",
    "Manifest",
    "ManifestError",
    "OperadSection",
    "Window",
    "build",
    "builtin_manifests",
    "load_builtin",
    "manifest_digest",
    "parse_manifest",
    "serialize",
]
