"""Exact verification engine for tree-indexed bar constructions.

The package itself holds what every layer shares and no layer owns, so
that no layer imports another just for a name: the error base the CLI
catches, the tree enumeration cap a manifest window is checked against,
and the base of the immutable value types.  Records are NamedTuples
or hand-written slotted classes: a class whose methods are generated
from source at import costs about a millisecond, in every ``kz``
process.
"""

ENUMERATION_CAP = 9  # the most vertices a tree enumeration or window takes


class KzbarError(ValueError):
    """A structure kzbar cannot build or check.  Each layer's error
    derives from this, so the CLI tells them from a bad manifest without
    importing layers its suite never ran."""


class Frozen:
    """Base of the immutable slotted value types.  ``__init__`` sets the
    slots through ``object.__setattr__``; any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


from kzbar.fields import GF, QQ, FieldSpec, Scalar  # noqa: E402  (fields reads Frozen)

__all__ = ["FieldSpec", "Scalar", "QQ", "GF"]
