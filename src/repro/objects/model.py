"""Class model: typed attributes, classes, schema.

The model covers what the paper's databases need (Figure 1 and the
``Stat`` schema of Figure 3): 32-bit integers, 64-bit reals, single
characters, booleans, fixed-width strings, object references, and sets of
references.  Strings are fixed-width because the paper sizes its objects
that way ("16 characters strings", Section 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SchemaError


class AttrKind(enum.Enum):
    """Storage type of an attribute."""

    #: Identity hash, in C (``Enum.__hash__`` is a Python-level call and
    #: the codec keys its per-kind tables with members); see
    #: :class:`repro.simtime.Bucket` for what that asks of sets.
    __hash__ = object.__hash__

    INT32 = "int32"
    REAL64 = "real64"
    CHAR = "char"
    BOOL = "bool"
    STRING = "string"   # fixed width, NUL padded
    REF = "ref"         # 8-byte rid
    REF_SET = "ref_set"  # set of rids: inline or overflow (variable size)


#: Default fixed width of STRING attributes (paper, Section 2).
DEFAULT_STRING_WIDTH = 16


@dataclass(frozen=True)
class AttributeDef:
    """One attribute of a class."""

    name: str
    kind: AttrKind
    #: Byte width for STRING attributes; ignored for other kinds.
    width: int = DEFAULT_STRING_WIDTH
    #: For REF / REF_SET: the class name the reference targets (purely
    #: informational — rids are untyped on disk).
    target: str | None = None

    def __post_init__(self) -> None:
        if self.kind is AttrKind.STRING and self.width < 1:
            raise SchemaError(f"string attribute {self.name!r} needs width >= 1")

    @property
    def is_variable(self) -> bool:
        return self.kind is AttrKind.REF_SET


@dataclass
class ClassDef:
    """A class: named, numbered, with ordered attributes (the storage
    layout)."""

    name: str
    class_id: int
    attributes: list[AttributeDef]

    def __post_init__(self) -> None:
        #: name -> attribute.  A class never changes once defined, so
        #: lookups by name resolve here, once.
        self._by_name: dict[str, AttributeDef] = {}
        for attr in self.attributes:
            if attr.name in self._by_name:
                raise SchemaError(
                    f"class {self.name!r}: duplicate attribute {attr.name!r}"
                )
            self._by_name[attr.name] = attr

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"class {self.name!r} has no attribute {name!r}"
            ) from None

    def scalar_attributes(self) -> list[AttributeDef]:
        return [a for a in self.attributes if not a.is_variable]

    def set_attributes(self) -> list[AttributeDef]:
        return [a for a in self.attributes if a.is_variable]


class Schema:
    """A named registry of classes."""

    def __init__(self) -> None:
        self._by_name: dict[str, ClassDef] = {}
        self._by_id: dict[int, ClassDef] = {}
        self._next_id = 1

    def define(self, name: str, attributes: list[AttributeDef]) -> ClassDef:
        """Register a new class and return its definition."""
        if name in self._by_name:
            raise SchemaError(f"class {name!r} already defined")
        cls = ClassDef(name, self._next_id, attributes)
        self._next_id += 1
        self._by_name[name] = cls
        self._by_id[cls.class_id] = cls
        return cls

    def cls(self, name: str) -> ClassDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def by_id(self, class_id: int) -> ClassDef:
        try:
            return self._by_id[class_id]
        except KeyError:
            raise SchemaError(f"unknown class id {class_id}") from None

