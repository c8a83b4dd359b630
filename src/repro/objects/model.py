"""Class model: typed attributes, classes, inheritance, schema.

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
from repro.storage.rid import Rid


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


#: Fixed on-disk byte width per scalar kind.
_SCALAR_WIDTHS = {
    AttrKind.INT32: 4,
    AttrKind.REAL64: 8,
    AttrKind.CHAR: 1,
    AttrKind.BOOL: 1,
    AttrKind.REF: Rid.DISK_SIZE,
}

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
    #: Value reported for objects written before this attribute existed
    #: (dynamic class evolution) and encoded when the caller omits it.
    default: object = None

    def __post_init__(self) -> None:
        if self.kind is AttrKind.STRING and self.width < 1:
            raise SchemaError(f"string attribute {self.name!r} needs width >= 1")

    @property
    def fixed_size(self) -> int | None:
        """On-disk byte size, or ``None`` for variable-size kinds."""
        if self.kind is AttrKind.STRING:
            return self.width
        return _SCALAR_WIDTHS.get(self.kind)

    @property
    def is_variable(self) -> bool:
        return self.kind is AttrKind.REF_SET


@dataclass
class ClassDef:
    """A class: named, numbered, with ordered attributes and an optional
    superclass (attributes are inherited, prepended in superclass order).

    ``schema_version`` counts evolution steps: records on disk carry the
    version they were written under, and decode with that version's
    layout (dynamic class evolution — one of the O2 features the paper's
    Section 4.4 lists among the reasons handles are heavy).
    """

    name: str
    class_id: int
    attributes: list[AttributeDef]
    superclass: "ClassDef | None" = None
    schema_version: int = 0

    def __post_init__(self) -> None:
        #: name -> attribute, inherited ones included.  A class version
        #: never changes once built (``Schema.evolve`` makes a new
        #: ``ClassDef``), so lookups by name resolve here, once.
        self._by_name: dict[str, AttributeDef] = {}
        for attr in self.all_attributes():
            if attr.name in self._by_name:
                raise SchemaError(
                    f"class {self.name!r}: duplicate attribute {attr.name!r}"
                )
            self._by_name[attr.name] = attr

    def all_attributes(self) -> list[AttributeDef]:
        """Inherited attributes first, then own (stable storage layout)."""
        inherited = self.superclass.all_attributes() if self.superclass else []
        return inherited + self.attributes

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"class {self.name!r} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def is_subclass_of(self, other: "ClassDef") -> bool:
        """Reflexive subclass test (exact-type info lives in headers)."""
        cls: ClassDef | None = self
        while cls is not None:
            if cls.class_id == other.class_id:
                return True
            cls = cls.superclass
        return False

    def scalar_attributes(self) -> list[AttributeDef]:
        return [a for a in self.all_attributes() if not a.is_variable]

    def set_attributes(self) -> list[AttributeDef]:
        return [a for a in self.all_attributes() if a.is_variable]


class Schema:
    """A named registry of classes, with dynamic class evolution."""

    def __init__(self) -> None:
        self._by_name: dict[str, ClassDef] = {}
        self._by_id: dict[int, ClassDef] = {}
        #: class_id -> every version of the class, oldest first.
        self._history: dict[int, list[ClassDef]] = {}
        self._next_id = 1
        #: Bumped by every :meth:`define` and :meth:`evolve`: a class
        #: name means one class version for as long as this stands
        #: still, so a cache keyed on (revision, name) is keyed on the
        #: class version and is never invalidated.
        self.revision = 0

    def define(
        self,
        name: str,
        attributes: list[AttributeDef],
        superclass: str | None = None,
    ) -> ClassDef:
        """Register a new class and return its definition."""
        if name in self._by_name:
            raise SchemaError(f"class {name!r} already defined")
        parent = None
        if superclass is not None:
            parent = self._by_name.get(superclass)
            if parent is None:
                raise SchemaError(f"unknown superclass {superclass!r}")
        cls = ClassDef(name, self._next_id, attributes, parent)
        self._next_id += 1
        self._by_name[name] = cls
        self._by_id[cls.class_id] = cls
        self._history[cls.class_id] = [cls]
        self.revision += 1
        return cls

    def evolve(self, name: str, new_attributes: list[AttributeDef]) -> ClassDef:
        """Append attributes to a class (dynamic class evolution).

        Existing records keep their old layout on disk; they decode with
        the version recorded in their header, and the new attributes
        report their declared defaults until the record is upgraded
        (:meth:`repro.objects.manager.ObjectManager.upgrade_record`).
        Only additive evolution is supported — removing or retyping
        attributes would orphan on-disk data.
        """
        current = self.cls(name)
        for attr in new_attributes:
            if current.has_attribute(attr.name):
                raise SchemaError(
                    f"class {name!r} already has attribute {attr.name!r}"
                )
            if attr.is_variable:
                raise SchemaError(
                    "evolution can only add scalar attributes (set "
                    "attributes would reshuffle the variable section of "
                    "existing records)"
                )
        evolved = ClassDef(
            name,
            current.class_id,
            current.attributes + new_attributes,
            current.superclass,
            current.schema_version + 1,
        )
        self._by_name[name] = evolved
        self._by_id[current.class_id] = evolved
        self._history[current.class_id].append(evolved)
        self.revision += 1
        return evolved

    def class_version(self, class_id: int, version: int) -> ClassDef:
        """The definition of ``class_id`` as of ``version``."""
        history = self._history.get(class_id)
        if history is None:
            raise SchemaError(f"unknown class id {class_id}")
        if not 0 <= version < len(history):
            raise SchemaError(
                f"class id {class_id} has versions 0..{len(history) - 1}, "
                f"not {version}"
            )
        return history[version]

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

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
