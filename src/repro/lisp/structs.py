"""``defstruct`` machinery: memory-resident structures with named fields.

Paper §2 reasons about "a contiguous block of memory with named fields,
for example list-cells or structures produced by defstruct".  This module
provides the defstruct half.  Instances behave like cons cells for the
purposes of tracing: they have a ``cell_id``, ``get_field``/``set_field``,
and identity-based equality (Lisp ``eq``).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.lisp.errors import WrongType
from repro.sexpr.printer import write_str

_instance_ids = itertools.count(1)


class StructType:
    """Metadata for one defstruct: its name and ordered field names.

    ``pointer_fields`` is filled in from declarations (paper §6: "whether
    a structure field points to other structures") and is consumed by the
    path analysis; it defaults to *all* fields, the conservative choice.
    """

    def __init__(self, name: str, fields: tuple[str, ...]):
        self.name = name
        self.field_names = fields
        self.pointer_fields: tuple[str, ...] = fields
        #: The :include parent, when this type extends another (§2
        #: footnote 2's related group of classes).
        self.parent: "StructType | None" = None

    def __repr__(self) -> str:
        return f"<struct-type {self.name} {self.field_names}>"

    def is_subtype_of(self, other: "StructType") -> bool:
        current: "StructType | None" = self
        while current is not None:
            if current is other:
                return True
            current = current.parent
        return False

    def accessor_name(self, field: str) -> str:
        """The Lisp accessor for ``field``, e.g. ``node-next``."""
        return f"{self.name}-{field}"

    def constructor_name(self) -> str:
        return f"make-{self.name}"

    def predicate_name(self) -> str:
        return f"{self.name}-p"

    def make(self, *values: Any) -> "StructInstance":
        if len(values) > len(self.field_names):
            raise WrongType(
                f"at most {len(self.field_names)} initializers",
                values,
                self.constructor_name(),
            )
        slots = dict(zip(self.field_names, values))
        for field in self.field_names[len(values) :]:
            slots[field] = None
        return StructInstance(self, slots)


class StructInstance:
    """One structure instance; a record of named mutable slots."""

    __slots__ = ("struct_type", "slots", "cell_id")

    def __init__(self, struct_type: StructType, slots: dict[str, Any]):
        self.struct_type = struct_type
        self.slots = slots
        self.cell_id = next(_instance_ids)

    def fields(self) -> tuple[str, ...]:
        return self.struct_type.field_names

    def get_field(self, field: str) -> Any:
        try:
            return self.slots[field]
        except KeyError:
            raise WrongType(
                f"a field of {self.struct_type.name}", field, "struct access"
            ) from None

    def set_field(self, field: str, value: Any) -> None:
        if field not in self.slots:
            raise WrongType(
                f"a field of {self.struct_type.name}", field, "struct modification"
            )
        self.slots[field] = value

    def __repr__(self) -> str:
        return write_str(self)

    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other
