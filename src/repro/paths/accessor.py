"""Accessor words.

An accessor is an ordered word of field names, applied left to right:
``Accessor(('cdr', 'car'))`` applied to ``l`` yields ``l.cdr.car`` —
Lisp ``(cadr l)``.  The paper writes these ``cdr.car``.

Accessors are immutable and hashable; conflict detection is string
algebra over them.

Like the path regexes, accessors are hash-consed: structurally-equal
words share one canonical object, so the analysis memo tables key on
(near) pointer identity.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.perf.cache import InternTable

_INTERN = InternTable("paths.accessor.intern")


class Accessor:
    """An immutable word over the field alphabet."""

    __slots__ = ("fields", "_hash")

    def __new__(cls, fields: tuple[str, ...] = ()) -> "Accessor":
        if not isinstance(fields, tuple):
            fields = tuple(fields)
        found = _INTERN.get(fields)
        if found is not None:
            return found
        for f in fields:
            if not isinstance(f, str) or not f:
                # Leave the table unpolluted; __init__ raises the error.
                return super().__new__(cls)
        return _INTERN.put(fields, super().__new__(cls))

    def __init__(self, fields: tuple[str, ...] = ()):
        if not isinstance(fields, tuple):
            fields = tuple(fields)
        for f in fields:
            if not isinstance(f, str) or not f:
                raise TypeError(f"accessor field must be a non-empty string, got {f!r}")
        self.fields = fields

    # -- algebra -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self.fields)

    def __getitem__(self, index) -> Any:
        result = self.fields[index]
        if isinstance(index, slice):
            return Accessor(result)
        return result

    def compose(self, other: "Accessor") -> "Accessor":
        """``self`` then ``other``: (self ∘ then other) applied in order."""
        return Accessor(self.fields + other.fields)

    def __add__(self, other: "Accessor") -> "Accessor":
        return self.compose(other)

    def is_prefix_of(self, other: "Accessor") -> bool:
        """The paper's ≤ operator restricted to concrete words."""
        return (
            len(self.fields) <= len(other.fields)
            and other.fields[: len(self.fields)] == self.fields
        )

    def suffix_after(self, prefix: "Accessor") -> "Accessor":
        if not prefix.is_prefix_of(self):
            raise ValueError(f"{prefix} is not a prefix of {self}")
        return Accessor(self.fields[len(prefix.fields) :])

    def prefixes(self) -> Iterator["Accessor"]:
        """All prefixes including ε and the word itself."""
        for i in range(len(self.fields) + 1):
            yield Accessor(self.fields[:i])

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Accessor) and other.fields == self.fields
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.fields)
            return self._hash

    def __repr__(self) -> str:
        return f"Accessor({self})"

    def __str__(self) -> str:
        return ".".join(self.fields) if self.fields else "ε"


EMPTY = Accessor(())


def parse_accessor(text: str) -> Accessor:
    """Parse ``"cdr.car"`` (paper notation).  ``""`` or ``"ε"`` is empty."""
    text = text.strip()
    if not text or text == "ε":
        return EMPTY
    return Accessor(tuple(part.strip() for part in text.split(".")))
