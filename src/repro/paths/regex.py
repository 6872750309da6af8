"""Regular expressions over the accessor alphabet.

Transfer functions (paper §2.1) are regular expressions whose symbols
are *field names*: ``cdr+`` for Figure 3's list walker,
``a1|a2|...|am`` for flow-insensitive merges of several assignments,
``A*`` (any accessor string) for "cannot be determined".

The AST is tiny — Empty, ε, symbol, concatenation, alternation, star —
with ``+`` as derived form.  A small parser reads the paper's notation:

    ``cdr+.car``     one or more cdr steps, then car
    ``(succ|pred)*`` any mix of succ/pred steps
    ``ε``            the identity transfer
    ``∅``            the empty language

Nodes are **hash-consed**: constructing a node that is structurally
equal to an existing one returns the existing object, so structural
equality collapses to pointer equality and every downstream memo key
(NFA/DFA caches, transfer-function powers, conflict tests) hashes in
near-constant time.  Interning happens in ``__new__``; the classes
stay immutable and structurally comparable.
"""

from __future__ import annotations

from repro.perf.cache import InternTable

# Hash-cons table for all regex nodes.  Keys embed child nodes, whose
# (cached) structural hash/eq make lookups cheap; once children are
# interned the comparisons are pointer tests.
_INTERN = InternTable("paths.regex.intern")


class Regex:
    """Base class.  Instances are immutable and compared structurally."""

    __slots__ = ()

    def __or__(self, other: "Regex") -> "Regex":
        return Alt(self, other)

    def then(self, other: "Regex") -> "Regex":
        return Cat(self, other)

    def star(self) -> "Regex":
        return Star(self)

    def plus(self) -> "Regex":
        return Plus(self)


class _Empty(Regex):
    """The empty language ∅."""

    __slots__ = ()

    def __new__(cls) -> "_Empty":
        # Always a true singleton (it already was one by convention via
        # the module-level ``Empty`` constant).
        found = _INTERN.get(("∅",))
        if found is not None:
            return found
        return _INTERN.put(("∅",), super().__new__(cls))

    def __repr__(self) -> str:
        return "∅"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Empty)

    def __hash__(self) -> int:
        return hash("∅")


class _Eps(Regex):
    """The empty word ε (the identity transfer function, τ_v = ∅ in the
    paper's notation for an unchanged variable)."""

    __slots__ = ()

    def __new__(cls) -> "_Eps":
        found = _INTERN.get(("ε",))
        if found is not None:
            return found
        return _INTERN.put(("ε",), super().__new__(cls))

    def __repr__(self) -> str:
        return "ε"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Eps)

    def __hash__(self) -> int:
        return hash("ε")


Empty = _Empty()
Eps = _Eps()


class Sym(Regex):
    """A single field symbol."""

    __slots__ = ("field", "_hash")

    def __new__(cls, field: str) -> "Sym":
        if not field:
            raise ValueError("empty field name")
        key = ("sym", field)
        found = _INTERN.get(key)
        if found is not None:
            return found
        return _INTERN.put(key, super().__new__(cls))

    def __init__(self, field: str):
        if not field:
            raise ValueError("empty field name")
        self.field = field

    def __repr__(self) -> str:
        return self.field

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Sym) and other.field == self.field
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("sym", self.field))
            return self._hash


class Cat(Regex):
    __slots__ = ("left", "right", "_hash")

    def __new__(cls, left: Regex, right: Regex) -> "Cat":
        key = ("cat", left, right)
        found = _INTERN.get(key)
        if found is not None:
            return found
        return _INTERN.put(key, super().__new__(cls))

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"{_paren(self.left, Alt)}.{_paren(self.right, Alt)}"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Cat)
            and (other.left, other.right) == (self.left, self.right)
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("cat", self.left, self.right))
            return self._hash


class Alt(Regex):
    __slots__ = ("left", "right", "_hash")

    def __new__(cls, left: Regex, right: Regex) -> "Alt":
        key = ("alt", left, right)
        found = _INTERN.get(key)
        if found is not None:
            return found
        return _INTERN.put(key, super().__new__(cls))

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"{self.left!r}|{self.right!r}"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Alt)
            and (other.left, other.right) == (self.left, self.right)
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("alt", self.left, self.right))
            return self._hash


class Star(Regex):
    __slots__ = ("inner", "_hash")

    def __new__(cls, inner: Regex) -> "Star":
        key = ("star", inner)
        found = _INTERN.get(key)
        if found is not None:
            return found
        return _INTERN.put(key, super().__new__(cls))

    def __init__(self, inner: Regex):
        self.inner = inner

    def __repr__(self) -> str:
        return f"{_paren(self.inner, (Alt, Cat))}*"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Star) and other.inner == self.inner
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("star", self.inner))
            return self._hash


def Plus(inner: Regex) -> Regex:
    """``a+ = a.a*`` (paper: τ = a⁺ for recursive parameters)."""
    return Cat(inner, Star(inner))


def _paren(r: Regex, kinds) -> str:
    text = repr(r)
    return f"({text})" if isinstance(r, kinds) else text


def word_regex(fields: tuple[str, ...] | list[str]) -> Regex:
    """The regex matching exactly one concrete accessor word."""
    out: Regex = Eps
    for f in fields:
        out = Cat(out, Sym(f)) if out is not Eps else Sym(f)
    return out


def alphabet(regex: Regex) -> set[str]:
    """All field symbols appearing in ``regex``."""
    out: set[str] = set()
    stack = [regex]
    while stack:
        r = stack.pop()
        if isinstance(r, Sym):
            out.add(r.field)
        elif isinstance(r, (Cat, Alt)):
            stack.append(r.left)
            stack.append(r.right)
        elif isinstance(r, Star):
            stack.append(r.inner)
    return out


# ---------------------------------------------------------------------------
# Parser for the paper's notation
# ---------------------------------------------------------------------------


class RegexSyntaxError(Exception):
    pass


def parse_regex(text: str) -> Regex:
    """Parse accessor-regex notation.

    Grammar::

        alt    := cat ('|' cat)*
        cat    := post ('.' post)*      (adjacent postfix also concatenates)
        post   := atom ('*' | '+')*
        atom   := FIELD | 'ε' | '∅' | '(' alt ')'

    Field names are ``[a-zA-Z0-9_-]+``.
    """
    parser = _Parser(text)
    result = parser.parse_alt()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise RegexSyntaxError(f"trailing input at {parser.pos}: {text[parser.pos:]!r}")
    return result


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_alt(self) -> Regex:
        left = self.parse_cat()
        while self.peek() == "|":
            self.pos += 1
            right = self.parse_cat()
            left = Alt(left, right)
        return left

    def parse_cat(self) -> Regex:
        parts = [self.parse_post()]
        while True:
            ch = self.peek()
            if ch == ".":
                self.pos += 1
                parts.append(self.parse_post())
            elif ch == "(" or _is_field_char(ch) or ch in ("ε", "∅"):
                parts.append(self.parse_post())
            else:
                break
        out = parts[0]
        for p in parts[1:]:
            out = Cat(out, p)
        return out

    def parse_post(self) -> Regex:
        atom = self.parse_atom()
        while self.peek() in ("*", "+"):
            ch = self.text[self.pos]
            self.pos += 1
            atom = Star(atom) if ch == "*" else Plus(atom)
        return atom

    def parse_atom(self) -> Regex:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_alt()
            if self.peek() != ")":
                raise RegexSyntaxError(f"expected ')' at {self.pos}")
            self.pos += 1
            return inner
        if ch == "ε":
            self.pos += 1
            return Eps
        if ch == "∅":
            self.pos += 1
            return Empty
        if _is_field_char(ch):
            start = self.pos
            while self.pos < len(self.text) and _is_field_char(self.text[self.pos]):
                self.pos += 1
            return Sym(self.text[start : self.pos])
        raise RegexSyntaxError(f"unexpected character {ch!r} at {self.pos}")


def _is_field_char(ch: str) -> bool:
    return bool(ch) and (ch.isalnum() or ch in "_-")
