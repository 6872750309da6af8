"""S-expression reader (parser).

Turns text into the datum model of :mod:`repro.sexpr.datum`:

* ``(a b c)``  → chain of :class:`Cons`
* ``(a . b)``  → dotted pair
* ``'x``       → ``(quote x)``
* ``` `x ``    → ``(quasiquote x)`` and ``,``/``,@`` accordingly
* ``#'f``      → ``(function f)``
* numbers      → Python ``int``/``float``
* ``t``/``nil``→ ``True`` / ``None``
* ``"s"``      → Python ``str``

Symbols are case-insensitive and canonicalized to lower case, as in
traditional Lisp readers.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sexpr.datum import Cons, Symbol, SymbolTable, DEFAULT_SYMBOLS
from repro.sexpr.tokens import Token, TokenKind, TokenizeError, tokenize


class ReadError(Exception):
    """Raised on structurally malformed input."""

    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} at line {token.line}, column {token.col}"
        super().__init__(message)
        self.token = token


_NUMBER_LEAD = frozenset("0123456789+-.")

_ATOM = TokenKind.ATOM
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_STRING = TokenKind.STRING
_DOT = TokenKind.DOT
_EOF = TokenKind.EOF


def _parse_number(text: str) -> Optional[Any]:
    """Parse ``text`` as an int or float, or return None if not numeric."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


class Reader:
    """A reusable reader bound to a symbol table."""

    def __init__(self, symbols: SymbolTable | None = None):
        self.symbols = symbols if symbols is not None else DEFAULT_SYMBOLS

    # Reader-macro symbol names.
    _WRAPPERS = {
        TokenKind.QUOTE: "quote",
        TokenKind.QUASIQUOTE: "quasiquote",
        TokenKind.UNQUOTE: "unquote",
        TokenKind.UNQUOTE_SPLICING: "unquote-splicing",
        TokenKind.HASH_QUOTE: "function",
    }

    def read_all(self, text: str) -> list[Any]:
        """Read every form in ``text`` and return them as a Python list."""
        tokens = tokenize(text)
        pos = 0
        forms: list[Any] = []
        while tokens[pos].kind is not TokenKind.EOF:
            form, pos = self._read_form(tokens, pos)
            forms.append(form)
        return forms

    def read(self, text: str) -> Any:
        """Read exactly one form; error if input holds zero or several."""
        forms = self.read_all(text)
        if len(forms) != 1:
            raise ReadError(f"expected exactly one form, got {len(forms)}")
        return forms[0]

    def _read_form(self, tokens: list[Token], pos: int) -> tuple[Any, int]:
        tok = tokens[pos]
        kind = tok.kind
        # Atoms are most of the tokens: test them first, by identity
        # (hashing an Enum member is a Python-level call).
        if kind is _ATOM:
            return self._read_atom(tok), pos + 1
        if kind is _LPAREN:
            return self._read_list(tokens, pos + 1, tok)
        if kind is _STRING:
            return tok.text, pos + 1
        if kind is _EOF:
            raise ReadError("unexpected end of input", tok)
        if kind is _RPAREN:
            raise ReadError("unexpected ')'", tok)
        if kind is _DOT:
            raise ReadError("'.' outside list", tok)
        # The quote family.
        inner, pos = self._read_form(tokens, pos + 1)
        wrapper = self.symbols.intern(self._WRAPPERS[kind])
        return Cons(wrapper, Cons(inner, None)), pos

    def _read_atom(self, tok: Token) -> Any:
        text = tok.text
        # The leading-character screen lets the common case, a symbol
        # name, skip the exception-based number probes.
        if text[0] in _NUMBER_LEAD:
            num = _parse_number(text)
            if num is not None:
                return num
        # Source is almost always already lower-case; skip the copy then.
        name = text if text.islower() else text.lower()
        if name == "nil":
            return None
        if name == "t":
            return True
        return self.symbols.intern(name)

    def _read_list(self, tokens: list[Token], pos: int, open_tok: Token) -> tuple[Any, int]:
        items: list[Any] = []
        append = items.append
        read_atom = self._read_atom
        tail: Any = None
        while True:
            tok = tokens[pos]
            kind = tok.kind
            if kind is _ATOM:
                append(read_atom(tok))
                pos += 1
                continue
            if kind is _LPAREN:
                form, pos = self._read_list(tokens, pos + 1, tok)
                append(form)
                continue
            if kind is _RPAREN:
                pos += 1
                break
            if kind is _EOF:
                raise ReadError("unterminated list", open_tok)
            if kind is _DOT:
                if not items:
                    raise ReadError("'.' at start of list", tok)
                tail, pos = self._read_form(tokens, pos + 1)
                closer = tokens[pos]
                if closer.kind is not _RPAREN:
                    raise ReadError("expected ')' after dotted tail", closer)
                pos += 1
                break
            form, pos = self._read_form(tokens, pos)
            append(form)
        result: Any = tail
        for item in reversed(items):
            result = Cons(item, result)
        return result, pos


_DEFAULT_READER = Reader()


def read(text: str) -> Any:
    """Read one form using the default symbol table."""
    return _DEFAULT_READER.read(text)


def read_all(text: str) -> list[Any]:
    """Read all forms using the default symbol table."""
    return _DEFAULT_READER.read_all(text)


__all__ = ["Reader", "ReadError", "read", "read_all", "TokenizeError"]
