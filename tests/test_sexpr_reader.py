"""Unit tests: tokenizer and reader."""

import pytest

from repro.sexpr.datum import Cons, Symbol, list_to_pylist
from repro.sexpr.reader import ReadError, Reader, read, read_all
from repro.sexpr.tokens import TokenKind, TokenizeError, tokenize


class TestTokenizer:
    def test_parens_and_atoms(self):
        kinds = [t.kind for t in tokenize("(a b)")]
        assert kinds == [
            TokenKind.LPAREN,
            TokenKind.ATOM,
            TokenKind.ATOM,
            TokenKind.RPAREN,
            TokenKind.EOF,
        ]

    def test_line_comment_skipped(self):
        tokens = [t for t in tokenize("a ; comment\nb") if t.kind is TokenKind.ATOM]
        assert [t.text for t in tokens] == ["a", "b"]

    def test_block_comment_nests(self):
        tokens = [t for t in tokenize("a #| x #| y |# z |# b") if t.kind is TokenKind.ATOM]
        assert [t.text for t in tokens] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(TokenizeError):
            list(tokenize("#| open"))

    def test_string_with_escapes(self):
        tok = next(t for t in tokenize('"a\\nb\\"c"') if t.kind is TokenKind.STRING)
        assert tok.text == 'a\nb"c'

    def test_unterminated_string(self):
        with pytest.raises(TokenizeError):
            list(tokenize('"oops'))

    def test_quote_family(self):
        kinds = [t.kind for t in tokenize("'a `b ,c ,@d #'e")]
        assert TokenKind.QUOTE in kinds
        assert TokenKind.QUASIQUOTE in kinds
        assert TokenKind.UNQUOTE in kinds
        assert TokenKind.UNQUOTE_SPLICING in kinds
        assert TokenKind.HASH_QUOTE in kinds

    def test_dot_token(self):
        kinds = [t.kind for t in tokenize("(a . b)")]
        assert TokenKind.DOT in kinds

    def test_positions_tracked(self):
        tokens = list(tokenize("a\n  b"))
        assert tokens[0].line == 1 and tokens[0].col == 1
        assert tokens[1].line == 2 and tokens[1].col == 3


class TestReader:
    def test_numbers(self):
        assert read("42") == 42
        assert read("-3") == -3
        assert read("2.5") == 2.5

    def test_nil_and_t(self):
        assert read("nil") is None
        assert read("t") is True
        assert read("NIL") is None  # case-insensitive

    def test_symbols_lowercased(self):
        sym = read("FooBar")
        assert isinstance(sym, Symbol) and sym.name == "foobar"

    def test_string(self):
        assert read('"hello"') == "hello"

    def test_simple_list(self):
        lst = read("(1 2 3)")
        assert list_to_pylist(lst) == [1, 2, 3]

    def test_nested_list(self):
        lst = read("(a (b c) d)")
        items = list_to_pylist(lst)
        assert items[0].name == "a"
        assert [s.name for s in list_to_pylist(items[1])] == ["b", "c"]

    def test_dotted_pair(self):
        pair = read("(1 . 2)")
        assert isinstance(pair, Cons) and pair.car == 1 and pair.cdr == 2

    def test_dotted_tail_list(self):
        obj = read("(1 2 . 3)")
        assert obj.car == 1 and obj.cdr.car == 2 and obj.cdr.cdr == 3

    def test_quote_expands(self):
        form = read("'x")
        items = list_to_pylist(form)
        assert items[0].name == "quote" and items[1].name == "x"

    def test_quasiquote_unquote(self):
        form = read("`(a ,b ,@c)")
        assert form.car.name == "quasiquote"

    def test_function_quote(self):
        form = read("#'car")
        items = list_to_pylist(form)
        assert items[0].name == "function" and items[1].name == "car"

    def test_empty_list_is_nil(self):
        assert read("()") is None

    def test_read_all_multiple_forms(self):
        forms = read_all("1 2 (3)")
        assert forms[0] == 1 and forms[1] == 2

    def test_read_rejects_multiple(self):
        with pytest.raises(ReadError):
            read("1 2")

    def test_unbalanced_raises(self):
        with pytest.raises(ReadError):
            read("(a b")
        with pytest.raises(ReadError):
            read(")")

    def test_dot_misuse_raises(self):
        with pytest.raises(ReadError):
            read("(. a)")
        with pytest.raises(ReadError):
            read("(a . b c)")

    def test_reader_with_own_table(self):
        from repro.sexpr.datum import SymbolTable

        table = SymbolTable()
        r = Reader(table)
        sym = r.read("zzz-unique")
        assert sym is table.intern("zzz-unique")

    def test_deeply_nested(self):
        text = "(" * 50 + "x" + ")" * 50
        form = read(text)
        for _ in range(50):
            form = form.car
        assert form.name == "x"


# --- differential: the reader against the pre-fast-path one -------------
#
# ``_oracle_tokenize`` and ``_OracleReader`` are the tokenizer and the
# reader as they were before atoms got the first branch of
# ``_read_form`` and an inline path in ``_read_list``.  Datums, tokens
# (kind, text, line, column), errors (type and message) and the order
# in which cons cells are allocated (cell ids name trace locations)
# must not move.

import math  # noqa: E402

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.sexpr.datum import DEFAULT_SYMBOLS, SymbolTable  # noqa: E402
from repro.sexpr.tokens import Token  # noqa: E402

_ORACLE_DELIMITERS = frozenset("()'`,\" \t\n\r;")
_ORACLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def _oracle_tokenize(text):
    out = []
    emit = out.append
    i = 0
    n = len(text)
    line = 1
    col = 1
    lparen = TokenKind.LPAREN
    rparen = TokenKind.RPAREN
    atom = TokenKind.ATOM

    while i < n:
        ch = text[i]
        if ch == " " or ch == "\t" or ch == "\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch == "(":
            emit(Token(lparen, "(", line, col))
            i += 1
            col += 1
            continue
        if ch == ")":
            emit(Token(rparen, ")", line, col))
            i += 1
            col += 1
            continue
        if ch == ";":
            j = text.find("\n", i)
            if j < 0:
                j = n
            col += j - i
            i = j
            continue
        if ch == "'":
            emit(Token(TokenKind.QUOTE, "'", line, col))
            i += 1
            col += 1
            continue
        if ch == "`":
            emit(Token(TokenKind.QUASIQUOTE, "`", line, col))
            i += 1
            col += 1
            continue
        if ch == ",":
            if i + 1 < n and text[i + 1] == "@":
                emit(Token(TokenKind.UNQUOTE_SPLICING, ",@", line, col))
                i += 2
                col += 2
            else:
                emit(Token(TokenKind.UNQUOTE, ",", line, col))
                i += 1
                col += 1
            continue
        if ch == "#" and i + 1 < n and text[i + 1] == "|":
            start_line, start_col = line, col
            depth = 1
            i += 2
            col += 2
            while i < n and depth > 0:
                c = text[i]
                if c == "#" and i + 1 < n and text[i + 1] == "|":
                    depth += 1
                    i += 2
                    col += 2
                elif c == "|" and i + 1 < n and text[i + 1] == "#":
                    depth -= 1
                    i += 2
                    col += 2
                elif c == "\n":
                    i += 1
                    line += 1
                    col = 1
                else:
                    i += 1
                    col += 1
            if depth > 0:
                raise TokenizeError("unterminated block comment", start_line, start_col)
            continue
        if ch == "#" and i + 1 < n and text[i + 1] == "'":
            emit(Token(TokenKind.HASH_QUOTE, "#'", line, col))
            i += 2
            col += 2
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars = []
            while i < n and text[i] != '"':
                c = text[i]
                if c == "\\":
                    i += 1
                    col += 1
                    if i >= n:
                        break
                    c = _ORACLE_ESCAPES.get(text[i], text[i])
                    chars.append(c)
                else:
                    chars.append(c)
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise TokenizeError("unterminated string", start_line, start_col)
            i += 1  # closing quote
            col += 1
            emit(Token(TokenKind.STRING, "".join(chars), start_line, start_col))
            continue
        # Atom: read to the next delimiter.  Delimiters include the
        # newline, so the run is newline-free by construction.
        start = i
        j = i + 1
        while j < n and text[j] not in _ORACLE_DELIMITERS:
            j += 1
        word = text[start:j]
        start_col = col
        col += j - i
        i = j
        if word == ".":
            emit(Token(TokenKind.DOT, ".", line, start_col))
        else:
            emit(Token(atom, word, line, start_col))

    emit(Token(TokenKind.EOF, "", line, col))
    return out


def _oracle_parse_number(text):
    if text[0] not in "0123456789+-.":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


class _OracleReader:
    _WRAPPERS = {
        TokenKind.QUOTE: "quote",
        TokenKind.QUASIQUOTE: "quasiquote",
        TokenKind.UNQUOTE: "unquote",
        TokenKind.UNQUOTE_SPLICING: "unquote-splicing",
        TokenKind.HASH_QUOTE: "function",
    }

    def __init__(self, symbols):
        self.symbols = symbols

    def read_all(self, text):
        tokens = _oracle_tokenize(text)
        pos = 0
        forms = []
        while tokens[pos].kind is not TokenKind.EOF:
            form, pos = self._read_form(tokens, pos)
            forms.append(form)
        return forms

    def _read_form(self, tokens, pos):
        tok = tokens[pos]
        kind = tok.kind
        if kind is TokenKind.EOF:
            raise ReadError("unexpected end of input", tok)
        if kind is TokenKind.LPAREN:
            return self._read_list(tokens, pos + 1, tok)
        if kind is TokenKind.RPAREN:
            raise ReadError("unexpected ')'", tok)
        if kind is TokenKind.DOT:
            raise ReadError("'.' outside list", tok)
        if kind in self._WRAPPERS:
            inner, pos = self._read_form(tokens, pos + 1)
            wrapper = self.symbols.intern(self._WRAPPERS[kind])
            return Cons(wrapper, Cons(inner, None)), pos
        if kind is TokenKind.STRING:
            return tok.text, pos + 1
        return self._read_atom(tok), pos + 1

    def _read_atom(self, tok):
        text = tok.text
        num = _oracle_parse_number(text)
        if num is not None:
            return num
        name = text if text.islower() else text.lower()
        if name == "nil":
            return None
        if name == "t":
            return True
        return self.symbols.intern(name)

    def _read_list(self, tokens, pos, open_tok):
        items = []
        tail = None
        while True:
            tok = tokens[pos]
            if tok.kind is TokenKind.EOF:
                raise ReadError("unterminated list", open_tok)
            if tok.kind is TokenKind.RPAREN:
                pos += 1
                break
            if tok.kind is TokenKind.DOT:
                if not items:
                    raise ReadError("'.' at start of list", tok)
                tail, pos = self._read_form(tokens, pos + 1)
                closer = tokens[pos]
                if closer.kind is not TokenKind.RPAREN:
                    raise ReadError("expected ')' after dotted tail", closer)
                pos += 1
                break
            form, pos = self._read_form(tokens, pos)
            items.append(form)
        result = tail
        for item in reversed(items):
            result = Cons(item, result)
        return result, pos


def _shape(obj, base):
    """``obj`` as plain data: cells carry their id relative to ``base``
    (the first id the read could allocate), symbols their identity."""
    if isinstance(obj, Cons):
        return ("cons", obj.cell_id - base, _shape(obj.car, base),
                _shape(obj.cdr, base))
    if isinstance(obj, Symbol):
        return ("sym", obj.name, id(obj))
    if isinstance(obj, float):
        return ("float", "nan" if math.isnan(obj) else repr(obj))
    return (type(obj).__name__, obj)


def _outcome(read_all, text):
    """(shape of the forms | error type and message), allocation-relative."""
    base = Cons().cell_id + 1
    try:
        forms = read_all(text)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return ("error", type(err).__name__, str(err))
    return ("forms", [_shape(form, base) for form in forms])


def _token_view(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


_PIECES = [
    "(", ")", "(", ")", " ", " ", "\n", "\t", "\r", "'", "`", ",", ",@", "#'",
    ".", " . ", "a", "foo-bar", "Mixed", "NIL", "nil", "T", "t", "42", "-7",
    "+", "-", "1e3", "-2.5", ".5", "+nan", "1.", "#", "#x", "a#b", "|",
    '"str"', '"esc\\"q"', '"multi\nline"', '"open', ";c\n", "; tail",
    "#|b|#", "#|n #|x|# m|#", "#|open", "x.y", "..",
]
_texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)
_DIFF = dict(deadline=None, max_examples=400,
             suppress_health_check=[HealthCheck.too_slow])


class TestReaderDifferential:
    @settings(**_DIFF)
    @given(_texts)
    def test_tokens_match(self, text):
        try:
            expected = ("tokens", _token_view(_oracle_tokenize(text)))
        except TokenizeError as err:
            expected = ("error", str(err), err.line, err.col)
        try:
            got = ("tokens", _token_view(tokenize(text)))
        except TokenizeError as err:
            got = ("error", str(err), err.line, err.col)
        assert got == expected

    @settings(**_DIFF)
    @given(_texts)
    def test_read_all_matches(self, text):
        table = SymbolTable()
        assert _outcome(Reader(table).read_all, text) == \
            _outcome(_OracleReader(table).read_all, text)

    @settings(**_DIFF)
    @given(st.lists(st.sampled_from([p for p in _PIECES if p not in (
        "(", ")", '"open', "#|open", ".", " . ", "..")]), max_size=30))
    def test_balanced_programs_match(self, pieces):
        # Mostly well-formed input: nest the pieces into lists.
        text = "(defun f (x) " + " ".join(
            f"({p} {q})" for p, q in zip(pieces[::2], pieces[1::2])) + ")"
        assert _outcome(read_all, text) == \
            _outcome(_OracleReader(DEFAULT_SYMBOLS).read_all, text)

    def test_program_cells_in_allocation_order(self):
        text = ("(defun f5 (l) (cond ((null l) nil) ((null (cdr l)) "
                "(f5 (cdr l))) (t (setf (cadr l) (+ (car l) (cadr l))) "
                "(f5 (cdr l))))) '(a . (b c)) `(x ,y ,@z) #'car (1 . 2)")
        got = _outcome(read_all, text)
        assert got[0] == "forms"
        assert got == _outcome(_OracleReader(DEFAULT_SYMBOLS).read_all, text)
