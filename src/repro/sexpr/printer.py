"""Printer: datum back to S-expression text.

``write_str`` produces machine-readable output (read/print round-trips
for acyclic data); ``pretty_str`` adds indentation for ``defun``-like
forms so transformed programs are human-readable — the paper stresses
that Curare's output is a feedback channel for the programmer (§6).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.sexpr.datum import Cons, Symbol

#: Symbol name -> the name to print for it (``names=`` below).
Names = Optional[Mapping[str, str]]

_QUOTE_ABBREV = {
    "quote": "'",
    "quasiquote": "`",
    "unquote": ",",
    "unquote-splicing": ",@",
    "function": "#'",
}


def _unwrap_future(obj: Any) -> Any:
    """Resolved futures print as their values (Multilisp transparency).

    Duck-typed to keep the sexpr layer below the lisp layer.
    """
    seen = 0
    while (
        getattr(obj, "resolved", False) is True
        and hasattr(obj, "future_id")
        and seen < 100
    ):
        obj = obj.value
        seen += 1
    return obj


def _atom_str(obj: Any) -> str:
    if obj is None:
        return "nil"
    if obj is True:
        return "t"
    if obj is False:
        # The mini-Lisp has no distinct false; print as nil for fidelity.
        return "nil"
    if isinstance(obj, Symbol):
        return obj.name
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, int):
        return str(obj)
    # Structures, closures, futures, etc. print via their own repr.
    return repr(obj)


def write_str(obj: Any, max_depth: int = 200, max_length: int = 10_000,
              names: Names = None) -> str:
    """Render ``obj`` as S-expression text.

    ``max_depth``/``max_length`` guard against cyclic structure; when a
    bound is hit the output contains ``...`` (and is then not readable,
    by design).  ``names``, if given, maps each symbol's name to the
    name printed for it.
    """
    return _write(obj, max_depth, max_length, set(), names, None)


#: Key set in a ``_write`` text record when a guard fired.
_GUARDED = None


def _write(obj: Any, depth: int, length: int, on_path: set[int],
           names: Names, texts: Optional[dict]) -> str:
    """The text of ``obj``.  ``texts``, if given, gets the text of every
    cons written, keyed by ``id``, and ``_GUARDED`` if a depth, length
    or cycle guard fired (those texts then depend on where the write
    began)."""
    if obj.__class__ is not Cons:
        obj = _unwrap_future(obj)
        if not isinstance(obj, Cons):
            if names is not None and isinstance(obj, Symbol):
                return names[obj.name]
            return _atom_str(obj)
    if depth <= 0 or id(obj) in on_path:
        if texts is not None:
            texts[_GUARDED] = True
        return "..."
    car = obj.car
    cdr = obj.cdr
    # Quote family abbreviation: (quote x) -> 'x
    if (
        isinstance(car, Symbol)
        and car.name in _QUOTE_ABBREV
        and isinstance(cdr, Cons)
        and cdr.cdr is None
    ):
        text = _QUOTE_ABBREV[car.name] + _write(
            cdr.car, depth - 1, length, on_path, names, texts)
    else:
        on_path.add(id(obj))
        parts: list[str] = []
        tail = ""
        node: Any = obj
        count = 0
        while isinstance(node, Cons):
            if count >= length or (id(node) in on_path and node is not obj):
                if texts is not None:
                    texts[_GUARDED] = True
                tail = " ..."
                node = None
                break
            car = node.car
            if car.__class__ is Symbol:  # the common atom, inline
                parts.append(car.name if names is None else names[car.name])
            else:
                parts.append(_write(car, depth - 1, length, on_path, names,
                                    texts))
            count += 1
            cdr = node.cdr
            node = cdr if cdr is None or cdr.__class__ is Cons \
                else _unwrap_future(cdr)
        if node is not None:
            tail = " . " + _write(node, depth - 1, length, on_path, names,
                                  texts)
        on_path.discard(id(obj))
        text = "(" + " ".join(parts) + tail + ")"
    if texts is not None:
        texts[id(obj)] = text
    return text


# --- pretty printing ---------------------------------------------------

# Forms whose first N subforms stay on the head line, with the rest
# indented as a body.
_BODY_FORMS = {
    "defun": 2,
    "defmacro": 2,
    "lambda": 1,
    "let": 1,
    "let*": 1,
    "when": 1,
    "unless": 1,
    "while": 1,
    "dolist": 1,
    "progn": 0,
    "cond": 0,
    "locking": 1,
}

_PRETTY_WIDTH = 78


def pretty_str(obj: Any, indent: int = 0, names: Names = None) -> str:
    """Render ``obj`` with indentation suitable for program text
    (``names`` as in :func:`write_str`)."""
    return _pretty(obj, indent, names, {}, set())


def _flat(obj: Any, names: Names, texts: dict) -> str:
    """``write_str(obj, names=names)``, written once per pretty-print.

    One write records the text of every cons under ``obj`` in
    ``texts``, so the subforms the pretty printer descends into are
    looked up, not re-written.  A write in which a guard fired is not
    recorded: a subform's text there depends on the enclosing write.
    """
    if obj.__class__ is not Cons:
        return _write(obj, 200, 10_000, set(), names, None)
    text = texts.get(id(obj))
    if text is None:
        written: dict = {}
        text = _write(obj, 200, 10_000, set(), names, written)
        if _GUARDED not in written:
            texts.update(written)
    return text


def _cdr_cycle(node: Any) -> bool:
    """Whether the cdr chain from ``node`` revisits a cons."""
    seen: set[int] = set()
    while isinstance(node, Cons):
        if id(node) in seen:
            return True
        seen.add(id(node))
        node = node.cdr
    return False


def _pretty(obj: Any, indent: int, names: Names, texts: dict,
            path: set[int]) -> str:
    """``obj`` broken over lines at ``indent``; ``path`` holds the ids of
    the lists being broken around it."""
    flat = _flat(obj, names, texts)
    if len(flat) + indent <= _PRETTY_WIDTH or not isinstance(obj, Cons):
        return flat
    if id(obj) not in texts and (id(obj) in path or _cdr_cycle(obj)):
        # A guard fired writing obj (``texts`` keeps no such write), and
        # it is a list inside itself or on a cdr cycle: print it flat,
        # like write_str.
        return flat

    head = obj.car
    items: list[Any] = []
    node: Any = obj
    while isinstance(node, Cons):
        items.append(node.car)
        node = node.cdr
    if node is not None:
        return flat  # dotted lists never need pretty bodies

    path.add(id(obj))
    if isinstance(head, Symbol) and head.name in _BODY_FORMS:
        keep = _BODY_FORMS[head.name] + 1
        head_parts = [_flat(x, names, texts) for x in items[:keep]]
        head_line = "(" + " ".join(head_parts)
        body_indent = indent + 2
        lines = [head_line]
        for sub in items[keep:]:
            lines.append(" " * body_indent
                         + _pretty(sub, body_indent, names, texts, path))
        text = "\n".join(lines) + ")"
    elif items[1:]:
        # Generic call: align arguments under the first argument.
        head_txt = _flat(head, names, texts)
        arg_indent = indent + len(head_txt) + 2
        parts = [_pretty(items[1], arg_indent, names, texts, path)]
        for sub in items[2:]:
            parts.append(" " * arg_indent
                         + _pretty(sub, arg_indent, names, texts, path))
        text = "(" + head_txt + " " + "\n".join(parts) + ")"
    else:
        text = "(" + _flat(head, names, texts) + ")"
    path.discard(id(obj))
    return text


__all__ = ["write_str", "pretty_str"]
