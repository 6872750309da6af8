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
    out: list[str] = []
    _write(obj, out, max_depth, max_length, set(), names)
    return "".join(out)


def _write(obj: Any, out: list[str], depth: int, length: int,
           on_path: set[int], names: Names = None) -> None:
    obj = _unwrap_future(obj)
    if not isinstance(obj, Cons):
        if names is not None and isinstance(obj, Symbol):
            out.append(names[obj.name])
        else:
            out.append(_atom_str(obj))
        return
    if depth <= 0 or id(obj) in on_path:
        out.append("...")
        return
    # Quote family abbreviation: (quote x) -> 'x
    if (
        isinstance(obj.car, Symbol)
        and obj.car.name in _QUOTE_ABBREV
        and isinstance(obj.cdr, Cons)
        and obj.cdr.cdr is None
    ):
        out.append(_QUOTE_ABBREV[obj.car.name])
        _write(obj.cdr.car, out, depth - 1, length, on_path, names)
        return
    on_path.add(id(obj))
    out.append("(")
    node: Any = obj
    count = 0
    first = True
    while isinstance(node, Cons):
        if count >= length or (id(node) in on_path and node is not obj):
            out.append(" ...")
            node = None
            break
        if not first:
            out.append(" ")
        _write(node.car, out, depth - 1, length, on_path, names)
        first = False
        count += 1
        node = _unwrap_future(node.cdr)
    if node is not None:
        out.append(" . ")
        _write(node, out, depth - 1, length, on_path, names)
    out.append(")")
    on_path.discard(id(obj))


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
    flat = write_str(obj, names=names)
    if len(flat) + indent <= _PRETTY_WIDTH or not isinstance(obj, Cons):
        return flat

    head = obj.car
    items: list[Any] = []
    node: Any = obj
    while isinstance(node, Cons):
        items.append(node.car)
        node = node.cdr
    if node is not None:
        return flat  # dotted lists never need pretty bodies

    if isinstance(head, Symbol) and head.name in _BODY_FORMS:
        keep = _BODY_FORMS[head.name] + 1
        head_parts = [write_str(x, names=names) for x in items[:keep]]
        head_line = "(" + " ".join(head_parts)
        body_indent = indent + 2
        lines = [head_line]
        for sub in items[keep:]:
            lines.append(" " * body_indent
                         + pretty_str(sub, body_indent, names))
        return "\n".join(lines) + ")"

    # Generic call: align arguments under the first argument.
    head_txt = write_str(items[0], names=names) if items else ""
    arg_indent = indent + len(head_txt) + 2
    if items[1:]:
        parts = [pretty_str(items[1], arg_indent, names)]
        for sub in items[2:]:
            parts.append(" " * arg_indent
                         + pretty_str(sub, arg_indent, names))
        return "(" + head_txt + " " + "\n".join(parts) + ")"
    return "(" + head_txt + ")"


__all__ = ["write_str", "pretty_str"]
