"""The Lisp prelude: convenience macros defined *in* the mini-Lisp.

Loaded into every interpreter at construction.  Everything here expands
to core forms before analysis (``macroexpand_all``), so the IR and the
conflict detector never see these names.

The §2 escape hatches ``set``/``symbol-value``/``eval`` are ordinary
builtins (:func:`repro.lisp.builtins.builtin_table`).
"""

from __future__ import annotations

from typing import Any

PRELUDE = """
(defmacro incf (place &rest delta)
  `(setf ,place (+ ,place ,(if delta (car delta) 1))))

(defmacro decf (place &rest delta)
  `(setf ,place (- ,place ,(if delta (car delta) 1))))

(defmacro push (item place)
  `(setf ,place (cons ,item ,place)))

(defmacro pop (place)
  `(let ((#:head (car ,place)))
     (setf ,place (cdr ,place))
     #:head))

(defmacro dotimes (spec &rest body)
  `(let ((,(car spec) 0))
     (while (< ,(car spec) ,(cadr spec))
       ,@body
       (setq ,(car spec) (1+ ,(car spec))))
     ,(if (cddr spec) (caddr spec) nil)))

(defmacro second (l) `(cadr ,l))
(defmacro third (l) `(caddr ,l))
(defmacro first (l) `(car ,l))
(defmacro rest (l) `(cdr ,l))
"""


def _read_prelude(symbols: Any) -> list:
    """The prelude's forms read against ``symbols``.

    Built once per symbol table (``symbols.derived``), like the builtin
    table: re-reading the text would dominate ``Interpreter``
    construction.  The parsed forms are pure data the evaluator never
    mutates — defmacro stores only the lambda list and body, and macro
    expansion builds fresh result cells — so one parse can serve every
    interpreter that shares the table.
    """
    from repro.sexpr.reader import Reader

    return Reader(symbols).read_all(PRELUDE)


def install_prelude(interp: Any) -> None:
    """Evaluate the prelude macros into ``interp``."""
    # Macros: drain the definition effects directly (defmacro only ticks).
    from repro.lisp.interpreter import _drain

    for form in interp.symbols.derived(_read_prelude):
        _drain(interp.eval_gen(form, interp.globals))
