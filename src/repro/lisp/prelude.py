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

# Re-tokenizing and re-reading the prelude text dominates Interpreter
# construction (the a12_sapp bench case builds interpreters in a loop).
# The parsed forms are pure data the evaluator never mutates — defmacro
# stores only the lambda list and body, and macro expansion builds fresh
# result cells — so one parse can serve every interpreter that shares
# the default symbol table.
from repro.perf.cache import LRUCache

_PRELUDE_FORMS = LRUCache("lisp.prelude", maxsize=4)


def install_prelude(interp: Any) -> None:
    """Evaluate the prelude macros into ``interp``."""
    from repro.sexpr.datum import DEFAULT_SYMBOLS

    # Macros: drain the definition effects directly (defmacro only ticks).
    from repro.lisp.interpreter import _drain

    if interp.symbols is DEFAULT_SYMBOLS:
        forms = _PRELUDE_FORMS.get_or_compute(
            "prelude", lambda: interp.load(PRELUDE)
        )
    else:
        # Private symbol table: its interned symbols differ, so the
        # shared parse would leak foreign symbols into this world.
        forms = interp.load(PRELUDE)
    for form in forms:
        _drain(interp.eval_gen(form, interp.globals))
