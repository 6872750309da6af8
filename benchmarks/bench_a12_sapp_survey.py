"""A12 — §2.1: the SAPP survey.

"An instance of a structure I has the single access path property
(SAPP) if there exists only one canonical path to any instances in
accessible(I).  In effect, this property requires that instances form a
tree rather than a general graph.  We are measuring how often this
occurs in Lisp programs."

Regenerated artifact: that measurement, over the heap shapes Lisp
programs actually build — fresh lists, nested trees, copy/filter
outputs (including Curare's own DPS output), the classic shared-tail
idiom (`append` reusing its last argument), association lists with
shared values, cycles, and doubly-linked chains with and without the
canonicalization declaration.
"""

from repro.harness.report import format_table, shape_check
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.paths.canonical import Canonicalizer, InversePair
from repro.paths.sapp import check_sapp
from repro.transform.pipeline import Curare

CASES = [
    # (label, setup text, root var, canonicalizer?, expected SAPP)
    ("fresh list", "(setq r (list 1 2 3 4 5))", None, True),
    ("nested tree", "(setq r (list 1 (list 2 (list 3)) 4))", None, True),
    ("copy-list output", "(setq r (copy-list (list 1 2 3)))", None, True),
    (
        "shared tail (append idiom)",
        "(setq tail (list 8 9)) (setq r (cons (append (list 1) tail) tail))",
        None,
        False,
    ),
    (
        "alist with shared value",
        "(setq v (list 'shared)) "
        "(setq r (list (cons 'a v) (cons 'b v)))",
        None,
        False,
    ),
    ("cycle", "(setq r (list 1 2)) (setf (cddr r) r)", None, False),
    (
        "doubly-linked, undeclared",
        """(defstruct dn succ pred)
           (setq a (make-dn nil nil)) (setq b (make-dn nil a))
           (setf (dn-succ a) b) (setq r a)""",
        None,
        False,
    ),
    (
        "doubly-linked, (inverse-fields dn succ pred)",
        """(defstruct dn succ pred)
           (setq a (make-dn nil nil)) (setq b (make-dn nil a))
           (setf (dn-succ a) b) (setq r a)""",
        Canonicalizer([InversePair("succ", "pred")]),
        True,
    ),
]


def dps_output_case():
    """Curare's own DPS output must be a tree (the §5 provenance claim
    holds on the actual heap, not just in the analysis)."""
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(
        """(defun remq (obj lst)
             (cond ((null lst) nil)
                   ((eq obj (car lst)) (remq obj (cdr lst)))
                   (t (cons (car lst) (remq obj (cdr lst))))))"""
    )
    curare.transform("remq")
    out = curare.runner.eval_text("(remq-cc 1 (list 1 2 1 3 1 4))")
    return check_sapp(out).holds


def measure():
    rows = []
    hold_count = 0
    for label, setup, canon, expected in CASES:
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(setup)
        root = interp.globals.lookup("r")
        result = check_sapp(root, canon) if canon else check_sapp(root)
        rows.append((label, result.holds, expected, result.node_count))
        hold_count += bool(result.holds)
    dps_ok = dps_output_case()
    rows.append(("Curare DPS output (remq-cc)", dps_ok, True, "-"))
    hold_count += bool(dps_ok)
    return rows, hold_count


def test_a12_sapp_survey(benchmark, record_table):
    rows, hold_count = benchmark(measure)
    table = format_table(
        ["heap shape", "SAPP holds", "expected", "nodes"], rows
    )
    all_match = all(got == exp for _, got, exp, _ in rows)
    checks = [
        shape_check("every shape classified as expected", all_match),
        shape_check(
            f"{hold_count}/{len(rows)} shapes satisfy the SAPP — fresh "
            "builders do, sharing idioms don't (the paper's motivation "
            "for measuring)",
            0 < hold_count < len(rows),
        ),
        shape_check(
            "canonicalization is exactly what rescues doubly-linked chains",
            rows[6][1] is False and rows[7][1] is True,
        ),
    ]
    record_table("a12_sapp_survey", table + "\n" + "\n".join(checks))
    assert all_match
