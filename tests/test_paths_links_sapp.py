"""Unit tests: accessors, heap links/paths, canonicalization, SAPP."""

import pytest

from repro.paths.accessor import Accessor, parse_accessor
from repro.paths.canonical import Canonicalizer, InversePair
from repro.paths.links import Link, Path, accessible, accessible_objects, links_from
from repro.paths.sapp import check_sapp, is_proper_tree
from repro.sexpr.datum import cons, lisp_list


class TestAccessor:
    def test_parse_and_str(self):
        a = parse_accessor("cdr.car")
        assert a.fields == ("cdr", "car")
        assert str(a) == "cdr.car"
        assert str(Accessor(())) == "ε"

    def test_compose(self):
        a = parse_accessor("cdr") + parse_accessor("car")
        assert a == parse_accessor("cdr.car")

    def test_prefix(self):
        assert parse_accessor("cdr").is_prefix_of(parse_accessor("cdr.car"))
        assert not parse_accessor("car").is_prefix_of(parse_accessor("cdr.car"))
        assert Accessor(()).is_prefix_of(parse_accessor("x"))

    def test_suffix_after(self):
        a = parse_accessor("cdr.cdr.car")
        assert a.suffix_after(parse_accessor("cdr")) == parse_accessor("cdr.car")
        with pytest.raises(ValueError):
            a.suffix_after(parse_accessor("car"))

    def test_prefixes(self):
        a = parse_accessor("a.b")
        assert list(a.prefixes()) == [
            Accessor(()),
            parse_accessor("a"),
            parse_accessor("a.b"),
        ]

    def test_slicing(self):
        a = parse_accessor("a.b.c")
        assert a[1] == "b"
        assert a[1:] == parse_accessor("b.c")

    def test_hashable(self):
        assert len({parse_accessor("a"), parse_accessor("a")}) == 1

    def test_bad_field_type(self):
        with pytest.raises(TypeError):
            Accessor((1,))  # type: ignore[arg-type]


class TestLinksAndPaths:
    def test_links_from_cons(self):
        inner = cons(1, None)
        outer = cons(inner, None)
        links = links_from(outer)
        assert len(links) == 1
        assert links[0].field == "car" and links[0].target is inner

    def test_link_requires_heap_source(self):
        with pytest.raises(TypeError):
            Link(5, "car", None)

    def test_path_validation(self):
        a = cons(None, None)
        b = cons(None, None)
        a.car = b
        link = Link(a, "car", b)
        path = Path([link])
        assert path.source is a and path.destination is b
        assert path.accessor() == parse_accessor("car")

    def test_broken_path_rejected(self):
        a, b, c = cons(None, None), cons(None, None), cons(None, None)
        a.car = b
        with pytest.raises(ValueError):
            Path([Link(a, "car", b), Link(c, "car", a)])

    def test_path_extend(self):
        a = cons(None, None)
        b = cons(None, None)
        c = cons(None, None)
        a.car, b.cdr = b, c
        p = Path([Link(a, "car", b)]).extend(Link(b, "cdr", c))
        assert p.accessor() == parse_accessor("car.cdr")

    def test_accessible_of_nil(self):
        assert accessible(None) == set()
        assert accessible(42) == set()

    def test_accessible_counts_nodes(self):
        lst = lisp_list(1, 2, 3)  # 3 cons cells
        assert len(accessible(lst)) == 3

    def test_accessible_handles_cycles(self):
        c = cons(1, None)
        c.cdr = c
        assert len(accessible(c)) == 1

    def test_accessible_objects_order_contains_root(self):
        lst = lisp_list(1, 2)
        objs = accessible_objects(lst)
        assert objs[0] is lst


class TestCanonicalizer:
    def test_identity_canonicalizer(self):
        c = Canonicalizer()
        a = parse_accessor("succ.pred")
        assert c.canonicalize(a) == a
        assert c.is_identity()

    def test_inverse_cancellation(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        assert c.canonicalize(parse_accessor("succ.pred")) == Accessor(())
        assert c.canonicalize(parse_accessor("pred.succ")) == Accessor(())

    def test_nested_cancellation(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        # succ.succ.pred.pred cancels fully (stack algorithm).
        assert c.canonicalize(parse_accessor("succ.succ.pred.pred")) == Accessor(())

    def test_partial_cancellation(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        assert c.canonicalize(parse_accessor("car.succ.pred.cdr")) == parse_accessor(
            "car.cdr"
        )

    def test_no_cancellation_same_field(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        assert c.canonicalize(parse_accessor("succ.succ")) == parse_accessor(
            "succ.succ"
        )

    def test_equivalent(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        assert c.equivalent(parse_accessor("succ.pred.car"), parse_accessor("car"))

    def test_is_canonical(self):
        c = Canonicalizer([InversePair("succ", "pred")])
        assert c.is_canonical(parse_accessor("succ.succ"))
        assert not c.is_canonical(parse_accessor("succ.pred"))


class TestSAPP:
    def test_nil_has_sapp(self):
        assert check_sapp(None).holds

    def test_proper_list_has_sapp(self):
        assert check_sapp(lisp_list(1, 2, 3)).holds

    def test_tree_has_sapp(self):
        tree = cons(cons(1, 2), cons(3, 4))
        # Integers are not heap nodes; the three cells form a tree.
        result = check_sapp(tree)
        assert result.holds and result.node_count == 3

    def test_shared_substructure_violates(self):
        shared = lisp_list(1)
        bad = cons(shared, shared)
        result = check_sapp(bad)
        assert not result.holds
        assert result.violation is not None
        assert {str(result.violation.path_a), str(result.violation.path_b)} == {
            "car",
            "cdr",
        }

    def test_cycle_violates(self):
        c = cons(1, None)
        c.cdr = c
        assert not check_sapp(c).holds

    def test_deep_shared_violation_found(self):
        shared = cons(9, None)
        left = cons(shared, None)
        right = cons(shared, None)
        root = cons(left, right)
        assert not check_sapp(root).holds

    def test_doubly_linked_needs_canonicalization(self, runner, interp):
        runner.eval_text(
            """
            (defstruct dn succ pred)
            (setq d1 (make-dn nil nil))
            (setq d2 (make-dn nil nil))
            (setf (dn-succ d1) d2)
            (setf (dn-pred d2) d1)
            """
        )
        d1 = interp.globals.lookup("d1")
        assert not check_sapp(d1).holds
        canon = Canonicalizer([InversePair("succ", "pred")])
        assert check_sapp(d1, canon).holds

    def test_doubly_linked_chain_of_five(self, runner, interp):
        runner.eval_text(
            """
            (defstruct dn succ pred val)
            (setq head (make-dn nil nil 0))
            (setq cur head)
            (setq i 1)
            (while (< i 5)
              (let ((nxt (make-dn nil cur i)))
                (setf (dn-succ cur) nxt)
                (setq cur nxt))
              (setq i (1+ i)))
            """
        )
        head = interp.globals.lookup("head")
        canon = Canonicalizer([InversePair("succ", "pred")])
        result = check_sapp(head, canon)
        assert result.holds and result.node_count == 5

    def test_is_proper_tree_helper(self):
        assert is_proper_tree(lisp_list(1, 2))
        shared = cons(1, None)
        assert not is_proper_tree(cons(shared, shared))

    def test_pointer_fields_respected(self, runner, interp):
        # A struct whose 'data' field shares structure is still SAPP if
        # 'data' is declared a non-pointer field.
        runner.eval_text(
            """
            (defstruct nd next data)
            (setq shared (list 1))
            (setq a (make-nd nil shared))
            (setq b (make-nd a shared))
            """
        )
        b = interp.globals.lookup("b")
        assert not check_sapp(b).holds  # both fields traversed by default
        interp.structs["nd"].pointer_fields = ("next",)
        assert check_sapp(b).holds
