"""The stable ``repro.api`` facade: results, options, typed errors,
and the determinism contract (identical inputs → identical JSON modulo
the ``"wall"`` section)."""

from __future__ import annotations

import itertools
import json

import pytest

from repro import api
from repro.sexpr.datum import DEFAULT_SYMBOLS

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""

PLAIN = "(defun g (x) (* x 2))"

#: A strict self-call under a reorderable +: converted to iteration,
#: whose output is dense with gensyms.
STRICT = """
(declaim (reorderable +))
(defun weigh (n) n)
(defun strict-sum (weighted-items)
  (if (null weighted-items) 0
      (+ (progn (weigh 3) (* 7 (car weighted-items)))
         (strict-sum (cdr weighted-items)))))
"""


class TestAnalyze:
    def test_fig5_is_transformable(self):
        result = api.analyze(FIG5, "f5")
        assert result.transformable is True
        assert "distance 1" in result.text
        assert result.wall_ms > 0

    def test_decls_prepended(self):
        undeclared = FIG5.replace("(declaim (sapp f5 l))\n", "")
        bare = api.analyze(undeclared, "f5")
        declared = api.analyze(undeclared, "f5",
                               decls=("(declaim (sapp f5 l))",))
        assert "needs (declaim (sapp" in bare.text
        assert "needs (declaim (sapp" not in declared.text

    def test_unknown_function_is_engine_error(self):
        with pytest.raises(api.EngineError):
            api.analyze(FIG5, "missing")

    def test_unloadable_source_is_engine_error(self):
        with pytest.raises(api.EngineError) as info:
            api.analyze("(defun", "f")
        assert info.value.code == "engine_error"


class TestTransform:
    def test_fig5_transforms(self):
        result = api.transform(FIG5, "f5")
        assert result.transformed is True
        assert result.transformed_name == "f5-cc"
        assert result.functions == ("f5-cc",)
        assert any("(defun f5-cc" in form
                   for group in result.forms for form in group)

    def test_refusal_is_reported_not_raised(self):
        result = api.transform(PLAIN, "g")
        assert result.transformed is False
        assert result.forms == ()
        assert "NOT transformed" in result.report_text

    def test_whole_program(self):
        source = """
        (defun a (l) (when l (setf (car l) 0) (a (cdr l))))
        (defun main (l) (a l))
        """
        result = api.transform(
            source, "a",
            api.TransformOptions(whole_program=True, assume_sapp=True))
        assert result.transformed is True
        assert "a-cc" in result.functions


class TestRun:
    def test_transform_and_run(self):
        result = api.run(
            FIG5, "(progn (f5-cc data) (identity data))",
            api.RunOptions(processors=4, transform=("f5",)))
        assert result.value == "(1 3 6 10)"
        assert result.transformed == ("f5-cc",)
        assert result.total_time > 0
        assert result.mean_concurrency > 0

    def test_refused_prerequisite_raises_typed(self):
        with pytest.raises(api.TransformRefused) as info:
            api.run(PLAIN, "(g 1)", api.RunOptions(transform=("g",)))
        assert info.value.code == "transform_refused"
        assert "could not transform g" in str(info.value)

    def test_unknown_fault_plan_is_bad_request(self):
        with pytest.raises(api.BadRequest, match="unknown fault plan"):
            api.run(FIG5, "(+ 1 2)", api.RunOptions(faults="nope"))

    def test_faults_and_races_reported(self):
        result = api.run(
            FIG5, "(progn (f5-cc data) (identity data))",
            api.RunOptions(transform=("f5",), seed=3, faults="mixed",
                           race_check=True))
        assert result.value == "(1 3 6 10)"  # still sequentializable
        assert result.fault_plan is not None
        assert result.fault_plan.startswith("mixed:")
        assert result.races.startswith("no races")

    def test_timeline_rendered_on_request(self):
        result = api.run(FIG5, "(f5-cc data)",
                         api.RunOptions(transform=("f5",), timeline=True))
        assert "busy processors" in result.timeline
        assert api.run(FIG5, "(+ 1 1)").timeline is None

    def test_evaluation_failure_is_engine_error(self):
        with pytest.raises(api.EngineError):
            api.run(FIG5, "(undefined-function 1)")


class TestSweep:
    def test_unknown_grid_is_bad_request(self):
        with pytest.raises(api.BadRequest, match="unknown grid"):
            api.sweep("nope")

    def test_negative_workers_is_bad_request(self):
        with pytest.raises(api.BadRequest):
            api.sweep("model", api.SweepOptions(workers=-1))

    def test_model_grid_inline(self):
        report = api.sweep("model", api.SweepOptions(workers=0))
        assert report.ok is True
        assert report.failed == []
        env = report.to_dict()
        assert env["kind"] == "sweep"
        assert len(env["body"]["points"]) == 2
        assert "model" in report.format()

    def test_grid_listing(self):
        grids = api.sweep_grids()
        assert "smoke" in grids and grids["smoke"] > 0


class TestDeterminism:
    """to_json(): sorted keys, canonical floats, wall-only variance."""

    def test_identical_runs_identical_modulo_wall(self):
        a = api.run(FIG5, "(progn (f5-cc data) (identity data))",
                    api.RunOptions(transform=("f5",), seed=7))
        b = api.run(FIG5, "(progn (f5-cc data) (identity data))",
                    api.RunOptions(transform=("f5",), seed=7))
        ja = api.canonical_json(api.strip_wall(a.to_dict()))
        jb = api.canonical_json(api.strip_wall(b.to_dict()))
        assert ja == jb

    def test_to_json_keys_sorted_recursively(self):
        for result in (api.analyze(FIG5, "f5"), api.transform(FIG5, "f5"),
                       api.run(FIG5, "(+ 1 2)")):
            doc = json.loads(result.to_json())

            def check(node):
                if isinstance(node, dict):
                    assert list(node) == sorted(node)
                    for v in node.values():
                        check(v)
                elif isinstance(node, list):
                    for v in node:
                        check(v)

            check(doc)

    def test_to_json_compact_matches_canonical(self):
        result = api.analyze(FIG5, "f5")
        assert result.to_json() == api.canonical_json(result.to_dict())

    def test_to_json_indent_roundtrips(self):
        result = api.transform(FIG5, "f5")
        pretty = result.to_json(indent=2)
        assert pretty.endswith("\n")
        assert json.loads(pretty) == result.to_dict()

    def test_wall_always_present_and_only_variance(self):
        a = api.analyze(FIG5, "f5").to_dict()
        b = api.analyze(FIG5, "f5").to_dict()
        assert "wall" in a and "wall" in b
        assert api.strip_wall(a) == api.strip_wall(b)

    def test_content_digest_stable_across_key_order(self):
        assert api.content_digest({"a": 1, "b": 2}) == \
            api.content_digest({"b": 2, "a": 1})
        assert api.content_digest({"a": 1}) != api.content_digest({"a": 2})


class TestRenderingIgnoresProcessHistory:
    """Gensyms come from a process-global counter; the rendered result
    must not depend on how far it has run (regression: line breaks were
    chosen for the raw names, before renumbering)."""

    @pytest.mark.parametrize("source, function, options", [
        (STRICT, "strict-sum", api.TransformOptions()),
        (FIG5, "f5", api.TransformOptions()),
        (FIG5, "f5", api.TransformOptions(early_release=True)),
        (FIG5, "f5", api.TransformOptions(early_release=False)),
        (FIG5, "f5", api.TransformOptions(whole_program=True)),
    ], ids=["strict", "fig5", "fig5-early-release", "fig5-end-release",
            "fig5-whole-program"])
    def test_same_bytes_after_the_counter_grows(self, monkeypatch, source,
                                                function, options):
        monkeypatch.setattr(DEFAULT_SYMBOLS, "_gensym_counter",
                            itertools.count(1))
        before = api.transform(source, function, options)
        # Every gensym name now carries at least seven digits.
        monkeypatch.setattr(DEFAULT_SYMBOLS, "_gensym_counter",
                            itertools.count(10 ** 6))
        after = api.transform(source, function, options)
        assert "#:" in "".join(itertools.chain(*before.forms))
        assert after.forms == before.forms
        assert after.report_text == before.report_text


class TestResultShape:
    def test_results_are_frozen(self):
        result = api.analyze(FIG5, "f5")
        with pytest.raises(Exception):
            result.function = "other"

    def test_kind_tags(self):
        assert api.analyze(FIG5, "f5").to_dict()["kind"] == "analysis"
        assert api.transform(FIG5, "f5").to_dict()["kind"] == "transform"
        assert api.run(FIG5, "(+ 1 1)").to_dict()["kind"] == "run"

    def test_tuples_serialize_as_lists(self):
        doc = api.run(FIG5, "(progn (f5-cc data) (identity data))",
                      api.RunOptions(transform=("f5",))).to_dict()
        assert doc["transformed"] == ["f5-cc"]
        assert isinstance(doc["outputs"], list)


class TestPackageFacadeExports:
    def test_top_level_reexports(self):
        import repro

        assert repro.analyze is api.analyze
        assert repro.run is api.run
        assert repro.RunOptions is api.RunOptions
        for name in ("analyze", "transform", "run", "sweep",
                     "ApiError", "BadRequest", "TransformRefused"):
            assert name in repro.__all__
