"""The DFA layer (determinize/minimize/dfa_for) and its corner cases.

Covers what the analysis leans on: empty-language transfer functions,
ε-only regexes, minimization idempotence, DFA-vs-NFA agreement on every
query predicate, and the swept distance enumeration against the per-d
reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paths.accessor import Accessor
from repro.paths.automata import (
    build_nfa,
    determinize,
    dfa_for,
    enumerate_words,
    intersection_empty,
    language_empty,
    language_word_is_prefix_of,
    matches,
    minimize,
    nfa_for,
    prefix_of_language,
)
from repro.paths.regex import (
    Alt,
    Cat,
    Empty,
    Eps,
    Regex,
    Star,
    Sym,
    parse_regex,
)
from repro.paths.transfer import (
    TransferFunction,
    conflict_distances,
    conflict_distances_swept,
    conflicts_at_distance,
    min_conflict_distance,
)

FIELDS = ["car", "cdr", "next"]

fields = st.sampled_from(FIELDS)
words = st.lists(fields, min_size=0, max_size=5).map(tuple)


@st.composite
def regexes(draw, depth=3) -> Regex:
    if depth == 0:
        return draw(st.sampled_from([Sym(f) for f in FIELDS] + [Eps, Empty]))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Sym(draw(fields))
    if kind == 1:
        return Cat(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 2:
        return Alt(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 3:
        return Star(draw(regexes(depth=depth - 1)))
    if kind == 4:
        return Empty
    return Eps


class TestCornerCases:
    def test_empty_language_dfa(self):
        dfa = dfa_for(Empty)
        assert not dfa.accepts(())
        assert not dfa.accepts(("car",))
        assert language_empty(Empty)

    def test_empty_language_transfer_function(self):
        """τ = ∅: no invocation relates the values, so no distance ever
        conflicts — the analysis must not loop or crash on it."""
        tau = TransferFunction(Empty)
        a = Accessor(("car",))
        b = Accessor(("car",))
        assert min_conflict_distance(a, b, tau) is None
        assert conflict_distances(a, b, tau, 8) == []
        assert conflict_distances_swept(a, b, tau, 8) == []
        for d in (1, 2, 3):
            assert not conflicts_at_distance(a, b, tau, d)

    def test_eps_only_regex(self):
        dfa = dfa_for(Eps)
        assert dfa.accepts(())
        assert not dfa.accepts(("car",))
        assert not language_empty(Eps)
        assert matches(Eps, ())
        assert prefix_of_language((), Eps)
        assert not prefix_of_language(("car",), Eps)
        assert language_word_is_prefix_of(Eps, ("car",))

    def test_eps_transfer_function(self):
        """τ = ε (identity): every distance behaves like distance 0."""
        tau = TransferFunction(Eps)
        a = Accessor(("car",))
        assert min_conflict_distance(a, a, tau) == 1
        assert conflict_distances_swept(a, a, tau, 4) == [1, 2, 3, 4]

    def test_star_of_empty_is_eps(self):
        assert not language_empty(Star(Empty))
        dfa = dfa_for(Star(Empty))
        assert dfa.accepts(())
        assert not dfa.accepts(("car",))

    def test_cat_with_empty_is_empty(self):
        assert language_empty(Cat(Sym("car"), Empty))
        assert language_empty(Cat(Empty, Sym("car")))

    def test_intersection_with_empty(self):
        assert intersection_empty(Empty, Star(Sym("car")))
        assert intersection_empty(Star(Sym("car")), Empty)

    def test_intersection_basic(self):
        assert not intersection_empty(parse_regex("cdr+"),
                                      parse_regex("cdr.cdr"))
        assert intersection_empty(parse_regex("car"), parse_regex("cdr"))

    def test_minimize_collapses_equivalent_states(self):
        # (car|cdr).(car|cdr) has a 1-state-per-depth minimal DFA.
        r = Cat(Alt(Sym("car"), Sym("cdr")), Alt(Sym("car"), Sym("cdr")))
        dfa = minimize(determinize(nfa_for(r)))
        assert len(dfa.transitions) == 3


class TestMinimizeIdempotence:
    @settings(max_examples=120, deadline=None)
    @given(regexes())
    def test_minimize_idempotent(self, r):
        dfa = minimize(determinize(nfa_for(r)))
        assert minimize(dfa) == dfa

    @settings(max_examples=120, deadline=None)
    @given(regexes())
    def test_minimize_preserves_language(self, r):
        dfa = minimize(determinize(nfa_for(r)))
        for word in enumerate_words(r, max_length=4):
            assert dfa.accepts(word)


class TestDfaMatchesNfa:
    """Every DFA predicate agrees with simulating the Thompson NFA."""

    @settings(max_examples=150, deadline=None)
    @given(regexes(), words)
    def test_predicates_agree(self, r, word):
        nfa = build_nfa(r)
        reach = nfa.can_reach_accept()
        assert matches(r, word) == nfa.accepts_in(nfa.run(word))
        assert prefix_of_language(word, r) == prefix_of_language(
            word, r, nfa=nfa)
        assert language_word_is_prefix_of(r, word) == \
            language_word_is_prefix_of(r, word, nfa=nfa)
        assert language_empty(r) == (
            not any(reach[s] for s in nfa.initial()))

    @settings(max_examples=80, deadline=None)
    @given(regexes(depth=2), regexes(depth=2))
    def test_intersection_agrees_with_enumeration(self, r1, r2):
        w1 = set(enumerate_words(r1, max_length=4))
        w2 = set(enumerate_words(r2, max_length=4))
        if w1 & w2:
            assert not intersection_empty(r1, r2)
        # (disjoint short words do not prove emptiness: longer words may
        # intersect, so only the positive direction is checked)


class TestSweptDistances:
    @settings(max_examples=100, deadline=None)
    @given(words, words,
           st.sampled_from(["cdr", "cdr+", "cdr*", "cdr.cdr",
                            "(car|cdr)", "(cdr.cdr)+", "ε"]),
           st.sampled_from(["write-first", "write-second"]))
    def test_swept_equals_enumerated(self, w1, w2, tau_text, direction):
        a1, a2 = Accessor(w1), Accessor(w2)
        tau = TransferFunction(parse_regex(tau_text))
        reference = [
            d for d in range(1, 9)
            if conflicts_at_distance(a1, a2, tau, d, direction=direction)
        ]
        assert conflict_distances_swept(
            a1, a2, tau, 8, direction=direction
        ) == reference

    def test_swept_rejects_bad_direction(self):
        tau = TransferFunction(parse_regex("cdr"))
        with pytest.raises(ValueError):
            conflict_distances_swept(Accessor(("car",)), Accessor(("car",)),
                                     tau, 8, direction="sideways")
