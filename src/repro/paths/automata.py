"""Thompson NFA construction, DFAs, and the prefix-language test.

The conflict predicate (paper §2.1) is ``A1 ≤ t1...tp·A2`` "as long as
the prefix operation matches a string against a regular expression".
Concretely: *is the concrete word A1 a prefix of some word in L(R)?*
That is :func:`prefix_of_language`, one run over a dense minimal DFA.

A deterministic tier sits on top of the Thompson NFAs:

* :func:`nfa_for` memoizes Thompson construction per (hash-consed)
  regex, so repeated conflict tests against the same transfer function
  stop rebuilding the automaton.
* :class:`DFA` with :func:`determinize` (subset construction),
  :func:`minimize` (Moore partition refinement into a canonical,
  BFS-numbered machine — ``minimize`` is idempotent and
  structurally-equal automata compare equal), and
  :func:`intersection_empty` (product-automaton emptiness — the
  language form of the conflict test).
* :func:`dfa_for` memoizes ``minimize(determinize(nfa_for(r)))``; the
  word-vs-language prefix predicates then collapse to a single
  deterministic run, which is the ``L(A1·Σ*) ∩ L(R) ≠ ∅`` product
  specialized to a one-word left operand.

All caches are registered in :mod:`repro.perf.cache` and report
hit/miss counters through the obs recorder.  NFA simulation stays as
the reference: the two prefix predicates run it when handed an
``nfa`` (``build_nfa(regex)``), which is how the tests compare the
tiers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from repro.paths.regex import Alt, Cat, Empty, Eps, Regex, Star, Sym, _Empty, _Eps
from repro.perf.cache import LRUCache

_NFA_CACHE = LRUCache("paths.nfa", maxsize=16384)
_DFA_CACHE = LRUCache("paths.dfa", maxsize=8192)
_DENSE_CACHE = LRUCache("paths.dense", maxsize=8192)
_INTERSECT_CACHE = LRUCache("paths.intersect", maxsize=65536)


class NFA:
    """A Thompson NFA.

    ``transitions``: state → field → set of states;
    ``epsilon``: state → set of states; single ``start``; single ``accept``.
    """

    def __init__(self) -> None:
        self.transitions: list[dict[str, set[int]]] = []
        self.epsilon: list[set[int]] = []
        self.start = 0
        self.accept = 0
        self._reach_accept: Optional[list[bool]] = None
        self._reach_accept_step: Optional[list[bool]] = None

    def new_state(self) -> int:
        self.transitions.append({})
        self.epsilon.append(set())
        return len(self.transitions) - 1

    def add_transition(self, src: int, field: str, dst: int) -> None:
        self.transitions[src].setdefault(field, set()).add(dst)
        self._reach_accept = None
        self._reach_accept_step = None

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon[src].add(dst)
        self._reach_accept = None
        self._reach_accept_step = None

    # -- simulation ---------------------------------------------------------

    def eps_closure(self, states: Iterable[int]) -> frozenset[int]:
        out = set(states)
        stack = list(out)
        while stack:
            s = stack.pop()
            for t in self.epsilon[s]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def step(self, states: frozenset[int], field: str) -> frozenset[int]:
        nxt: set[int] = set()
        for s in states:
            nxt |= self.transitions[s].get(field, set())
        return self.eps_closure(nxt)

    def initial(self) -> frozenset[int]:
        return self.eps_closure({self.start})

    def accepts_in(self, states: frozenset[int]) -> bool:
        return self.accept in states

    def run(self, word: Iterable[str]) -> frozenset[int]:
        states = self.initial()
        for field in word:
            if not states:
                break
            states = self.step(states, field)
        return states

    # -- reachability -----------------------------------------------------

    def can_reach_accept(self) -> list[bool]:
        """Per-state: can the accept state be reached (via any path)?"""
        if self._reach_accept is None:
            self._reach_accept = self._compute_reach(require_symbol=False)
        return self._reach_accept

    def can_reach_accept_with_symbol(self) -> list[bool]:
        """Per-state: can accept be reached consuming at least one symbol?"""
        if self._reach_accept_step is None:
            self._reach_accept_step = self._compute_reach(require_symbol=True)
        return self._reach_accept_step

    def _compute_reach(self, require_symbol: bool) -> list[bool]:
        n = len(self.transitions)
        # reach0[s]: accept reachable via ε only from s (or s is accept).
        reach0 = [False] * n
        reach0[self.accept] = True
        changed = True
        while changed:
            changed = False
            for s in range(n):
                if not reach0[s] and any(reach0[t] for t in self.epsilon[s]):
                    reach0[s] = True
                    changed = True
        # reach1[s]: accept reachable from s along a path with ≥1 symbol.
        reach_any = list(reach0)
        reach1 = [False] * n
        changed = True
        while changed:
            changed = False
            for s in range(n):
                for _field, dsts in self.transitions[s].items():
                    if any(reach_any[d] or reach1[d] for d in dsts):
                        if not reach1[s]:
                            reach1[s] = True
                            changed = True
                for t in self.epsilon[s]:
                    if reach1[t] and not reach1[s]:
                        reach1[s] = True
                        changed = True
            # reach_any grows as reach1 grows (any = 0 or ≥1 symbols).
            for s in range(n):
                if reach1[s] and not reach_any[s]:
                    reach_any[s] = True
                    changed = True
        return reach1 if require_symbol else reach_any

    def __repr__(self) -> str:
        return f"<NFA {len(self.transitions)} states>"


def build_nfa(regex: Regex) -> NFA:
    """Thompson construction."""
    nfa = NFA()

    def build(r: Regex) -> tuple[int, int]:
        if isinstance(r, _Empty):
            s, t = nfa.new_state(), nfa.new_state()
            return s, t  # no connection: empty language
        if isinstance(r, _Eps):
            s, t = nfa.new_state(), nfa.new_state()
            nfa.add_epsilon(s, t)
            return s, t
        if isinstance(r, Sym):
            s, t = nfa.new_state(), nfa.new_state()
            nfa.add_transition(s, r.field, t)
            return s, t
        if isinstance(r, Cat):
            s1, t1 = build(r.left)
            s2, t2 = build(r.right)
            nfa.add_epsilon(t1, s2)
            return s1, t2
        if isinstance(r, Alt):
            s, t = nfa.new_state(), nfa.new_state()
            s1, t1 = build(r.left)
            s2, t2 = build(r.right)
            nfa.add_epsilon(s, s1)
            nfa.add_epsilon(s, s2)
            nfa.add_epsilon(t1, t)
            nfa.add_epsilon(t2, t)
            return s, t
        if isinstance(r, Star):
            s, t = nfa.new_state(), nfa.new_state()
            s1, t1 = build(r.inner)
            nfa.add_epsilon(s, s1)
            nfa.add_epsilon(s, t)
            nfa.add_epsilon(t1, s1)
            nfa.add_epsilon(t1, t)
            return s, t
        raise TypeError(f"unknown regex node {r!r}")

    start, accept = build(regex)
    nfa.start = start
    nfa.accept = accept
    return nfa


def nfa_for(regex: Regex) -> NFA:
    """Memoized Thompson construction.

    The returned NFA is shared between callers and must be treated as
    immutable (simulation only — no ``add_transition``/``add_epsilon``).
    """
    return _NFA_CACHE.get_or_compute(regex, lambda: build_nfa(regex))


# ---------------------------------------------------------------------------
# DFAs: determinization, canonical minimization, intersection emptiness
# ---------------------------------------------------------------------------


class DFA:
    """A deterministic automaton over the field alphabet.

    Transitions are *partial*: a missing symbol means the dead (sink)
    state, which is never materialized.  ``transitions[s]`` maps field →
    next state; ``accepting[s]`` flags final states; ``start`` is always
    state 0 for canonical (minimized) machines but kept explicit.

    Instances compare and hash *structurally*, which combined with the
    canonical numbering produced by :func:`minimize` makes minimized
    DFAs of equal languages (over the same observed alphabet) compare
    equal — the property the idempotence tests pin down.
    """

    __slots__ = ("transitions", "accepting", "start", "_reach_accept", "_hash")

    def __init__(
        self,
        transitions: "list[dict[str, int]]",
        accepting: "list[bool]",
        start: int = 0,
    ) -> None:
        if len(transitions) != len(accepting):
            raise ValueError("transitions/accepting length mismatch")
        if transitions and not (0 <= start < len(transitions)):
            raise ValueError("start state out of range")
        self.transitions = transitions
        self.accepting = accepting
        self.start = start
        self._reach_accept: Optional[list[bool]] = None

    # -- simulation ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.transitions)

    def step(self, state: Optional[int], field: str) -> Optional[int]:
        """One transition; ``None`` is the implicit dead state."""
        if state is None:
            return None
        return self.transitions[state].get(field)

    def accepts(self, word: Iterable[str]) -> bool:
        state: Optional[int] = self.start
        for field in word:
            state = self.step(state, field)
            if state is None:
                return False
        return self.accepting[state]

    def alphabet(self) -> set[str]:
        out: set[str] = set()
        for row in self.transitions:
            out.update(row)
        return out

    def can_reach_accept(self) -> list[bool]:
        """Per-state: is some accepting state reachable (0+ steps)?"""
        if self._reach_accept is None:
            n = len(self.transitions)
            preds: list[list[int]] = [[] for _ in range(n)]
            for src, row in enumerate(self.transitions):
                for dst in row.values():
                    preds[dst].append(src)
            reach = list(self.accepting)
            stack = [s for s in range(n) if reach[s]]
            while stack:
                s = stack.pop()
                for p in preds[s]:
                    if not reach[p]:
                        reach[p] = True
                        stack.append(p)
            self._reach_accept = reach
        return self._reach_accept

    # -- protocol -----------------------------------------------------------

    def _key(self) -> tuple:
        return (
            self.start,
            tuple(self.accepting),
            tuple(tuple(sorted(row.items())) for row in self.transitions),
        )

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, DFA) and other._key() == self._key()
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._key())
            return self._hash

    def __repr__(self) -> str:
        return f"<DFA {len(self.transitions)} states>"


def determinize(nfa: NFA) -> DFA:
    """Subset construction.  Only live NFA state sets are expanded; the
    dead set maps to the DFA's implicit sink."""
    initial = nfa.initial()
    index: dict[frozenset[int], int] = {initial: 0}
    transitions: list[dict[str, int]] = [{}]
    accepting: list[bool] = [nfa.accepts_in(initial)]
    alphabet_by_state: list[set[str]] = []
    for row in nfa.transitions:
        alphabet_by_state.append(set(row))
    worklist = [initial]
    while worklist:
        states = worklist.pop()
        src = index[states]
        fields: set[str] = set()
        for s in states:
            fields |= alphabet_by_state[s]
        for field in sorted(fields):
            nxt = nfa.step(states, field)
            if not nxt:
                continue
            dst = index.get(nxt)
            if dst is None:
                dst = len(transitions)
                index[nxt] = dst
                transitions.append({})
                accepting.append(nfa.accepts_in(nxt))
                worklist.append(nxt)
            transitions[src][field] = dst
    return DFA(transitions, accepting, start=0)


def minimize(dfa: DFA) -> DFA:
    """Moore partition refinement into a canonical minimal DFA.

    The result is trim (unreachable states and the all-dead sink class
    are dropped), numbered by breadth-first order from the start state
    with symbols visited in sorted order — a canonical form, so
    ``minimize`` is idempotent and language-equal inputs (over the same
    observed alphabet) minimize to structurally-equal machines.
    """
    n = len(dfa.transitions)
    if n == 0:
        return DFA([{}], [False], start=0)
    sigma = sorted(dfa.alphabet())
    # Work over the completed automaton: state n is the sink.
    sink = n
    total = n + 1

    def delta(state: int, field: str) -> int:
        if state == sink:
            return sink
        return dfa.transitions[state].get(field, sink)

    accepting = list(dfa.accepting) + [False]
    # Partition ids; refine until stable.
    block = [1 if accepting[s] else 0 for s in range(total)]
    while True:
        signature: dict[tuple, int] = {}
        new_block = [0] * total
        for s in range(total):
            sig = (block[s],) + tuple(block[delta(s, f)] for f in sigma)
            idx = signature.setdefault(sig, len(signature))
            new_block[s] = idx
        if new_block == block:
            break
        block = new_block
    # Canonical renumbering: BFS from the start block, sorted symbols.
    start_block = block[dfa.start]
    sink_block = block[sink]
    order: dict[int, int] = {start_block: 0}
    queue = [start_block]
    rep: dict[int, int] = {}
    for s in range(total):
        rep.setdefault(block[s], s)
    new_transitions: list[dict[str, int]] = [{}]
    new_accepting: list[bool] = [accepting[rep[start_block]]]
    while queue:
        b = queue.pop(0)
        src = order[b]
        state = rep[b]
        for field in sigma:
            db = block[delta(state, field)]
            if db == sink_block:
                continue  # stays implicit
            dst = order.get(db)
            if dst is None:
                dst = len(new_transitions)
                order[db] = dst
                new_transitions.append({})
                new_accepting.append(accepting[rep[db]])
                queue.append(db)
            new_transitions[src][field] = dst
    return DFA(new_transitions, new_accepting, start=0)


def dfa_for(regex: Regex) -> DFA:
    """Memoized ``minimize(determinize(nfa_for(regex)))``."""
    return _DFA_CACHE.get_or_compute(
        regex, lambda: minimize(determinize(nfa_for(regex)))
    )


class DenseDFA:
    """A minimal DFA flattened into a dense transition table.

    The dict-of-dicts :class:`DFA` is the right shape for construction
    and structural comparison; the hot predicates (prefix tests inside
    the conflict detector, swept conflict distances) want straight-line
    lookups.  This compiled form stores transitions in one flat list —
    ``table[state * nsyms + symbol_index]``, ``-1`` for the implicit
    dead state — plus the two reach-accept relations the prefix
    predicates consult:

    * ``reach_accept[s]`` — an accepting state is reachable in 0+ steps
      (``word ≤ L``: after consuming the word, can the language still
      complete it?);
    * ``reach_accept_plus[s]`` — reachable in 1+ steps (a *proper*
      extension exists: there is a transition ``s → t`` with
      ``reach_accept[t]``).

    Both are language-level properties, so deriving them from the
    minimized machine is sound.  Instances are immutable and shared via
    :func:`dense_for`.
    """

    __slots__ = ("nsyms", "symbols", "index", "table", "accepting",
                 "start", "reach_accept", "reach_accept_plus")

    def __init__(self, dfa: DFA) -> None:
        symbols = sorted(dfa.alphabet())
        index = {field: i for i, field in enumerate(symbols)}
        nsyms = len(symbols)
        n = len(dfa.transitions)
        table = [-1] * (n * nsyms)
        for src, row in enumerate(dfa.transitions):
            base = src * nsyms
            for field, dst in row.items():
                table[base + index[field]] = dst
        reach = list(dfa.can_reach_accept())
        reach_plus = [False] * n
        for src, row in enumerate(dfa.transitions):
            for dst in row.values():
                if reach[dst]:
                    reach_plus[src] = True
                    break
        self.nsyms = nsyms
        self.symbols = symbols
        self.index = index
        self.table = table
        self.accepting = list(dfa.accepting)
        self.start = dfa.start
        self.reach_accept = reach
        self.reach_accept_plus = reach_plus

    def run(self, word: Iterable[str]) -> int:
        """Consume ``word`` from the start state; ``-1`` is dead."""
        state = self.start
        index = self.index
        table = self.table
        nsyms = self.nsyms
        for field in word:
            sym = index.get(field, -1)
            if sym < 0:
                return -1
            state = table[state * nsyms + sym]
            if state < 0:
                return -1
        return state

    def __repr__(self) -> str:
        return f"<DenseDFA {len(self.accepting)} states x {self.nsyms} syms>"


def dense_for(regex: Regex) -> DenseDFA:
    """Memoized dense compilation of the canonical minimal DFA."""
    return _DENSE_CACHE.get_or_compute(
        regex, lambda: DenseDFA(dfa_for(regex))
    )


def _product_empty(a: DFA, b: DFA) -> bool:
    """BFS over the product automaton; empty iff no jointly-accepting
    product state is reachable."""
    start = (a.start, b.start)
    if not len(a) or not len(b):
        return True
    seen = {start}
    stack = [start]
    while stack:
        sa, sb = stack.pop()
        if a.accepting[sa] and b.accepting[sb]:
            return False
        row_a = a.transitions[sa]
        row_b = b.transitions[sb]
        # Intersection only moves on symbols both machines accept.
        fields = row_a.keys() & row_b.keys()
        for field in fields:
            nxt = (row_a[field], row_b[field])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def intersection_empty(r1: Union[Regex, DFA], r2: Union[Regex, DFA]) -> bool:
    """True iff L(r1) ∩ L(r2) = ∅ (the conflict test in language form).

    Memoized when both operands are regexes; DFA operands run the
    product construction directly.
    """
    if isinstance(r1, Regex) and isinstance(r2, Regex):
        return _INTERSECT_CACHE.get_or_compute(
            (r1, r2), lambda: _product_empty(dfa_for(r1), dfa_for(r2))
        )
    a = r1 if isinstance(r1, DFA) else dfa_for(r1)
    b = r2 if isinstance(r2, DFA) else dfa_for(r2)
    return _product_empty(a, b)


def matches(regex: Regex, word: Iterable[str]) -> bool:
    """Exact membership: word ∈ L(regex)."""
    dense = dense_for(regex)
    state = dense.run(word)
    return state >= 0 and dense.accepting[state]


def prefix_of_language(word: Iterable[str], regex: Regex, nfa: Optional[NFA] = None) -> bool:
    """The paper's ≤ test: is ``word`` a prefix of some word in L(regex)?

    Equivalently: L(word·Σ*) ∩ L(regex) ≠ ∅.  This is one deterministic
    run over the cached minimal DFA (the product with a single-word
    automaton degenerates to a run).  Given ``nfa``, the reference
    simulates it instead and consults its can-reach-accept relation.
    """
    if nfa is None:
        dense = dense_for(regex)
        state = dense.run(word)
        return state >= 0 and dense.reach_accept[state]
    states = nfa.initial()
    for field in word:
        if not states:
            return False
        states = nfa.step(states, field)
    if not states:
        return False
    reach = nfa.can_reach_accept()
    return any(reach[s] for s in states)


def language_word_is_prefix_of(
    regex: Regex, word: Iterable[str], nfa: Optional[NFA] = None
) -> bool:
    """Is some w ∈ L(regex) a prefix of ``word`` (w ≤ word, w may equal word)?

    The dual of :func:`prefix_of_language`, needed when the *later*
    reference is the modification: the written location t·A2 must lie on
    the earlier access's path A1, i.e. t·A2 ≤ A1.  Given ``nfa``, the
    reference simulates it instead of the dense DFA.
    """
    if nfa is None:
        dense = dense_for(regex)
        accepting = dense.accepting
        state = dense.start
        if accepting[state]:
            return True
        index = dense.index
        table = dense.table
        nsyms = dense.nsyms
        for field in word:
            sym = index.get(field, -1)
            if sym < 0:
                return False
            state = table[state * nsyms + sym]
            if state < 0:
                return False
            if accepting[state]:
                return True
        return False
    states = nfa.initial()
    if nfa.accepts_in(states):
        return True
    for field in word:
        if not states:
            return False
        states = nfa.step(states, field)
        if nfa.accepts_in(states):
            return True
    return False


def language_empty(regex: Regex) -> bool:
    """True iff L(regex) = ∅."""
    # A trim minimal DFA of an empty language has no accepting state.
    return not any(dfa_for(regex).accepting)


def enumerate_words(regex: Regex, max_length: int, max_count: int = 10_000) -> Iterator[tuple[str, ...]]:
    """All words of L(regex) up to ``max_length`` (BFS order) — test helper."""
    from repro.paths.regex import alphabet

    nfa = build_nfa(regex)
    sigma = sorted(alphabet(regex))
    seen_count = 0
    frontier: list[tuple[tuple[str, ...], frozenset[int]]] = [((), nfa.initial())]
    while frontier:
        word, states = frontier.pop(0)
        if nfa.accepts_in(states):
            yield word
            seen_count += 1
            if seen_count >= max_count:
                return
        if len(word) >= max_length:
            continue
        for field in sigma:
            nxt = nfa.step(states, field)
            if nxt:
                frontier.append((word + (field,), nxt))
