"""Transfer functions and the conflict-distance computation.

A transfer function τ_v (paper §2.1) relates a variable's value at one
reference to its value at a later reference — a regex over accessors.
The central predicate is

    A1 ⊙_d A2  ⟺  A1 ≤ τ^d ∘ A2

"A1 conflicts with A2 at distance d": the location reached by the word
A1 is on the path of A2 evaluated d invocations later.

``min_conflict_distance`` finds the smallest such d by a BFS over
"positions in A1" — applying one copy of τ from position i either lands
exactly at position j (τ matched A1[i:j]), or *overshoots* the end of
A1 (τ has A1[i:] as a proper prefix), which is an immediate conflict
regardless of A2.  This terminates for every regular τ, unlike naive
enumeration of d.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.paths.accessor import Accessor
from repro.paths.automata import NFA, nfa_for, prefix_of_language
from repro.paths.regex import Cat, Eps, Regex, parse_regex, word_regex
from repro.perf.cache import LRUCache

# τ^d composition chains recur across every (pair, distance) the survey
# visits; with hash-consed regexes the memo keys are near-pointers.
_POWER_CACHE = LRUCache("paths.power", maxsize=16384)

# The top-level conflict predicates: accessor words repeat heavily
# across a function's reference pairs.
_CONFLICT_CACHE = LRUCache("paths.conflict", maxsize=65536)
_MINDIST_CACHE = LRUCache("paths.mindist", maxsize=65536)

# One swept BFS answers the whole d ∈ [1, max_d] enumeration, replacing
# max_d separate automaton tests.
_SWEEP_CACHE = LRUCache("paths.sweep", maxsize=65536)

# The one-step relation depends only on (A1, τ) — not on A2 — yet every
# (A1, A2) pair the analyzer visits used to recompute it.  Memoizing it
# collapses that per-pair NFA simulation to one per accessor/transfer.
_ONESTEP_CACHE = LRUCache("paths.onestep", maxsize=65536)


class TransferFunction:
    """A wrapped accessor regex with composition helpers and caching."""

    def __init__(self, regex: Regex):
        self.regex = regex
        self._nfa: Optional[NFA] = None

    @classmethod
    def parse(cls, text: str) -> "TransferFunction":
        return cls(parse_regex(text))

    @classmethod
    def identity(cls) -> "TransferFunction":
        """τ_v = ∅ in the paper's notation: the variable did not change."""
        return cls(Eps)

    @property
    def nfa(self) -> NFA:
        if self._nfa is None:
            self._nfa = nfa_for(self.regex)
        return self._nfa

    def power(self, d: int) -> Regex:
        """τ^d — the d-fold composition (τ^0 = ε), memoized."""
        if d < 0:
            raise ValueError("negative transfer power")
        if d == 0:
            return Eps
        if d == 1 or self.regex is Eps:
            return self.regex
        regex = self.regex
        return _POWER_CACHE.get_or_compute(
            (regex, d), lambda: Cat(self.power(d - 1), regex)
        )

    def compose_accessor(self, d: int, accessor: Accessor) -> Regex:
        """The language τ^d ∘ A — all full access paths d invocations later."""
        word = word_regex(accessor.fields)
        power = self.power(d)
        if power is Eps:
            return word
        if word is Eps:
            return power
        return Cat(power, word)

    def __repr__(self) -> str:
        return f"TransferFunction({self.regex!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TransferFunction) and other.regex == self.regex

    def __hash__(self) -> int:
        return hash(("tf", self.regex))


def conflicts_at_distance_memo(
    a1: Accessor, a2: Accessor, tau: TransferFunction, d: int,
    direction: str = "write-first",
) -> bool:
    """Memoized :func:`conflicts_at_distance` — accessor words repeat
    heavily across a function's reference pairs, and regex nodes hash
    structurally, so caching removes the analyzer's quadratic NFA cost."""
    key = (a1.fields, a2.fields, tau.regex, d, direction)
    return _CONFLICT_CACHE.get_or_compute(
        key, lambda: conflicts_at_distance(a1, a2, tau, d, direction=direction)
    )


def min_conflict_distance_memo(
    a1: Accessor, a2: Accessor, tau: TransferFunction,
    min_d: int = 1, max_d=None, direction: str = "write-first",
):
    """Memoized :func:`min_conflict_distance`."""
    key = (a1.fields, a2.fields, tau.regex, min_d, max_d, direction)
    return _MINDIST_CACHE.get_or_compute(
        key,
        lambda: min_conflict_distance(
            a1, a2, tau, min_d=min_d, max_d=max_d, direction=direction
        ),
    )


def conflicts_at_distance(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    d: int,
    direction: str = "write-first",
) -> bool:
    """A1 ⊙_d A2 for one ordered pair at distance ``d``.

    ``direction='write-first'`` (paper's first formula): the *earlier*
    reference (A1) is the modification; conflict iff A1 ≤ τ^d·A2 — the
    written node lies on the later access's path.

    ``direction='write-second'``: the *later* reference (A2) is the
    modification; conflict iff some word of τ^d·A2 is ≤ A1 — the node
    written later lies on the earlier access's path.
    """
    language = tau.compose_accessor(d, a2)
    if direction == "write-first":
        return prefix_of_language(a1.fields, language)
    if direction == "write-second":
        from repro.paths.automata import language_word_is_prefix_of

        return language_word_is_prefix_of(language, a1.fields)
    raise ValueError(f"unknown direction {direction!r}")


def _one_step_relation(a1: Accessor, tau: TransferFunction) -> tuple[dict[int, set[int]], set[int]]:
    """For each start position i in A1, the positions j reachable by one
    τ application (τ matched A1[i:j] exactly), and the set of positions
    from which one τ application overshoots the end of A1.

    Overshoot from i means: some word of τ has A1[i:] as a *proper*
    prefix — then A1 itself is a prefix of the τ-chain, a conflict no
    matter what A2 is.

    Memoized on (A1, τ): callers invoke this once per (A1, A2) pair but
    the relation is independent of A2.  The cached (steps, overshoot)
    pair is shared — callers must treat it as read-only, which
    :func:`_position_expand` does.
    """
    return _ONESTEP_CACHE.get_or_compute(
        (a1.fields, tau.regex), lambda: _one_step_relation_compute(a1, tau)
    )


def _one_step_relation_compute(
    a1: Accessor, tau: TransferFunction
) -> tuple[dict[int, set[int]], set[int]]:
    nfa = tau.nfa
    m = len(a1)
    steps: dict[int, set[int]] = {}
    overshoot: set[int] = set()
    reach_with_symbol = nfa.can_reach_accept_with_symbol()
    for i in range(m + 1):
        states = nfa.initial()
        reached: set[int] = set()
        if nfa.accepts_in(states):
            reached.add(i)  # τ matched ε
        j = i
        live = states
        while j < m and live:
            live = nfa.step(live, a1.fields[j])
            j += 1
            if nfa.accepts_in(live):
                reached.add(j)
        if j == m and live and any(reach_with_symbol[s] for s in live):
            overshoot.add(i)
        steps[i] = reached
    return steps, overshoot


# The BFS below runs over "positions in A1" plus one synthetic state.
# _OVER marks a τ-chain that overshot the end of A1; it is only a
# success for write-first (the chain alone covers A1, so A1 is certainly
# on the later access's path) — for write-second an overshooting chain
# names a location *deeper* than A1's path.
_OVER = -1


def _position_success(
    position: int, a1: Accessor, a2: Accessor, direction: str
) -> bool:
    """Does reaching ``position`` in A1 (after some τ-chain) conflict?"""
    if position == _OVER:
        return direction == "write-first"
    remainder = a1.fields[position:]
    if direction == "write-first":
        # Conflict iff the remainder of A1 is a prefix of A2.
        return (
            len(remainder) <= len(a2.fields)
            and a2.fields[: len(remainder)] == remainder
        )
    # write-second: conflict iff A2 is a prefix of the remainder.
    return (
        len(a2.fields) <= len(remainder)
        and remainder[: len(a2.fields)] == a2.fields
    )


def _position_expand(
    frontier: set[int], steps: dict[int, set[int]], overshoot: set[int]
) -> set[int]:
    """One more τ application from every position in ``frontier``."""
    nxt: set[int] = set()
    for p in frontier:
        if p == _OVER:
            nxt.add(_OVER)
            continue
        if p in overshoot:
            nxt.add(_OVER)
        nxt |= steps.get(p, set())
    return nxt


def min_conflict_distance(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    min_d: int = 1,
    max_d: Optional[int] = None,
    direction: str = "write-first",
) -> Optional[int]:
    """The smallest d ≥ min_d with A1 ⊙_d A2, or None if no d exists.

    BFS over A1-positions; termination is bounded by |A1|+2 distinct
    states, so an unreachable conflict returns None without enumeration.
    ``max_d`` optionally caps the answer (used when the caller only cares
    about conflicts closer than the machine's parallelism).
    ``direction`` as in :func:`conflicts_at_distance`.
    """
    if direction not in ("write-first", "write-second"):
        raise ValueError(f"unknown direction {direction!r}")
    steps, overshoot = _one_step_relation(a1, tau)

    def success(position: int) -> bool:
        return _position_success(position, a1, a2, direction)

    def expand(frontier: set[int]) -> set[int]:
        return _position_expand(frontier, steps, overshoot)

    frontier: set[int] = {0}
    # Phase 1: advance to depth == min_d without pruning (frontier sets
    # are bounded by the m+2 possible states, so this is cheap; min_d is
    # 0 or 1 in practice).
    depth = 0
    while depth < min_d:
        frontier = expand(frontier)
        depth += 1
        if not frontier:
            return None
    # Phase 2: BFS with pruning.  success(p) depends only on p, so once
    # a state has been tested at some depth ≥ min_d it need not be
    # revisited; the state space is finite, guaranteeing termination.
    visited: set[int] = set()
    while frontier:
        if max_d is not None and depth > max_d:
            return None
        if any(success(p) for p in frontier):
            return depth
        visited |= frontier
        frontier = {p for p in expand(frontier) if p not in visited}
        depth += 1
    return None


def conflict_distances_swept(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    max_d: int,
    min_d: int = 1,
    direction: str = "write-first",
) -> list[int]:
    """All distances d in [min_d, max_d] with A1 ⊙_d A2, in one BFS.

    Equivalent to :func:`conflict_distances` (the per-d enumeration) but
    pays :func:`_one_step_relation` once instead of building one
    automaton per distance: the frontier after d expansions is exactly
    the set of A1-positions reachable by τ^d, so testing it per depth
    answers every distance in a single sweep.  Memoized.
    """
    if direction not in ("write-first", "write-second"):
        raise ValueError(f"unknown direction {direction!r}")
    key = (a1.fields, a2.fields, tau.regex, min_d, max_d, direction)
    return _SWEEP_CACHE.get_or_compute(
        key, lambda: _sweep_distances(a1, a2, tau, min_d, max_d, direction)
    )


def _sweep_distances(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    min_d: int,
    max_d: int,
    direction: str,
) -> list[int]:
    steps, overshoot = _one_step_relation(a1, tau)
    out: list[int] = []
    frontier: set[int] = {0}
    for d in range(1, max_d + 1):
        frontier = _position_expand(frontier, steps, overshoot)
        if not frontier:
            break
        if d >= min_d and any(
            _position_success(p, a1, a2, direction) for p in frontier
        ):
            out.append(d)
    return out


def step_words(regex: Regex) -> Optional[list[tuple[str, ...]]]:
    """If ``regex`` denotes a *finite set of concrete words* (a word, or
    an alternation of words — the shape parameter transfers take),
    return them; else None."""
    from repro.paths.regex import Alt, Cat, Sym, _Eps

    def words_of(r: Regex) -> Optional[list[tuple[str, ...]]]:
        if isinstance(r, _Eps):
            return [()]
        if isinstance(r, Sym):
            return [(r.field,)]
        if isinstance(r, Cat):
            left = words_of(r.left)
            right = words_of(r.right)
            if left is None or right is None:
                return None
            return [a + b for a in left for b in right]
        if isinstance(r, Alt):
            left = words_of(r.left)
            right = words_of(r.right)
            if left is None or right is None:
                return None
            return left + right
        return None  # Star/Plus/Empty: not a finite word set

    return words_of(regex)


def min_conflict_distance_canonical(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    canonicalizer,
    max_d: int = 16,
    direction: str = "write-first",
) -> Optional[int]:
    """Minimum conflict distance *modulo path canonicalization* (§2.1).

    With declared inverse fields (succ/pred), distinct raw words can name
    the same location.  ``write-first``: the written location A1
    conflicts with the later access iff canon(A1) equals the canonical
    form of some *prefix* of a word in τ^d·A2.  ``write-second``: the
    location written later (the full word τ^d·A2) must match a canonical
    prefix of the earlier access A1.  Requires τ to be a finite word set
    (the shape the inference produces); raises ValueError otherwise
    (callers fall back to the conservative answer).
    """
    steps = step_words(tau.regex)
    if steps is None:
        raise ValueError("transfer function is not a finite word set")
    canon_a1 = canonicalizer.canonicalize(a1)
    canon_a1_prefixes = {
        canonicalizer.canonicalize(p).fields for p in a1.prefixes()
    }
    # BFS over concrete τ-chains (finite alternation → bounded fan-out,
    # deduplicated by canonical form).
    frontier: set[tuple[str, ...]] = {()}
    for d in range(1, max_d + 1):
        new_frontier: set[tuple[str, ...]] = set()
        for chain in frontier:
            for step in steps:
                new_frontier.add(
                    canonicalizer.canonicalize(Accessor(chain + step)).fields
                )
        frontier = new_frontier
        for chain in frontier:
            word = chain + a2.fields
            if direction == "write-first":
                for cut in range(len(word) + 1):
                    prefix = Accessor(word[:cut])
                    if canonicalizer.canonicalize(prefix) == canon_a1:
                        return d
            else:  # write-second: the later write is the full word
                full = canonicalizer.canonicalize(Accessor(word)).fields
                if full in canon_a1_prefixes:
                    return d
        if not frontier:
            return None
    return None


def conflict_distances(
    a1: Accessor,
    a2: Accessor,
    tau: TransferFunction,
    max_d: int,
    min_d: int = 1,
    direction: str = "write-first",
) -> list[int]:
    """All distances d in [min_d, max_d] with A1 ⊙_d A2 (enumeration)."""
    out = []
    for d in range(min_d, max_d + 1):
        if conflicts_at_distance(a1, a2, tau, d, direction=direction):
            out.append(d)
    return out
