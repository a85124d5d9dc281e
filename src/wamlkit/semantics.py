"""Model checking for the diagonal n-semantics, validity, bounded satisfiability.

Truth at a world: ``box f`` holds at w iff every relation tuple
(w, v1..vn) has some slot i with f true at v_i; ``dia f`` holds iff some
tuple has f true at every slot.  A point with no outgoing tuple satisfies
every box and no diamond.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator

from . import syntax
from .errors import BudgetExceededError, InvalidArgumentError, UnknownWorldError
from .model import NModel, PointedModel, make_model
from .syntax import Box, Diamond, Formula, Letter

DEFAULT_SEARCH_BUDGET = 2_000_000


def _slot_index(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Group tuples given as (source world bit, slot set) pairs, where a
    slot set is the mask of the worlds in a tuple's successor vector:
    each distinct slot set with the mask of the worlds having a tuple of
    that slot set."""
    sources: dict[int, int] = {}
    for source, slots in edges:
        sources[slots] = sources.get(slots, 0) | source
    return list(sources.items())


def _modal_mask(
    is_box: bool, operand: int, full: int, slot_index: list[tuple[int, int]]
) -> int:
    """The mask of ``box g`` (or ``dia g``) from the mask of g: box holds
    where no tuple has a slot set missing g, dia where some tuple has its
    slot set inside g."""
    if is_box:
        bits = full
        for slots, sources in slot_index:
            if not slots & operand:
                bits &= ~sources
        return bits
    outside = full ^ operand
    bits = 0
    for slots, sources in slot_index:
        if not slots & outside:
            bits |= sources
    return bits


class ModelEvaluator:
    """Bit-mask evaluator for one model; caches per-formula truth masks.

    Bit i of a mask is the truth value at ``model.worlds[i]``.
    """

    def __init__(self, m: NModel):
        self.model = m
        self.pos = {w: i for i, w in enumerate(m.worlds)}
        self.full = (1 << len(m.worlds)) - 1
        self._cache: dict[Formula, int] = {}

    def mask(self, f: Formula) -> int:
        return syntax.fold_mask(f, self.full, self._leaf, self._cache)

    @cached_property
    def _slots(self) -> list[tuple[int, int]]:
        pos = self.pos
        return _slot_index(
            (1 << pos[w], sum({1 << pos[v] for v in vector}))
            for w, vectors in self.model.successors.items()
            for vector in vectors
        )

    def _leaf(self, f: Formula, operand: int | None) -> int:
        m = self.model
        if operand is None:  # a letter
            return sum(
                1 << i for i, w in enumerate(m.worlds) if f.name in m.valuation[w]
            )
        return _modal_mask(isinstance(f, Box), operand, self.full, self._slots)

    def depth_masks(self, f: Formula, max_depth: int) -> list[int]:
        """The mask of f under depth-d semantics for each d in
        0..max_depth, where a box or diamond looks at successors through
        the depth-(d-1) masks of its operand, and at depth 0 every box
        holds and no diamond does.  A world's bit at depth d is the truth
        of f at a node of its unraveling with d levels below it.  From the
        modal depth of f on, every entry is ``mask(f)``."""
        program = syntax.compile_formula(f)
        full, slots = self.full, self._slots
        shallower: dict[Formula, int] = {}  # the previous depth's masks

        def leaf(g: Formula, operand: int | None) -> int:
            if operand is None:
                return self.mask(g)
            if not shallower:
                return full if type(g) is Box else 0
            return _modal_mask(type(g) is Box, shallower[g.operand], full, slots)

        out: list[int] = []
        masks: list[int] = []
        for _ in range(max_depth + 1):
            deeper = syntax.run_program(program, full, leaf)
            if deeper == masks:  # a fixed point: every later depth repeats it
                break
            masks = deeper
            shallower = {node: bits for (node, *_), bits in zip(program, masks)}
            out.append(masks[-1])
        return out + [masks[-1]] * (max_depth + 1 - len(out))

    def holds(self, world: str, f: Formula) -> bool:
        if world not in self.pos:
            raise UnknownWorldError(f"unknown world {world!r}")
        return bool(self.mask(f) >> self.pos[world] & 1)


def check(m: NModel, w: str, f: Formula) -> bool:
    """Truth of f at world w.  Letters missing from the valuation are false."""
    return ModelEvaluator(m).holds(w, f)


def valid_on_model(m: NModel, f: Formula) -> bool:
    """True iff f holds at every world of m."""
    ev = ModelEvaluator(m)
    return ev.mask(f) == ev.full


# ---------------------------------------------------------------------------
# Bounded satisfiability
#
# Deciding whether a formula holds somewhere in some model with at most k
# worlds only depends on which "world types" the model realizes, where a
# type fixes the truth of every letter and every modal subformula.  A set
# of types U is self-supporting when each member can choose a successor
# tuple set over U matching its own modal bits; f is satisfiable with at
# most k worlds iff some self-supporting U with |U| <= k contains a type
# that makes f true (worlds sharing a type collapse into one).  The
# decision phase works on types; the witness itself is then recovered by
# enumerating models of the minimal world count in canonical order, so the
# returned witness is the canonically least one.


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} steps exhausted"
            )


def _modal_subformulas(f: Formula) -> list[Formula]:
    found = [g for g, op, _, _ in syntax.compile_formula(f) if op in (Box, Diamond)]
    return sorted(found, key=syntax.formula_key)


class _TypeSpace:
    """Truth tables over all world types of a formula.

    A type index encodes one bit per letter (low bits) and one bit per
    modal subformula.  ``truth[g]`` is a big integer whose t-th bit is the
    truth of subformula g under type t.
    """

    def __init__(self, f: Formula, arity: int, budget: _Budget):
        self.arity = arity
        self.letters = sorted(syntax.letters(f))
        self.modals = _modal_subformulas(f)
        self.nbits = len(self.letters) + len(self.modals)
        if self.nbits > 22:
            raise BudgetExceededError(
                f"type space with {self.nbits} independent bits is too large"
            )
        self.count = 1 << self.nbits
        self.all_types = (1 << self.count) - 1
        budget.spend(self.count)
        # the leaves are seeded: letters and modal subformulas are the bits
        atoms = [Letter(name) for name in self.letters] + self.modals
        self._truth = {
            g: syntax.bit_pattern(b, self.count) for b, g in enumerate(atoms)
        }
        self.root_mask = self.truth(f)
        # (kind, own truth, child truth) per modal subformula
        self.modal_info = [
            (isinstance(g, Box), self.truth(g), self.truth(g.operand))
            for g in self.modals
        ]
        self._demands: dict[int, list[tuple[int, list[int]]]] = {}

    def truth(self, g: Formula) -> int:
        return syntax.fold_mask(g, self.all_types, None, self._truth)

    def demands(self, t: int) -> list[tuple[int, list[int]]]:
        """Existential successor demands of type t: for each, the slot pool
        every slot of the witness tuple must come from, plus the pools the
        tuple must additionally intersect (one per universal constraint).
        They depend on the modal bits of t alone, so they are computed once
        per assignment of those bits."""
        modal_bits = t >> len(self.letters)
        cached = self._demands.get(modal_bits)
        if cached is not None:
            return cached
        constraints = []  # every successor tuple must intersect these
        existential = []  # some successor tuple must live inside these
        for is_box, own, child in self.modal_info:
            holds = bool(own >> t & 1)
            inverse = ~child & self.all_types
            if is_box:
                if holds:
                    constraints.append(child)
                else:
                    existential.append(inverse)
            else:
                if holds:
                    existential.append(child)
                else:
                    constraints.append(inverse)
        demands = self._demands[modal_bits] = [
            (inside, constraints) for inside in existential
        ]
        return demands


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _demand_satisfiable(
    inside: int,
    constraints: list[int],
    u_mask: int,
    arity: int,
    budget: _Budget,
    memo: dict,
) -> bool:
    """Can an ``arity``-slot tuple be drawn from ``u_mask & inside`` so that
    each constraint pool is hit by at least one slot?"""
    pool = u_mask & inside
    if pool == 0:
        return False
    hit_pools = []
    for c in constraints:
        hp = pool & c
        if hp == 0:
            return False
        hit_pools.append(hp)
    if len(hit_pools) <= arity:
        return True
    key = (pool, tuple(hit_pools))
    cached = memo.get(key)
    if cached is not None:
        return cached
    # set cover by at most ``arity`` slots: the pool's types grouped by the
    # set of constraint pools each one hits, one bit-parallel split per pool
    budget.spend()
    groups = {0: pool}  # hit set -> the pool's types with exactly that hit set
    for j, hp in enumerate(hit_pools):
        split = {}
        for hits, types in groups.items():
            hit, missed = types & hp, types & ~hp
            if hit:
                split[hits | 1 << j] = hit
            if missed:
                split[hits] = missed
        groups = split
    target = (1 << len(hit_pools)) - 1
    reached = {0}
    for _ in range(arity):
        reached = {s | c for s in reached for c in groups}
        if target in reached:
            break
    ok = target in reached
    memo[key] = ok
    return ok


def _realizable(
    space: _TypeSpace, t: int, u_mask: int, budget: _Budget, memo: dict
) -> bool:
    budget.spend()
    return all(
        _demand_satisfiable(inside, constraints, u_mask, space.arity, budget, memo)
        for inside, constraints in space.demands(t)
    )


def _eliminate(space: _TypeSpace, budget: _Budget, memo: dict) -> int:
    """Greatest set of types each realizable against the set itself."""
    u_mask = space.all_types
    while True:
        survivors = 0
        for t in _iter_bits(u_mask):
            if _realizable(space, t, u_mask, budget, memo):
                survivors |= 1 << t
        if survivors == u_mask:
            return u_mask
        u_mask = survivors


def _min_support(
    space: _TypeSpace, star_mask: int, max_size: int, budget: _Budget, memo: dict
) -> int | None:
    """Smallest size of a self-supporting type set containing a root type,
    or None if none exists within ``max_size``."""
    root_types = [t for t in _iter_bits(space.root_mask & star_mask)]
    if not root_types:
        return None
    for k in range(1, max_size + 1):
        seen: set[frozenset[int]] = set()
        for root in root_types:
            if _grow(space, star_mask, k, frozenset({root}), seen, budget, memo):
                return k
    return None


def _grow(
    space: _TypeSpace,
    star_mask: int,
    k: int,
    chosen: frozenset[int],
    seen: set[frozenset[int]],
    budget: _Budget,
    memo: dict,
) -> bool:
    """Can ``chosen`` be extended, one unmet demand at a time, to a
    self-supporting set of at most k types?"""
    if chosen in seen:
        return False
    seen.add(chosen)
    budget.spend()
    u_mask = 0
    for t in chosen:
        u_mask |= 1 << t
    for t in sorted(chosen):
        for inside, constraints in space.demands(t):
            if _demand_satisfiable(
                inside, constraints, u_mask, space.arity, budget, memo
            ):
                continue
            if len(chosen) == k:
                return False
            for cand in _iter_bits(star_mask & inside & ~u_mask):
                if _grow(space, star_mask, k, chosen | {cand}, seen, budget, memo):
                    return True
            return False
    return True


def _letter_subsets(letters: list[str]) -> list[tuple[str, ...]]:
    # subsets in lexicographic order of their sorted element lists
    return sorted(
        itertools.chain.from_iterable(
            itertools.combinations(letters, r)
            for r in range(len(letters) + 1)
        )
    )


def _relation_subsets(
    candidates: list[tuple[str, ...]]
) -> Iterator[tuple[tuple[str, ...], ...]]:
    # subsets in lexicographic order of their sorted tuple lists: extend
    # by the next candidate while there is one, else drop the last and
    # advance the one before it (no recursion, so no depth limit)
    chosen: list[int] = []
    yield ()
    while True:
        nxt = chosen[-1] + 1 if chosen else 0
        if nxt < len(candidates):
            chosen.append(nxt)
        elif len(chosen) > 1:
            chosen.pop()
            chosen[-1] += 1
        else:
            return
        yield tuple(candidates[i] for i in chosen)


def _walk_witness(
    f: Formula, arity: int, num_worlds: int, letters: list[str], budget: _Budget
) -> PointedModel:
    # f is compiled once; each candidate model is only its slot index and
    # its letter masks, and a model is built for the witness alone
    worlds = tuple(f"w{i}" for i in range(num_worlds))
    full = (1 << num_worlds) - 1
    bit = {w: 1 << i for i, w in enumerate(worlds)}
    candidates = sorted(itertools.product(worlds, repeat=arity + 1))
    edge = {t: (bit[t[0]], sum({bit[v] for v in t[1:]})) for t in candidates}
    program = syntax.compile_formula(f)
    letter_at = {name: j for j, name in enumerate(letters)}
    subsets = _letter_subsets(letters)
    # per world, per letter subset: each letter's bit at that world
    columns = [
        [tuple(bit[w] if name in s else 0 for name in letters) for s in subsets]
        for w in worlds
    ]
    slot_index: list[tuple[int, int]] = []
    letter_masks: list[int] = []

    # reads the candidate's slot index and letter masks, rebound below
    def leaf(g: Formula, operand: int | None) -> int:
        if operand is None:
            return letter_masks[letter_at[g.name]]
        return _modal_mask(type(g) is Box, operand, full, slot_index)

    for relation in _relation_subsets(candidates):
        slot_index = _slot_index(edge[t] for t in relation)
        # the two products run in step: a valuation and its letter bits
        valuations = zip(
            itertools.product(subsets, repeat=num_worlds),
            itertools.product(*columns),
        )
        for assignment, bits_by_world in valuations:
            budget.spend()
            letter_masks = [sum(col) for col in zip(*bits_by_world)]
            bits = syntax.run_program(program, full, leaf)[-1]
            if bits:
                m = make_model(arity, worlds, relation, dict(zip(worlds, assignment)))
                return PointedModel(m, worlds[(bits & -bits).bit_length() - 1])
    raise AssertionError("decision phase promised a witness at this size")


def bounded_sat(
    f: Formula,
    arity: int,
    max_worlds: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PointedModel | None:
    """Search all models with at most ``max_worlds`` worlds (valuations over
    the letters of f) for a point satisfying f.

    Returns the canonically least witness of minimal world count: models
    are ordered by world count, then by sorted relation tuple list, then by
    valuation, and the least world of the first satisfying model is
    returned.  ``None`` means unsatisfiable up to the bound.  Raises
    BudgetExceededError when the step budget runs out, which is distinct
    from an exhaustive negative answer.
    """
    if arity < 1:
        raise InvalidArgumentError("arity must be >= 1")
    if max_worlds < 1:
        raise InvalidArgumentError("max_worlds must be >= 1")
    if budget < 1:
        raise InvalidArgumentError("budget must be >= 1")
    tracker = _Budget(budget)
    space = _TypeSpace(f, arity, tracker)
    if space.root_mask == 0:
        return None
    memo: dict = {}
    # quick refutation: a root type unrealizable against every type at once
    # can never occur, whatever the world bound
    if not any(
        _realizable(space, t, space.all_types, tracker, memo)
        for t in _iter_bits(space.root_mask)
    ):
        return None
    star_mask = _eliminate(space, tracker, memo)
    if space.root_mask & star_mask == 0:
        return None
    k0 = _min_support(space, star_mask, max_worlds, tracker, memo)
    if k0 is None:
        return None
    return _walk_witness(f, arity, k0, space.letters, tracker)
