"""Model checking for the diagonal n-semantics, validity, bounded satisfiability.

Truth at a world: ``box f`` holds at w iff every relation tuple
(w, v1..vn) has some slot i with f true at v_i; ``dia f`` holds iff some
tuple has f true at every slot.  A point with no outgoing tuple satisfies
every box and no diamond.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from . import syntax
from .errors import BudgetExceededError, InvalidArgumentError
from .model import NModel, PointedModel, make_model
from .syntax import And, Bottom, Box, Diamond, Formula, Implies, Letter, Not, Or, Top

DEFAULT_SEARCH_BUDGET = 2_000_000
# the cells a witness's relation may hold, as ``translate.MAX_TRANSLATION_NODES``
MAX_WITNESS_CELLS = 1_000_000


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
    """Bit-mask evaluator for one model; it keeps no formula state.

    Bit i of a mask is the truth value at ``model.worlds[i]``; letters and
    tuples are read from the model's integer view.
    """

    def __init__(self, m: NModel):
        self.model = m
        self.full = (1 << len(m.worlds)) - 1

    def mask(self, f: Formula) -> int:
        """The mask of f, from one run of its program.  To mask many
        formulas, run one program that holds them all."""
        return self.run(syntax.compile_formula(f))[-1]

    def run(self, program: Sequence[syntax.Instruction]) -> list[int]:
        """The mask of every instruction of a program, in order."""
        return syntax.run_program(program, self.full, self._leaf)

    def _leaf(self, f: Formula, operand: int | None) -> int:
        if operand is not None:
            return _modal_mask(type(f) is Box, operand, self.full, self.model.slot_index)
        return self.model.letter_masks.get(f.name, 0)

    def depth_masks(self, program: Sequence[syntax.Instruction], max_depth: int) -> list[int]:
        """The mask of a program's formula f under depth-d semantics for
        each d in 0..max_depth, where a box or diamond looks at successors
        through the depth-(d-1) masks of its operand, and at depth 0 every
        box holds and no diamond does.  A world's bit at depth d is the
        truth of f at a node of its unraveling with d levels below it.
        From the modal depth of f on, every entry is ``mask(f)``."""
        full, slots = self.full, self.model.slot_index
        shallower: dict[Formula, int] = {}  # the previous depth's masks

        def leaf(g: Formula, operand: int | None) -> int:
            if operand is None:
                return self._leaf(g, None)
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
        return out + out[-1:] * (max_depth + 1 - len(out))


def check(m: NModel, w: str, f: Formula) -> bool:
    """Truth of f at world w.  Letters missing from the valuation are false.

    f is evaluated on ``m.around(w, d)``, for the modal depth d of f: the
    worlds within d steps of w and the tuples of those within d - 1.  A
    formula of modal depth d is invariant under d-step bisimulation, so its
    truth at w is decided there, and none of m's own views is built
    unless every world is within reach."""
    program = syntax.compile_formula(f)
    near = m.around(w, syntax.program_depth(program))
    return bool(ModelEvaluator(near).run(program)[-1] >> near.index[w] & 1)


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
# decision phase belongs to the type space: a quick refutation of the
# root types, elimination down to the greatest self-supporting set, and
# the least support size k0 within it, with every set of types a mask
# over type indices.  A type's demands depend on its modal bits alone, so
# the types of one modal profile (the 2^|letters| consecutive indices
# that share those bits) are realizable together or not at all: the
# refutation and elimination ask one member per profile, and spend one
# step for each other member, what asking it would cost with the first
# member's covers in the memo.  Every demand pool is a modal operand's
# truth mask or its complement, so two types with the same truth in every
# operand are interchangeable as successors, and a dead end (every box bit
# set, every diamond bit clear) has no demands at all: the search for k0
# tries one dead end in place of all its twins (type elimination, Pratt
# 1979).  The witness itself is then recovered by enumerating models of
# k0 worlds in canonical order, so the returned witness is the
# canonically least one.


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            # a search stops at the first step past the limit, however
            # many steps one call stands for
            self.spent = self.limit + 1
            raise BudgetExceededError(
                f"search budget of {self.limit} steps exhausted"
            )


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _TypeSpace:
    """Truth tables over all world types of a formula, and the decision
    phase over them.

    A type index encodes one bit per letter (low bits, by name) and one
    bit per modal subformula (by ``formula_key``).  The program of f is
    run once over all types, with those bits as its leaf columns: bit t
    of a mask is the truth of its subformula under type t.  Every search
    step is spent from ``budget``, and set-cover answers are kept for the
    whole search.
    """

    def __init__(self, f: Formula, arity: int, budget: _Budget):
        self.arity = arity
        self.budget = budget
        program = syntax.compile_formula(f)
        nodes = [node for node, _, _, _ in program]
        keys = dict(zip(nodes, syntax.program_keys(program)))
        self.letters = sorted(g.name for g in nodes if type(g) is Letter)
        self.modals = sorted(
            (g for g in nodes if type(g) is Box or type(g) is Diamond),
            key=keys.__getitem__,
        )
        self.nbits = len(self.letters) + len(self.modals)
        if self.nbits > 22:
            raise BudgetExceededError(
                f"type space with {self.nbits} independent bits is too large"
            )
        self.count = 1 << self.nbits
        self.all_types = (1 << self.count) - 1
        budget.spend(self.count)
        atoms = [Letter(name) for name in self.letters] + self.modals
        columns = {g: syntax.bit_pattern(b, self.count) for b, g in enumerate(atoms)}
        masks = syntax.run_program(
            program, self.all_types, lambda g, operand: columns[g]
        )
        truth = dict(zip(nodes, masks))
        self.root_mask = masks[-1]
        # (kind, own truth, child truth) per modal subformula
        self.modal_info = [
            (type(g) is Box, truth[g], truth[g.operand]) for g in self.modals
        ]
        self._demands: dict[int, list[tuple[int, list[int]]]] = {}
        # (pool, hit pools) -> can ``arity`` slots cover the hit pools
        self._covers: dict[tuple[int, tuple[int, ...]], bool] = {}

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

    def demand_satisfiable(
        self, inside: int, constraints: list[int], u_mask: int
    ) -> bool:
        """Can an ``arity``-slot tuple be drawn from ``u_mask & inside`` so
        that each constraint pool is hit by at least one slot?"""
        pool = u_mask & inside
        if pool == 0:
            return False
        hit_pools = []
        for c in constraints:
            hp = pool & c
            if hp == 0:
                return False
            hit_pools.append(hp)
        if len(hit_pools) <= self.arity:
            return True
        key = (pool, tuple(hit_pools))
        cached = self._covers.get(key)
        if cached is not None:
            return cached
        # set cover by at most ``arity`` slots: the pool's types grouped by
        # the set of constraint pools each one hits, one bit-parallel split
        # per pool
        self.budget.spend()
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
        for _ in range(self.arity):
            reached = {s | c for s in reached for c in groups}
            if target in reached:
                break
        ok = self._covers[key] = target in reached
        return ok

    def realizable(self, t: int, u_mask: int) -> bool:
        """Can type t meet every demand with successors from ``u_mask``?
        The answer is the same for every type of t's modal profile, and
        asking again for another of them costs one step: its covers are
        in the memo by then."""
        self.budget.spend()
        return all(
            self.demand_satisfiable(inside, constraints, u_mask)
            for inside, constraints in self.demands(t)
        )

    def profile(self, t: int) -> int:
        """The mask of t's modal profile: the 2^|letters| consecutive
        types, one per letter valuation, that share the modal bits of t
        and so its demands."""
        low = len(self.letters)
        return ((1 << (1 << low)) - 1) << (t >> low << low)

    def _profiles(self, mask: int) -> Iterator[tuple[int, int]]:
        """The modal profiles present in ``mask``, lowest first: per
        profile, its least type in ``mask`` and its types in ``mask``."""
        while mask:
            t = (mask & -mask).bit_length() - 1
            members = mask & self.profile(t)
            yield t, members
            mask ^= members

    def roots_refuted(self) -> bool:
        """Is no root type realizable against every type at once?  Then
        none can occur, whatever the world bound.  A profile that fails is
        charged a step per further root of it; the first that holds ends
        the search, as asking type by type would."""
        for t, members in self._profiles(self.root_mask):
            if self.realizable(t, self.all_types):
                return False
            self.budget.spend(members.bit_count() - 1)
        return True

    def eliminate(self) -> int:
        """Greatest set of types each realizable against the set itself,
        asked once per modal profile present, with a step charged per
        further member, and each profile kept or dropped whole."""
        u_mask = self.all_types
        while True:
            survivors = 0
            for t, members in self._profiles(u_mask):
                if self.realizable(t, u_mask):
                    survivors |= members
                self.budget.spend(members.bit_count() - 1)
            if survivors == u_mask:
                return u_mask
            u_mask = survivors

    def dominated(self) -> int:
        """The types that agree with a lesser dead end on the truth of
        every modal operand.  A dead end has no demands, and every demand
        pool is such a truth mask or its complement, so in a
        self-supporting set any such type but the root can be replaced by
        its dead end: each successor tuple still fits, and the set gets no
        larger.  Each class of twins is the AND of every operand mask or
        its complement, one class per pattern of operand truths that some
        dead end has."""
        # the dead ends are the profile of every box bit set, from ``base``
        # on; per operand, its mask and its bits there
        base = sum(1 << j for j, (is_box, _, _) in enumerate(self.modal_info) if is_box)
        base <<= len(self.letters)
        ends = self.profile(base) >> base
        operands = [(child, child >> base & ends) for _, _, child in self.modal_info]
        dominated = 0
        while ends:  # the dead ends in no class yet
            v = (ends & -ends).bit_length() - 1
            twins, twin_ends = self.all_types, ends
            for child, at_ends in operands:
                if at_ends >> v & 1:
                    twins &= child
                    twin_ends &= at_ends
                else:
                    twins &= ~child
                    twin_ends &= ~at_ends
            dominated |= twins ^ 1 << base + v
            ends ^= twin_ends
        return dominated

    def min_support(self, star_mask: int, max_size: int) -> int | None:
        """Smallest size of a self-supporting set of types from
        ``star_mask`` containing a root type, or None if none exists within
        ``max_size``.  ``star_mask`` holds every dead end, as the result of
        ``eliminate`` does, so the dominated types need not be tried."""
        roots = self.root_mask & star_mask
        if not roots:
            return None
        candidates = star_mask & ~self.dominated()
        for k in range(1, max_size + 1):
            seen: set[int] = set()
            for root in _iter_bits(roots):
                if self._grow(candidates, k, 1 << root, seen):
                    return k
        return None

    def _grow(self, candidates: int, k: int, chosen: int, seen: set[int]) -> bool:
        """Can the types of ``chosen`` be extended, one unmet demand at a
        time and by types of ``candidates``, to a self-supporting set of at
        most k types?"""
        if chosen in seen:
            return False
        seen.add(chosen)
        self.budget.spend()
        for t in _iter_bits(chosen):
            for inside, constraints in self.demands(t):
                if self.demand_satisfiable(inside, constraints, chosen):
                    continue
                if chosen.bit_count() == k:
                    return False
                for cand in _iter_bits(candidates & inside & ~chosen):
                    if self._grow(candidates, k, chosen | 1 << cand, seen):
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


def _nnf(f: Formula) -> Formula:
    """f in negation normal form: negation on letters alone, the arrows
    expanded, and box and dia exchanged under negation (``~box g`` is
    ``dia ~g``).  Every connective of the result is monotone in its
    operands, box antitone and dia monotone in the relation."""

    def step(g: Formula, op: type, *parts: tuple[Formula, Formula]):
        # (g, ~g), both in negation normal form
        if op is Letter:
            return g, Not(g)
        if op is Top or op is Bottom:
            return g, Bottom() if op is Top else Top()
        if op is Not:
            return parts[0][::-1]
        if op is Box or op is Diamond:
            (pos, neg), dual = parts[0], Diamond if op is Box else Box
            return op(pos), dual(neg)
        (a, not_a), (b, not_b) = parts
        if op is And:
            return And(a, b), Or(not_a, not_b)
        if op is Or:
            return Or(a, b), And(not_a, not_b)
        if op is Implies:
            return Or(not_a, b), And(a, not_b)
        return Or(And(a, b), And(not_a, not_b)), Or(And(a, not_b), And(not_a, b))

    return syntax.fold(f, step)[0]


# at most this many valuations share one run of the compiled query; a
# power of two, so that it divides every valuation count above it
_MAX_BLOCKS = 1 << 12


def _ones(count: int, stride: int) -> int:
    """``count`` set bits ``stride`` apart, from bit 0 on."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


def _spread(x: int, count: int, stride: int) -> int:
    """Bits 0..count-1 of x moved to bits 0, stride, 2*stride, ...: the
    binary digits of x with stride - 1 zeros put between them."""
    return int(("0" * (stride - 1)).join(format(x, f"0{count}b")), 2)


class _Blocks:
    """Many valuations of a k-world candidate in one mask.  Valuation v
    is the v-th of ``itertools.product(subsets, repeat=k)``: world i's
    letter subset is digit i of v in base len(subsets), world 0's the most
    significant.  The valuations are cut into chunks of ``count`` (a power
    of two, as len(subsets) is); block b of chunk c holds valuation
    c*count + b, in bits b*(k+1) .. b*(k+1)+k: k world bits and a guard
    bit that stays 0 in every mask."""

    def __init__(self, num_worlds: int, letters: list[str]):
        k = self.k = num_worlds
        self.subsets = _letter_subsets(letters)
        self.width = k + 1
        self.valuations = len(self.subsets) ** k
        self.count = min(self.valuations, _MAX_BLOCKS)
        self.low = _ones(self.count, self.width)
        self.full = ((1 << k) - 1) * self.low
        self.guard = (1 << k) * self.low
        # per letter: bit d is set when letter subset d has the letter
        self._members = [
            sum(1 << d for d, s in enumerate(self.subsets) if name in s)
            for name in letters
        ]
        self._first = self._letter_masks(0)

    def _letter_masks(self, chunk: int) -> list[int]:
        per_world, count, width = len(self.subsets), self.count, self.width
        masks = []
        for members in self._members:
            mask = 0
            for i in range(self.k):
                # world i's subset changes every ``step`` valuations; the
                # chunk sees ``digits`` of its subsets in turn, ``run``
                # blocks each, repeated to fill the chunk
                step = per_world ** (self.k - 1 - i)
                run = min(step, count)
                digits = min(per_world, max(1, count // step))
                first = chunk * count // step % per_world
                seen = members >> first & (1 << digits) - 1
                column = _spread(seen, digits, run * width) * _ones(run, width)
                repeat = _ones(count // (digits * run), digits * run * width)
                mask |= column * repeat << i
            masks.append(mask)
        return masks

    def chunks(self) -> Iterator[list[int]]:
        """Per chunk, in order, each letter's mask."""
        yield self._first
        for chunk in range(1, self.valuations // self.count):
            yield self._letter_masks(chunk)

    def nonempty(self, x: int) -> int:
        """Bit 0 of each block of x that has a world bit set: adding
        2^k - 1 carries into the guard exactly there."""
        return ((x + self.full) & self.guard) >> self.k

    def modal(self, is_box: bool, operand: int, slot_index) -> int:
        """``_modal_mask`` in every block at once, with each slot set of
        ``slot_index`` repeated in every block."""
        low = self.low
        if is_box:
            bits = self.full
            for slots, sources in slot_index:
                bits &= ~((low ^ self.nonempty(operand & slots)) * sources)
            return bits
        outside = self.full ^ operand
        bits = 0
        for slots, sources in slot_index:
            bits |= (low ^ self.nonempty(outside & slots)) * sources
        return bits

    def assignment(self, chunk: int, block: int) -> list[tuple[str, ...]]:
        """The letter subset of each world under the valuation of a block."""
        index, digits = chunk * self.count + block, []
        for _ in range(self.k):
            index, d = divmod(index, len(self.subsets))
            digits.append(self.subsets[d])
        return digits[::-1]


def _tuple_at(index: int, names: Sequence[str], arity: int) -> tuple[str, ...]:
    """The tuple at ``index`` in the sorted list of all (arity + 1)-tuples
    over the sorted ``names``: slot j is the name at digit j of the index
    in base len(names), the most significant digit first."""
    slots = []
    for _ in range(arity + 1):
        index, digit = divmod(index, len(names))
        slots.append(names[digit])
    return tuple(slots[::-1])


def _walk_witness(
    f: Formula, arity: int, num_worlds: int, letters: list[str], budget: _Budget
) -> PointedModel:
    # The least (relation, valuation, world) satisfying f, with the budget
    # spent as if every candidate before it had been tried one by one.
    # One run of f's program checks a chunk of valuations of a relation
    # (``_Blocks``).  The relations come in a depth-first preorder, so a
    # relation R with last tuple l heads the subtree of the relations that
    # extend R by tuples after l.  Before R is run, the program is run
    # once for an upper bound over that whole subtree: f is put in
    # negation normal form, where every connective is monotone, so a box
    # read over R and a dia read over every candidate tuple bound f from
    # above; over every candidate, dia g holds at all worlds once g holds
    # at one (the tuple with that world in each slot).  A subtree whose
    # bound is empty holds no witness and is skipped with one ``spend`` of
    # its 2**(tuples after l) relations; a walk over more tuples than
    # budget steps is refused up front, so that charge never has more bits
    # than the budget has steps.
    last_index = num_worlds ** (arity + 1) - 1
    if last_index >= budget.limit:
        raise BudgetExceededError(
            f"witness walk over {num_worlds}**{arity + 1} candidate tuples"
            f" exceeds the search budget of {budget.limit} steps"
        )
    worlds = tuple(f"w{i}" for i in range(num_worlds))
    names = sorted(worlds)  # the candidate tuples' order: w10 before w2
    bit = {w: 1 << i for i, w in enumerate(worlds)}
    blocks = _Blocks(num_worlds, letters)
    program = syntax.compile_formula(_nnf(f))
    letter_at = {name: j for j, name in enumerate(letters)}
    letter_masks: list[int] = []
    slot_index: list[tuple[int, int]] = []

    # f over R, from the chunk's letter masks and R's slot index
    def exact(g: Formula, operand: int | None) -> int:
        if operand is None:
            return letter_masks[letter_at[g.name]]
        return blocks.modal(type(g) is Box, operand, slot_index)

    def bound(g: Formula, operand: int | None) -> int:
        if operand is not None and type(g) is Diamond:
            return blocks.nonempty(operand) * ((1 << num_worlds) - 1)
        return exact(g, operand)

    def run(leaf) -> int:
        return syntax.run_program(program, blocks.full, leaf)[-1]

    # the relation R: its candidate indices in increasing order, and per
    # prefix length d the slot index (slot set in each block -> source
    # mask) of the first d of them; a preorder step changes R's last tuple
    chosen: list[int] = []
    owns: list[dict[int, int]] = [{}]
    while True:
        last = chosen[-1] if chosen else -1
        slot_index = list(owns[-1].items())
        pruned = True
        for chunk, letter_masks in enumerate(blocks.chunks()):
            if not run(bound):
                budget.spend(blocks.count)
                continue
            pruned = False
            found = run(exact)
            if found:
                block, world = divmod((found & -found).bit_length() - 1, blocks.width)
                budget.spend(block + 1)
                assignment = blocks.assignment(chunk, block)
                m = make_model(
                    arity,
                    worlds,
                    [_tuple_at(i, names, arity) for i in chosen],
                    dict(zip(worlds, assignment)),
                )
                return PointedModel(m, worlds[world])
            budget.spend(blocks.count)
        if pruned:
            # the rest of the subtree: the extensions of the relation
            budget.spend(((1 << last_index - last) - 1) * blocks.valuations)
        # the next relation: extend by the next candidate while the subtree
        # is open and there is one, else drop the trailing last candidates
        # and advance the one before them
        if not pruned and last < last_index:
            chosen.append(last + 1)
        else:
            while chosen and chosen[-1] == last_index:
                chosen.pop()
            if not chosen:
                break
            chosen[-1] += 1
        del owns[len(chosen):]
        if (cells := len(chosen) * (arity + 1)) > MAX_WITNESS_CELLS:
            raise BudgetExceededError(
                f"a witness of arity {arity} would hold {cells} relation cells,"
                f" over the cap of {MAX_WITNESS_CELLS}"
            )
        own = owns[-1]
        source, *vector = _tuple_at(chosen[-1], names, arity)
        source, slots = bit[source], sum({bit[v] for v in vector}) * blocks.low
        if not own.get(slots, 0) & source:  # else the slot index is unchanged
            own = {**own, slots: own.get(slots, 0) | source}
        owns.append(own)
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
    space = _TypeSpace(f, arity, _Budget(budget))
    if space.roots_refuted():
        return None
    k0 = space.min_support(space.eliminate(), max_worlds)
    if k0 is None:
        return None
    return _walk_witness(f, arity, k0, space.letters, space.budget)
