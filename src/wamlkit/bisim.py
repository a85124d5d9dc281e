"""wa^n-bisimulations: verification, greatest fixpoint, k-stratification,
distinguishing formulas, and the derived distance metric.

A relation Z between two n-models is a wa^n-bisimulation over alphabet A
when related worlds agree on the letters in A and the forth/back
conditions hold: for wZw' and a tuple (w, v1..vn), some tuple
(w', v1'..vn') exists such that every v'_j has some v_i with v_i Z v'_j
(indices independent), and symmetrically from the right.  The matching is
slot-to-some-slot, mirroring the forall/exists alternation of box.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import cache, cached_property

from . import semantics
from .errors import InvalidArgumentError, UnknownWorldError
from .model import NModel, PairImage, require_same_arity
from .syntax import Diamond, Formula, Letter, Node, Not, Record, conj, disj

Pair = tuple[str, str]


class PairRelation(Record):
    # image: a PairImage; ``pairs`` is its flat view, built on first use
    __match_args__ = ("left", "right", "image", "alphabet")

    @classmethod
    def from_pairs(cls, left, right, pairs, alphabet) -> PairRelation:
        """The relation of pairs in any order, duplicates allowed."""
        partners = defaultdict(set)
        for a, b in pairs:
            partners[a].add(b)
        image = PairImage((a, tuple(sorted(partners[a]))) for a in sorted(partners))
        return cls(left, right, image, alphabet)

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        """The pairs in sorted order, each once."""
        return tuple((a, b) for a, partners in self.image.items() for b in partners)


class BisimViolation(Node):
    # condition: "inv" | "forth" | "back"
    __slots__ = __match_args__ = ("pair", "condition", "witness_tuple")

    def describe(self) -> str:
        where = f"pair ({self.pair[0]}, {self.pair[1]})"
        if self.witness_tuple is None:
            return f"{where} fails inv: letter valuations differ on the alphabet"
        return (
            f"{where} fails {self.condition}: "
            f"tuple {list(self.witness_tuple)} has no matching tuple"
        )


def _unanswered(tuples, answers, z):
    """The first of ``tuples`` that no tuple of ``answers`` answers: an
    answer has every slot related by z to some slot of the tuple.  Forth
    asks it of a left world's tuples against a right world's, with z the
    relation; back asks it the other way round, with z its converse."""
    for t in tuples:
        if not any(all(any((v, u) in z for v in t) for u in a) for a in answers):
            return t
    return None


def check_bisim(z: PairRelation) -> BisimViolation | None:
    """None when z is a wa^n-bisimulation over its alphabet; otherwise the
    first failing pair with the violated condition and offending tuple."""
    require_same_arity(z.left, z.right)
    if not z.image:
        raise InvalidArgumentError("a bisimulation candidate must be nonempty")
    for a, partners in z.image.items():
        if a not in z.left.valuation:
            raise UnknownWorldError(f"unknown left world {a!r}")
        if unknown := [b for b in partners if b not in z.right.valuation]:
            raise UnknownWorldError(f"unknown right world {unknown[0]!r}")
    lsucc, rsucc = cache(z.left.vectors), cache(z.right.vectors)
    lpos, rpos = z.left.index, z.right.index
    pairs = set(z.pairs)
    converse = {(b, a) for a, b in pairs}
    for a, b in sorted(pairs, key=lambda p: (lpos[p[0]], rpos[p[1]])):
        if z.left.valuation[a] & z.alphabet != z.right.valuation[b] & z.alphabet:
            return BisimViolation((a, b), "inv", None)
        lt = _unanswered(lsucc(a), rsucc(b), pairs)
        if lt is not None:
            return BisimViolation((a, b), "forth", (a, *lt))
        rt = _unanswered(rsucc(b), lsucc(a), converse)
        if rt is not None:
            return BisimViolation((a, b), "back", (b, *rt))
    return None


# ---------------------------------------------------------------------------
# Stratified refinement
#
# wa^n-bisimulations contain the identity and are closed under converse and
# composition, so each stage is a partition of the disjoint union of the two
# models (Kanellakis & Smolka 1990).  Stage 0 groups worlds by their letters
# in the alphabet; a world's stage-k+1 signature is its stage-k block and
# the ⊆-minimal stage-k block sets of its successor tuples, which agree
# exactly when forth and back hold within stage k.  A stage ORs a block mask
# per tuple with ``NModel.row_masks``, one list of them per world.


def _dedupe(parts: list[Formula]) -> list[Formula]:
    return list(dict.fromkeys(parts))


def _number(keys: list) -> list[int]:
    """Block ids, numbered by first appearance."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _minimal(masks: set[int]) -> frozenset[int]:
    """The ⊆-minimal members of a set of block bitmasks."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return frozenset(kept)


class _Partition:
    """The refinement of two models' disjoint union: ``stages[k][x]`` is the
    stage-k block of union number x.  ``_minimal`` runs once per distinct
    set of tuple masks in a stage."""

    def __init__(
        self, left: NModel, right: NModel, alphabet: frozenset[str], max_stage=None
    ):
        require_same_arity(left, right)
        self.left, self.right, self.alphabet = left, right, alphabet
        # left world i is number i of the union, right world j is |W| + j.
        # A model with itself is refined as one copy: numbered by first
        # appearance, the second copy would get the first copy's block ids
        # at every stage and add no block
        self.lpos = left.index
        if right is left:
            self.rpos = self.lpos
            sides = ((0, left),)
        else:
            self.rpos = {w: len(left.worlds) + j for w, j in right.index.items()}
            sides = ((0, left), (len(left.worlds), right))
        blocks = _number([m.valuation[w] & alphabet for _, m in sides for w in m.worlds])
        self.stages = [blocks]  # one block list per stage, by union number
        # stable once the block count stops growing
        while max_stage is None or len(self.stages) <= max_stage:
            bits = [1 << b for b in blocks]
            sets = []
            for start, m in sides:
                own = bits[start:start + len(m.worlds)]
                sets += map(frozenset, m.row_masks(own.__getitem__))
            minimal = {s: _minimal(s) for s in set(sets)}
            refined = _number(list(zip(blocks, map(minimal.__getitem__, sets))))
            if len(set(refined)) == len(set(blocks)):
                break
            self.stages.append(blocks := refined)

    def relation(self) -> PairRelation:
        """The cross pairs sharing a last-stage block: each left world in
        sorted order, mapped to its block's right worlds, one sorted tuple."""
        blocks = self.stages[-1]
        group = defaultdict(list)
        for b in sorted(self.rpos):
            group[blocks[self.rpos[b]]].append(b)
        partners = {block: tuple(worlds) for block, worlds in group.items()}
        lefts = [(a, blocks[self.lpos[a]]) for a in sorted(self.lpos)]
        image = PairImage((a, partners[k]) for a, k in lefts if k in partners)
        return PairRelation(self.left, self.right, image, self.alphabet)

    def certificate(self, pair: Pair) -> Formula | None:
        """A formula true at the left world and false at the right one, or
        None when the pair never dies.  A pair dying at stage d answers its
        first forth or back failure within stage d-1 with certificates of
        pairs that died earlier (Cleaveland 1990); only the pairs needed
        get one, found by a worklist and built by increasing death stage."""
        lsucc, rsucc = cache(self.left.vectors), cache(self.right.vectors)
        certs: dict[Pair, Formula] = {}
        plans: dict[Pair, tuple] = {}
        todo = [pair]
        while todo:
            a, b = p = todo.pop()
            if p in certs or p in plans:
                continue
            x, y = self.lpos[a], self.rpos[b]
            d = next((k for k, s in enumerate(self.stages) if s[x] != s[y]), None)
            if d is None:
                return None
            if d == 0:
                la = self.left.valuation[a] & self.alphabet
                name = min(la ^ (self.right.valuation[b] & self.alphabet))
                certs[p] = Letter(name) if name in la else Not(Letter(name))
                continue
            # the stage-(d-1) pairs among the successors of a and b
            vs = {v for lt in lsucc(a) for v in lt}
            us = {u for rt in rsucc(b) for u in rt}
            s = self.stages[d - 1]
            z = {(v, u) for v in vs for u in us if s[self.lpos[v]] == s[self.rpos[u]]}
            lt = _unanswered(lsucc(a), rsucc(b), z)
            if lt is not None:
                # every right tuple contains a successor unrelated to every
                # slot of lt, so a diamond over lt's slot certificates
                # separates a from b
                bad = sorted(u for u in us if all((v, u) not in z for v in lt))
                groups = [[(v, u) for u in bad] for v in lt]
            else:
                rt = _unanswered(rsucc(b), lsucc(a), {(u, v) for v, u in z})
                bad = sorted(v for v in vs if all((v, u) not in z for u in rt))
                groups = [[(v, u) for v in bad] for u in rt]
            plans[p] = (d, lt is not None, groups)
            todo.extend(q for g in groups for q in g)
        for p, (_, forth, groups) in sorted(plans.items(), key=lambda i: i[1][0]):
            f = Diamond(disj(_dedupe([
                conj(_dedupe([certs[q] if forth else Not(certs[q]) for q in g]))
                for g in groups
            ])))
            certs[p] = f if forth else Not(f)
        return certs[pair]


def k_bisim(
    left: NModel, right: NModel, alphabet: frozenset[str] | set[str], k: int
) -> PairRelation:
    """The stage-k relation of the refinement: decreasing in k, equal to
    the greatest bisimulation once k reaches the pair count."""
    if k < 0:
        raise InvalidArgumentError("k must be >= 0")
    return _Partition(left, right, frozenset(alphabet), max_stage=k).relation()


def greatest_bisim(
    left: NModel, right: NModel, alphabet: frozenset[str] | set[str]
) -> PairRelation:
    """Union of all wa^n-bisimulations between the two models over the
    alphabet (possibly empty)."""
    return _Partition(left, right, frozenset(alphabet)).relation()


# ---------------------------------------------------------------------------
# Distinguishing formulas

def distinguishing_formula(
    left: NModel,
    w: str,
    right: NModel,
    v: str,
    alphabet: frozenset[str] | set[str],
) -> Formula | None:
    """A formula over the alphabet true at w and false at v, or None when
    the pair is bisimilar.  The result is verified against both models
    before being returned; its modal depth is at most the refinement stage
    at which the pair died."""
    if w not in left.valuation:
        raise UnknownWorldError(f"unknown left world {w!r}")
    if v not in right.valuation:
        raise UnknownWorldError(f"unknown right world {v!r}")
    f = _Partition(left, right, frozenset(alphabet)).certificate((w, v))
    if f is None:
        return None
    if not semantics.check(left, w, f) or semantics.check(right, v, f):
        raise AssertionError("refinement produced an unverifiable certificate")
    return f


# ---------------------------------------------------------------------------
# Distance

def distance(m: NModel, s: str, t: str) -> int | float:
    """Length of the shortest undirected path between s and t along the
    derived binary step relation (source world to any tuple member);
    ``math.inf`` when disconnected."""
    if s not in m.valuation:
        raise UnknownWorldError(f"unknown world {s!r}")
    if t not in m.valuation:
        raise UnknownWorldError(f"unknown world {t!r}")
    if s == t:
        return 0
    near: list[set[int]] = [set() for _ in m.worlds]  # position -> its step partners
    for u in range(len(m.worlds)):
        for v in itertools.chain.from_iterable(m.rows(u)):
            near[u].add(v)
            near[v].add(u)
    frontier, visited, goal = {m.index[s]}, {m.index[s]}, m.index[t]
    steps = 0
    while frontier:
        steps += 1
        frontier = set().union(*map(near.__getitem__, frontier)) - visited
        if goal in frontier:
            return steps
        visited |= frontier
    return math.inf
