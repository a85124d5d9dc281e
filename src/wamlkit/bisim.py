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

import math
from dataclasses import dataclass

from . import semantics
from .errors import ArityMismatchError, InvalidArgumentError, UnknownWorldError
from .model import NModel
from .syntax import And, Bottom, Box, Diamond, Formula, Letter, Not, Or, Top, conj, disj

Pair = tuple[str, str]


@dataclass(frozen=True)
class PairRelation:
    left: NModel
    right: NModel
    pairs: frozenset[Pair]
    alphabet: frozenset[str]


@dataclass(frozen=True)
class BisimViolation:
    pair: Pair
    condition: str  # "inv" | "forth" | "back"
    witness_tuple: tuple[str, ...] | None

    def describe(self) -> str:
        where = f"pair ({self.pair[0]}, {self.pair[1]})"
        if self.witness_tuple is None:
            return f"{where} fails inv: letter valuations differ on the alphabet"
        return (
            f"{where} fails {self.condition}: "
            f"tuple {list(self.witness_tuple)} has no matching tuple"
        )


def _require_same_arity(left: NModel, right: NModel) -> None:
    if left.arity != right.arity:
        raise ArityMismatchError(
            f"arities differ: {left.arity} vs {right.arity}"
        )


def _pair_order(left: NModel, right: NModel):
    lpos = {w: i for i, w in enumerate(left.worlds)}
    rpos = {w: i for i, w in enumerate(right.worlds)}
    return lambda pair: (lpos[pair[0]], rpos[pair[1]])


def _forth_failure(a, b, z, lsucc, rsucc):
    """First left tuple from a that no right tuple from b can answer."""
    for lt in lsucc[a]:
        if not any(
            all(any((v, u) in z for v in lt) for u in rt) for rt in rsucc[b]
        ):
            return lt
    return None


def _back_failure(a, b, z, lsucc, rsucc):
    for rt in rsucc[b]:
        if not any(
            all(any((v, u) in z for u in rt) for v in lt) for lt in lsucc[a]
        ):
            return rt
    return None


def check_bisim(z: PairRelation) -> BisimViolation | None:
    """None when z is a wa^n-bisimulation over its alphabet; otherwise the
    first failing pair with the violated condition and offending tuple."""
    _require_same_arity(z.left, z.right)
    if not z.pairs:
        raise InvalidArgumentError("a bisimulation candidate must be nonempty")
    for a, b in sorted(z.pairs):
        if a not in z.left.valuation:
            raise UnknownWorldError(f"unknown left world {a!r}")
        if b not in z.right.valuation:
            raise UnknownWorldError(f"unknown right world {b!r}")
    lsucc = z.left.successors
    rsucc = z.right.successors
    for a, b in sorted(z.pairs, key=_pair_order(z.left, z.right)):
        if z.left.valuation[a] & z.alphabet != z.right.valuation[b] & z.alphabet:
            return BisimViolation((a, b), "inv", None)
        lt = _forth_failure(a, b, z.pairs, lsucc, rsucc)
        if lt is not None:
            return BisimViolation((a, b), "forth", (a, *lt))
        rt = _back_failure(a, b, z.pairs, lsucc, rsucc)
        if rt is not None:
            return BisimViolation((a, b), "back", (b, *rt))
    return None


# ---------------------------------------------------------------------------
# Stratified refinement
#
# Stage 0 relates all pairs agreeing on the alphabet; stage k+1 keeps the
# stage-k pairs whose forth/back obligations can be answered within stage
# k.  The chain decreases on a finite lattice, so it stabilizes at the
# greatest bisimulation.  While refining we record, for every pair that
# dies, a formula true on the left world and false on the right one,
# assembled from the certificates of the previous stage.


def _dedupe(parts: list[Formula]) -> list[Formula]:
    seen = set()
    out = []
    for p in parts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


class _Refinement:
    def __init__(self, left: NModel, right: NModel, alphabet: frozenset[str]):
        _require_same_arity(left, right)
        self.left = left
        self.right = right
        self.alphabet = alphabet
        self.lsucc = left.successors
        self.rsucc = right.successors
        self.order = _pair_order(left, right)
        self.certificates: dict[Pair, Formula] = {}
        self.stages = [self._stage_zero()]

    def _stage_zero(self) -> frozenset[Pair]:
        pairs = set()
        for a in self.left.worlds:
            for b in self.right.worlds:
                la = self.left.valuation[a] & self.alphabet
                lb = self.right.valuation[b] & self.alphabet
                if la == lb:
                    pairs.add((a, b))
                else:
                    name = min(la ^ lb)
                    cert = Letter(name) if name in la else Not(Letter(name))
                    self.certificates[(a, b)] = cert
        return frozenset(pairs)

    def _forth_certificate(self, a, b, lt, z) -> Formula:
        # some left tuple is unanswered: every right tuple contains a
        # successor unrelated to every slot of lt, so a diamond over lt's
        # slot certificates separates a from b
        bad = sorted(
            {
                u
                for rt in self.rsucc[b]
                for u in rt
                if all((v, u) not in z for v in lt)
            }
        )
        disjuncts = _dedupe(
            [
                conj(_dedupe([self.certificates[(v, u)] for u in bad]))
                for v in lt
            ]
        )
        return Diamond(disj(disjuncts))

    def _back_certificate(self, a, b, rt, z) -> Formula:
        bad = sorted(
            {
                v
                for lt in self.lsucc[a]
                for v in lt
                if all((v, u) not in z for u in rt)
            }
        )
        disjuncts = _dedupe(
            [
                conj(_dedupe([Not(self.certificates[(v, u)]) for v in bad]))
                for u in rt
            ]
        )
        return Not(Diamond(disj(disjuncts)))

    def refine_once(self) -> bool:
        """Run one stage; False when already stable."""
        z = self.stages[-1]
        survivors = set()
        for a, b in sorted(z, key=self.order):
            lt = _forth_failure(a, b, z, self.lsucc, self.rsucc)
            if lt is not None:
                self.certificates[(a, b)] = self._forth_certificate(a, b, lt, z)
                continue
            rt = _back_failure(a, b, z, self.lsucc, self.rsucc)
            if rt is not None:
                self.certificates[(a, b)] = self._back_certificate(a, b, rt, z)
                continue
            survivors.add((a, b))
        if len(survivors) == len(z):
            return False
        self.stages.append(frozenset(survivors))
        return True

    def run(self, max_stage: int | None = None) -> None:
        while max_stage is None or len(self.stages) - 1 < max_stage:
            if not self.refine_once():
                break


def k_bisim(
    left: NModel, right: NModel, alphabet: frozenset[str] | set[str], k: int
) -> PairRelation:
    """The stage-k relation of the refinement: decreasing in k, equal to
    the greatest bisimulation once k reaches the pair count."""
    refinement = _Refinement(left, right, frozenset(alphabet))
    refinement.run(max_stage=k)
    stage = refinement.stages[min(k, len(refinement.stages) - 1)]
    return PairRelation(left, right, stage, frozenset(alphabet))


def greatest_bisim(
    left: NModel, right: NModel, alphabet: frozenset[str] | set[str]
) -> PairRelation:
    """Union of all wa^n-bisimulations between the two models over the
    alphabet (possibly empty)."""
    refinement = _Refinement(left, right, frozenset(alphabet))
    refinement.run()
    return PairRelation(left, right, refinement.stages[-1], frozenset(alphabet))


# ---------------------------------------------------------------------------
# Distinguishing formulas

def _flatten(g: Formula, cls) -> list[Formula]:
    if isinstance(g, cls):
        return _flatten(g.left, cls) + _flatten(g.right, cls)
    return [simplify_boolean(g)]


def simplify_boolean(f: Formula) -> Formula:
    """Flatten and/or chains, drop duplicate and neutral operands.  Purely
    structural; preserves truth at every world."""

    match f:
        case And():
            parts = _dedupe([p for p in _flatten(f, And) if not isinstance(p, Top)])
            if any(isinstance(p, Bottom) for p in parts):
                return Bottom()
            return conj(parts)
        case Or():
            parts = _dedupe([p for p in _flatten(f, Or) if not isinstance(p, Bottom)])
            if any(isinstance(p, Top) for p in parts):
                return Top()
            return disj(parts)
        case Not(g):
            return Not(simplify_boolean(g))
        case Box(g):
            return Box(simplify_boolean(g))
        case Diamond(g):
            return Diamond(simplify_boolean(g))
        case _:
            return f


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
    refinement = _Refinement(left, right, frozenset(alphabet))
    refinement.run()
    if (w, v) in refinement.stages[-1]:
        return None
    raw = refinement.certificates[(w, v)]
    lev = semantics.ModelEvaluator(left)
    rev = semantics.ModelEvaluator(right)
    for candidate in (simplify_boolean(raw), raw):
        if lev.holds(w, candidate) and not rev.holds(v, candidate):
            return candidate
    raise AssertionError("refinement produced an unverifiable certificate")


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
    adjacency: dict[str, set[str]] = {w: set() for w in m.worlds}
    for tup in m.relation:
        for v in tup[1:]:
            adjacency[tup[0]].add(v)
            adjacency[v].add(tup[0])
    frontier = {s}
    visited = {s}
    steps = 0
    while frontier:
        steps += 1
        frontier = {
            nxt
            for cur in frontier
            for nxt in adjacency[cur]
            if nxt not in visited
        }
        if t in frontier:
            return steps
        visited |= frontier
    return math.inf
