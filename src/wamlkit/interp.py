"""Machine-checked counterexamples to Craig interpolation for every arity
n >= 2.

Each bundle carries two pointed n-models, a pair of jointly refutable
formulas true at the respective points, a bisimulation over their common
vocabulary linking the points, and a checkable derivation of the
refutation.  Together these witness that no interpolant in the shared
vocabulary can exist: an interpolant would transfer across the
bisimulation yet separate the two points.  Only soundness of the system
over the two models is used, so any extension valid on them inherits the
failure.
"""

from __future__ import annotations

import functools
from typing import Sequence

from . import bisim, proof, semantics, syntax
from .bisim import PairRelation
from .errors import BudgetExceededError, InvalidArgumentError
from .model import PointedModel, make_model, require_same_arity
from .proof import (
    KnAxiomJust,
    PLFromJust,
    ProofLine,
    ProofScript,
    REJust,
    RMJust,
    TautJust,
)
from .syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Letter,
    Node,
    Not,
    Or,
    Record,
    Top,
    conj,
    letters,
    print_formula,
)


class CounterexampleBundle(Record):
    __match_args__ = ("n", "left", "right", "phi", "psi", "z", "refutation")


def tag_letters(index: int, width: int) -> list[tuple[str, bool]]:
    """The letters r1..r_width of the tag of index, each with its sign:
    r_{b+1} is positive exactly when bit b of index-1 is set."""
    return [(f"r{b + 1}", bool(index - 1 >> b & 1)) for b in range(width)]


def binary_tag(index: int, width: int) -> Formula:
    """Conjunction of the literals of ``tag_letters(index, width)``.
    Distinct indices yield jointly unsatisfiable conjunctions."""
    return conj([
        Letter(name) if positive else Not(Letter(name))
        for name, positive in tag_letters(index, width)
    ])


def tag_width(n: int) -> int:
    """Least m with 2**m >= n - 1."""
    return max(n - 2, 0).bit_length()


def build_counterexample(n: int) -> CounterexampleBundle:
    """The counterexample bundle at arity n.  Point valuations are empty;
    the bisimulation alphabet is the single shared letter p.

    phi_n and psi_n box the n + 1 arguments of one axiom instance between
    them, and p is their only common letter.  The refutation of phi_n &
    psi_n is checkable in the arity-n system: the axiom instance,
    replacement of its pairwise disjunction by an equivalent target,
    box target from the boxes, then steps that play box target against
    the diamond conjunct.  The pair and the script for n = 2 are
    hand-crafted.  For n >= 3 the left side forces p at a successor of
    every tuple while the right side forces ~p, with pairwise-incompatible
    tags keeping the right boxes distinct: every disjunct is
    contradictory, and so is the target.  From n = 45 on the axiom
    instance is over ``proof.MAX_AXIOM_PAIRS``, and its
    ``BudgetExceededError`` comes before any model is built."""
    if n < 2:
        raise InvalidArgumentError("n must be >= 2")
    p, q, r = Letter("p"), Letter("q"), Letter("r")
    if n == 2:
        args = [Or(Not(p), Not(q)), And(p, r), And(p, Not(r))]
    else:
        args = [And(p, Not(q)), And(p, q)]
        if n == 3:
            args += [And(Not(p), r), And(Not(p), Not(r))]
        else:
            width = tag_width(n)
            args += [And(Not(p), binary_tag(i, width)) for i in range(1, n)]
    # the instance before the models: its size cap refuses a large n
    # before the relation of O(n**2) pairs is built
    subst = {f"p{i}": g for i, g in enumerate(args)}
    axiom = proof.kn_axiom(n, subst)
    if n == 2:
        phi = And(Box(args[0]), Diamond(q))
        psi = And(Box(args[1]), Box(args[2]))
        target = And(p, Not(q))
        after_line_3 = [
            ProofLine(
                Implies(And(phi, psi), And(Box(target), Diamond(q))),
                PLFromJust((3,)),
            ),
            ProofLine(Implies(target, Not(q)), TautJust()),
            ProofLine(Implies(Box(target), Box(Not(q))), RMJust(5)),
            ProofLine(
                Implies(And(phi, psi), And(Box(Not(q)), Not(Box(Not(q))))),
                PLFromJust((4, 6)),
            ),
            ProofLine(Implies(phi, Not(psi)), PLFromJust((7,))),
        ]
        left = make_model(
            2,
            ["w", "w1", "w2", "w3", "w4"],
            [("w", "w1", "w2"), ("w", "w3", "w4")],
            {"w1": ["p"], "w2": ["p"], "w3": ["p", "q"], "w4": ["q"]},
        )
        right = make_model(
            2,
            ["v", "v1", "v2"],
            [("v", "v1", "v2")],
            {"v1": ["p"], "v2": ["p", "r"]},
        )
        pairs = {("w", "v"), ("w1", "v1"), ("w2", "v2"), ("w3", "v1"), ("w3", "v2")}
    else:
        if n == 3:
            taut, target = Or(p, Not(p)), And(p, Not(p))
            left = make_model(
                3,
                ["w", "w1", "w2", "w3"],
                [("w", "w1", "w2", "w3")],
                {"w1": ["p"], "w2": ["p", "q"], "w3": ["q"]},
            )
            right = make_model(
                3,
                ["v", "v1", "v2", "v3"],
                [("v", "v1", "v2", "v3")],
                {"v1": ["r"], "v3": ["p", "r"]},
            )
            pairs = {
                ("w", "v"), ("w1", "v3"), ("w2", "v3"), ("w3", "v1"), ("w3", "v2")
            }
        else:
            taut, target = Top(), Bottom()
            left_worlds = ["w"] + [f"w{i}" for i in range(1, n + 1)]
            left_val = {"w1": ["p"], "w2": ["p", "q"]}
            left = make_model(n, left_worlds, [tuple(left_worlds)], left_val)
            right_worlds = ["v"] + [f"v{i}" for i in range(1, n + 1)]
            right_val: dict[str, list[str]] = {"v1": ["p"]}
            for i in range(1, n):
                right_val[f"v{i + 1}"] = [
                    name for name, positive in tag_letters(i, width) if positive
                ]
            right = make_model(n, right_worlds, [tuple(right_worlds)], right_val)
            pairs = {("w", "v"), ("w1", "v1"), ("w2", "v1")}
            pairs |= {
                (f"w{i}", f"v{j}") for i in range(3, n + 1) for j in range(2, n + 1)
            }
        phi = conj([Box(args[0]), Box(args[1]), Diamond(taut)])
        psi = conj([Box(g) for g in args[2:]] + [Diamond(taut)])
        after_line_3 = [
            ProofLine(Implies(target, Not(taut)), TautJust()),
            ProofLine(Implies(Box(target), Box(Not(taut))), RMJust(4)),
            ProofLine(Implies(phi, Not(psi)), PLFromJust((3, 5))),
        ]
    refutation = ProofScript(n, (
        ProofLine(axiom, KnAxiomJust(tuple(sorted(subst.items())))),
        ProofLine(Iff(axiom.right, Box(target)), REJust(None)),
        ProofLine(Implies(axiom.left, Box(target)), PLFromJust((1, 2))),
        *after_line_3,
    ))
    z = PairRelation.from_pairs(left, right, pairs, letters(phi) & letters(psi))
    return CounterexampleBundle(
        n=n,
        left=PointedModel(left, left.worlds[0]),
        right=PointedModel(right, right.worlds[0]),
        phi=phi,
        psi=psi,
        z=z,
        refutation=refutation,
    )


class ConditionReport(Node):
    __slots__ = __match_args__ = ("passed", "detail")


class InterpolationReport(Node):
    __slots__ = __match_args__ = (
        "n",
        "models_satisfy",
        "refutation_valid",
        "roots_indistinguishable",
        "joint_sat_corroboration",
        "note",
    )

    @property
    def passed(self) -> bool:
        return (
            self.models_satisfy.passed
            and self.refutation_valid.passed
            and self.roots_indistinguishable.passed
        )


_SWEEP_DEPTH = 2
_SWEEP_SIZE = 6

_NOTE = (
    "only soundness over these two models is used, so any extension of the "
    "system that stays valid on them also lacks interpolation"
)


@functools.lru_cache(maxsize=8)
def _sweep(alphabet: frozenset[str]) -> tuple[syntax.Instruction, ...]:
    """The program of the root sweep over ``alphabet``, built once per
    process: every formula up to modal depth ``_SWEEP_DEPTH`` and size
    ``_SWEEP_SIZE``."""
    return tuple(syntax.enumeration_program(alphabet, _SWEEP_DEPTH, _SWEEP_SIZE))


def first_disagreement(
    left: PointedModel, right: PointedModel, program: Sequence[syntax.Instruction]
) -> Formula | None:
    """The first formula of ``program`` true at one point and false at
    the other, or None.  The program (as ``syntax.enumeration_program``
    builds it) is run once, on the disjoint union of the two models."""
    lm, rm = left.model, right.model
    require_same_arity(lm, rm)
    # every world renamed with a tag of its side, so that left world i is
    # bit i of a mask and right world j is bit |W_left| + j
    sides = (("0", lm), ("1", rm))
    union = make_model(
        lm.arity,
        [tag + w for tag, m in sides for w in m.worlds],
        [tuple(tag + w for w in t) for tag, m in sides for t in m.relation],
        {tag + w: names for tag, m in sides for w, names in m.valuation.items()},
    )
    i, j = lm.index[left.point], len(lm.worlds) + rm.index[right.point]
    masks = semantics.ModelEvaluator(union).run(program)
    apart = [(x >> i ^ x >> j) & 1 for x in masks]
    return program[apart.index(1)][0] if 1 in apart else None


def verify_counterexample(
    bundle: CounterexampleBundle, sat_bound: int
) -> InterpolationReport:
    """Check the three counterexample conditions end to end.

    (1) each pointed model satisfies its formula; (2) the bundled script
    derives phi -> ~psi and checks, with a bounded joint-satisfiability
    search as corroborating (never authoritative) evidence; (3) the bundled
    relation is a bisimulation over the common vocabulary linking the two
    points, cross-checked by sweeping all small common-vocabulary formulas
    at the roots.  A refutation line over the tautology check's atom cap
    raises its ``BudgetExceededError``: an unchecked refutation is no
    failed condition.
    """
    if sat_bound < 1:
        raise InvalidArgumentError("sat_bound must be >= 1")
    b = bundle
    w, v = b.left.point, b.right.point

    sat_left = semantics.check(b.left.model, w, b.phi)
    sat_right = semantics.check(b.right.model, v, b.psi)
    models_satisfy = ConditionReport(
        sat_left and sat_right,
        f"left point satisfies phi: {sat_left}; "
        f"right point satisfies psi: {sat_right}",
    )

    expected_theorem = Implies(b.phi, Not(b.psi))
    if b.refutation.theorem() != expected_theorem:
        refutation_valid = ConditionReport(
            False, "script does not end in phi -> ~psi"
        )
    else:
        report = proof.check_script(b.refutation)
        refutation_valid = ConditionReport(
            report is None,
            "script checks"
            if report is None
            else f"line {report.line}: {report.reason}",
        )

    try:
        witness = semantics.bounded_sat(And(b.phi, b.psi), b.n, sat_bound)
        if witness is None:
            corroboration = ConditionReport(
                True, f"phi & psi unsatisfiable up to {sat_bound} worlds"
            )
        else:
            corroboration = ConditionReport(
                False,
                f"phi & psi satisfied at {witness.point} of a "
                f"{len(witness.model.worlds)}-world model",
            )
    except BudgetExceededError as e:
        corroboration = ConditionReport(True, f"search inconclusive: {e}")

    violation = bisim.check_bisim(b.z)
    if violation is not None:
        # a failed bisimulation check also deserves a distinguishing formula
        detail = violation.describe()
        separating = bisim.distinguishing_formula(
            b.left.model, w, b.right.model, v, b.z.alphabet
        )
        if separating is not None:
            detail += f"; points separated by {print_formula(separating)}"
        roots = ConditionReport(False, detail)
    elif v not in b.z.image.get(w, ()):
        roots = ConditionReport(False, "relation does not link the two points")
    else:
        disagreement = first_disagreement(b.left, b.right, _sweep(b.z.alphabet))
        if disagreement is None:
            roots = ConditionReport(
                True,
                "relation is a bisimulation over the common vocabulary and "
                "the points agree on all small common-vocabulary formulas",
            )
        else:
            roots = ConditionReport(
                False, f"points disagree on {print_formula(disagreement)}"
            )

    # corroboration finding an actual joint model would contradict soundness
    if not corroboration.passed:
        refutation_valid = ConditionReport(
            False,
            refutation_valid.detail + "; " + corroboration.detail,
        )

    return InterpolationReport(
        b.n, models_satisfy, refutation_valid, roots, corroboration, _NOTE
    )
