"""Tree unraveling of pointed n-models and p-morphism checking.

Unraveling nodes are paths of steps; a step is an n-vector of original
worlds plus a focused index in [1, n].  The root path holds the constant
vector over the start world with index 1.  A path may be extended by a
step (u1..un, i) whenever the original relation has a tuple from the
current focus to (u1..un).  The projection map sends a path to the focused
world of its last step; valuations are pulled back along it.  The new
(n+1)-ary relation connects a node to children whose projections form an
original relation tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import semantics
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    InvalidArgumentError,
    UnknownWorldError,
)
from .model import NModel, make_model
from .syntax import Formula

DEFAULT_NODE_BUDGET = 50_000

Step = tuple[tuple[str, ...], int]
Path = tuple[Step, ...]


@dataclass(frozen=True)
class UnravelResult:
    model: NModel
    root: str
    projection: dict[str, str]  # node id -> original world


def _node_id(path: Path) -> str:
    root_vector, _ = path[0]
    parts = [root_vector[0]]
    for vector, index in path[1:]:
        parts.append(",".join(vector) + ":" + str(index))
    return "#".join(parts)


def _focus(path: Path) -> str:
    vector, index = path[-1]
    return vector[index - 1]


def unravel(
    m: NModel, w: str, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> UnravelResult:
    """The bounded unraveling of (m, w) to the given level, as an n-model
    over canonical path ids, together with the root id and the projection
    map.  Nodes at the last level have no outgoing tuples.  Refuses to
    build more than ``max_nodes`` nodes, or more than ``max_nodes``
    relation tuples."""
    if w not in m.valuation:
        raise UnknownWorldError(f"unknown world {w!r}")
    if depth < 0:
        raise InvalidArgumentError("depth must be >= 0")
    succ = m.successors

    root: Path = (((w,) * m.arity, 1),)
    levels: list[list[Path]] = [[root]]
    children_of: dict[Path, list[Path]] = {}
    for level in range(depth):
        nxt: list[Path] = []
        for path in levels[level]:
            kids = [
                path + ((vector, index),)
                for vector in succ[_focus(path)]
                for index in range(1, m.arity + 1)
            ]
            children_of[path] = kids
            nxt.extend(kids)
        if sum(len(l) for l in levels) + len(nxt) > max_nodes:
            raise BudgetExceededError(
                f"unraveling to depth {depth} exceeds the {max_nodes}-node budget"
            )
        levels.append(nxt)

    nodes = [path for level in levels for path in level]
    ids = {path: _node_id(path) for path in nodes}
    projection = {ids[path]: _focus(path) for path in nodes}

    relation = set()
    tuples = 0
    for level in range(depth):
        for path in levels[level]:
            by_world: dict[str, list[Path]] = {}
            for child in children_of[path]:
                by_world.setdefault(_focus(child), []).append(child)
            for vector in succ[_focus(path)]:
                pools = [by_world.get(world, []) for world in vector]
                tuples += math.prod(map(len, pools))
                if tuples > max_nodes:
                    raise BudgetExceededError(
                        f"unraveling to depth {depth} exceeds the "
                        f"{max_nodes}-tuple budget"
                    )
                for combo in itertools.product(*pools):
                    relation.add((ids[path], *(ids[c] for c in combo)))

    valuation = {ids[path]: m.valuation[_focus(path)] for path in nodes}
    unravelled = make_model(
        m.arity, [ids[path] for path in nodes], relation, valuation
    )
    return UnravelResult(unravelled, ids[root], projection)


@dataclass(frozen=True)
class LocalitySweep:
    reference: bool  # truth of the formula at the original point
    agree: tuple[bool, ...]  # per depth 0..max_depth: the unraveling agrees
    least_stable_depth: int | None  # agreement holds from here on, if ever


def locality_sweep(
    m: NModel,
    w: str,
    f: Formula,
    max_depth: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> LocalitySweep:
    """Compare f at (m, w) with f at the root of the bounded unraveling of
    every depth up to ``max_depth``.  No optimality is asserted: agreement
    is only guaranteed from the modal depth of f on."""
    reference = semantics.check(m, w, f)
    agree = []
    least = None
    for depth in range(max_depth + 1):
        result = unravel(m, w, depth, max_nodes=max_nodes)
        agree.append(semantics.check(result.model, result.root, f) == reference)
        if not agree[-1]:
            least = None
        elif least is None:
            least = depth
    return LocalitySweep(reference, tuple(agree), least)


@dataclass(frozen=True)
class PmorphismViolation:
    condition: str  # "valuation" | "forward" | "back"
    detail: str


def check_pmorphism(
    source: NModel, target: NModel, f: dict[str, str]
) -> PmorphismViolation | None:
    """None when f is a p-morphism from source to target: valuations are
    preserved exactly, every source tuple maps to a target tuple, and
    every target tuple from an image lifts positionwise to a source tuple."""
    if source.arity != target.arity:
        raise ArityMismatchError(
            f"arities differ: {source.arity} vs {target.arity}"
        )
    for s in source.worlds:
        if s not in f:
            raise InvalidArgumentError(f"map is not total: missing {s!r}")
        if f[s] not in target.valuation:
            raise InvalidArgumentError(f"map sends {s!r} outside the target model")

    for s in source.worlds:
        if source.valuation[s] != target.valuation[f[s]]:
            return PmorphismViolation(
                "valuation", f"{s!r} and its image {f[s]!r} differ on letters"
            )
    for t in sorted(source.relation):
        image = tuple(f[v] for v in t)
        if image not in target.relation:
            return PmorphismViolation(
                "forward", f"image {list(image)} of {list(t)} is not a target tuple"
            )
    for s in source.worlds:
        for vector in target.successors[f[s]]:
            if not any(
                tuple(f[v] for v in st) == vector for st in source.successors[s]
            ):
                return PmorphismViolation(
                    "back",
                    f"target tuple {[f[s], *vector]} does not lift at {s!r}",
                )
    return None
