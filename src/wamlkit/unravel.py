"""Tree unraveling of pointed n-models and p-morphism checking.

Unraveling nodes are paths of steps; a step is an n-vector of original
worlds plus a focused index in [1, n].  The root path is the start world
alone.  A path may be extended by a step (u1..un, i) whenever the
original relation has a tuple from the current focus to (u1..un).  The
projection map sends a path to its focus, the focused world of its last
step; valuations are pulled back along it.  The new (n+1)-ary relation
connects a node to children whose projections form an original relation
tuple.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Iterator

from . import semantics
from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    UnknownWorldError,
)
from .model import NModel, make_model, require_same_arity
from .syntax import Formula, Node, Record, compile_formula, program_depth

DEFAULT_NODE_BUDGET = 50_000

# A locality sweep holds a mask per row, one row per depth, whatever its
# budget; sweeps of more rows are refused.
MAX_SWEEP_ROWS = 2_000_000


class UnravelResult(Record):
    # projection: node id -> original world
    __match_args__ = ("model", "root", "projection")


# the separators of node ids, and ``%`` itself, percent-escaped in world
# ids, so that distinct paths get distinct ids
_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in "%,:#"})


def _check_budget(max_nodes: int) -> None:
    if max_nodes < 1:
        raise InvalidArgumentError("budget must be >= 1")


def _over_budget(depth: int, max_nodes: int, unit: str) -> BudgetExceededError:
    return BudgetExceededError(
        f"unraveling to depth {depth} exceeds the {max_nodes}-{unit} budget"
    )


def unravel(
    m: NModel, w: str, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> UnravelResult:
    """The bounded unraveling of (m, w) to the given level, as an n-model
    over canonical path ids, together with the root id and the projection
    map.  Nodes at the last level have no outgoing tuples.  Refuses,
    before building anything, an unraveling of more than ``max_nodes``
    nodes or more than ``max_nodes`` relation tuples."""
    if w not in m.valuation:
        raise UnknownWorldError(f"unknown world {w!r}")
    if depth < 0:
        raise InvalidArgumentError("depth must be >= 0")
    _check_budget(max_nodes)
    # node counts grow with depth, exponentially along a cycle, so the
    # count stops at the first depth over the budget, and at the first
    # depth that adds nothing: every later depth repeats its counts
    for node_count, tuple_count in _sizes_until_stable(m, w, depth):
        if node_count > max_nodes:
            raise _over_budget(depth, max_nodes, "node")
    if tuple_count > max_nodes:  # the tuples at the requested depth
        raise _over_budget(depth, max_nodes, "tuple")
    succ = cache(m.vectors)

    # a node is (id, focus): the id names its path, the start world and
    # then per step the escaped vector and the focused index
    root = (w.translate(_ESCAPES), w)
    nodes = [root]
    level = [root]
    relation = set()
    for _ in range(depth):
        deeper = []
        for node_id, focus in level:
            by_world: dict[str, list[str]] = {}
            for vector in succ(focus):
                step = node_id + "#" + ",".join(u.translate(_ESCAPES) for u in vector)
                for index, x in enumerate(vector, start=1):
                    child = (f"{step}:{index}", x)
                    deeper.append(child)
                    by_world.setdefault(x, []).append(child[0])
            for vector in succ(focus):
                for combo in itertools.product(*(by_world[x] for x in vector)):
                    relation.add((node_id, *combo))
        if not deeper:
            break
        nodes += deeper
        level = deeper

    projection = dict(nodes)
    valuation = {node_id: m.valuation[focus] for node_id, focus in nodes}
    unravelled = make_model(m.arity, list(projection), relation, valuation)
    return UnravelResult(unravelled, root[0], projection)


class LocalitySweep(Node):
    # reference: the truth of the formula at the original point; agree:
    # per depth 0..max_depth, whether the unraveling agrees; least stable
    # depth: agreement holds from here on, if ever
    __slots__ = __match_args__ = ("reference", "agree", "least_stable_depth")


def unraveling_sizes(m: NModel, w: str, max_depth: int) -> Iterator[tuple[int, int]]:
    """The number of nodes and of relation tuples of the bounded
    unraveling of (m, w) to each depth 0..max_depth, counted per focus
    world without building it.  A node focused on u has fan_u(x) children
    focused on x, one per (vector, i) with vector_i = x among the
    successor vectors of u, and one tuple per choice of a child for each
    slot of each vector."""
    if w not in m.valuation:
        raise UnknownWorldError(f"unknown world {w!r}")
    fans: dict[int, tuple[dict[int, int], int]] = {}

    def fan(u: int) -> tuple[dict[int, int], int]:
        # the children of a u-node by focus, and the tuples it sources
        if u not in fans:
            rows = list(m.rows(u))
            counts: dict[int, int] = {}
            for vector in rows:
                for x in vector:
                    counts[x] = counts.get(x, 0) + 1
            tuples = sum(math.prod(counts[x] for x in vector) for vector in rows)
            fans[u] = counts, tuples
        return fans[u]

    level = {m.index[w]: 1}  # focus position -> nodes at the deepest level
    nodes, tuples = 1, 0
    yield nodes, tuples
    for _ in range(max_depth):
        deeper: dict[str, int] = {}
        for u, count in level.items():
            children, sourced = fan(u)
            tuples += count * sourced
            for x, k in children.items():
                deeper[x] = deeper.get(x, 0) + count * k
        nodes += sum(deeper.values())
        level = deeper
        yield nodes, tuples


def _sizes_until_stable(
    m: NModel, w: str, max_depth: int
) -> Iterator[tuple[int, int]]:
    """``unraveling_sizes`` up to the first depth whose counts equal the
    previous depth's: the unraveling has died out there."""
    previous = None
    for sizes in unraveling_sizes(m, w, max_depth):
        if sizes == previous:
            return
        yield sizes
        previous = sizes


def locality_sweep(
    m: NModel,
    w: str,
    f: Formula,
    max_depth: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> LocalitySweep:
    """Compare f at (m, w) with f at the root of the bounded unraveling of
    every depth up to ``max_depth``.  No optimality is asserted: agreement
    is only guaranteed from the modal depth of f on.

    The root of the depth-d unraveling satisfies f iff w does under
    depth-d semantics, so no unraveling is built; the ``max_nodes`` budget
    still bounds the unravelings' nodes and tuples, as ``unravel`` does.
    It bounds the sweep's ``max_depth + 1`` rows too, which an unraveling
    that dies out leaves unbounded otherwise; they are checked last,
    before any depth is evaluated.  Rows over ``MAX_SWEEP_ROWS`` are
    refused first, before the unravelings are counted.

    The formula is evaluated, at every depth, on ``m.around(w, d)`` for
    its modal depth d: under depth-k semantics it reads no world farther
    than min(k, d) steps from w.  The budget counts the unravelings of
    the whole model."""
    if w not in m.valuation:
        raise UnknownWorldError(f"unknown world {w!r}")
    if max_depth < 0:
        raise InvalidArgumentError("max_depth must be >= 0")
    _check_budget(max_nodes)
    if max_depth + 1 > MAX_SWEEP_ROWS:
        raise BudgetExceededError(
            f"a sweep to depth {max_depth} has {max_depth + 1} rows, "
            f"over the cap of {MAX_SWEEP_ROWS}"
        )
    for depth, (nodes, tuples) in enumerate(_sizes_until_stable(m, w, max_depth)):
        if nodes > max_nodes:
            raise _over_budget(depth, max_nodes, "node")
        if tuples > max_nodes:
            raise _over_budget(depth, max_nodes, "tuple")
    if max_depth + 1 > max_nodes:
        raise BudgetExceededError(
            f"a sweep to depth {max_depth} has {max_depth + 1} rows, "
            f"over the {max_nodes}-row budget"
        )
    program = compile_formula(f)
    near = m.around(w, program_depth(program))
    ev = semantics.ModelEvaluator(near)
    bit = near.index[w]
    reference = bool(ev.run(program)[-1] >> bit & 1)
    agree = tuple(
        bool(bits >> bit & 1) == reference for bits in ev.depth_masks(program, max_depth)
    )
    least = None
    for depth, agrees in enumerate(agree):
        if not agrees:
            least = None
        elif least is None:
            least = depth
    return LocalitySweep(reference, agree, least)


class PmorphismViolation(Node):
    # condition: "valuation" | "forward" | "back"
    __slots__ = __match_args__ = ("condition", "detail")


def check_pmorphism(
    source: NModel, target: NModel, f: dict[str, str]
) -> PmorphismViolation | None:
    """None when f is a p-morphism from source to target: valuations are
    preserved exactly, every source tuple maps to a target tuple, and
    every target tuple from an image lifts positionwise to a source tuple."""
    require_same_arity(source, target)
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
    target_vectors = cache(target.vectors)
    for s in source.worlds:
        lifted = {tuple(map(f.__getitem__, st)) for st in source.vectors(s)}
        for vector in target_vectors(f[s]):
            if vector not in lifted:
                return PmorphismViolation(
                    "back",
                    f"target tuple {[f[s], *vector]} does not lift at {s!r}",
                )
    return None
