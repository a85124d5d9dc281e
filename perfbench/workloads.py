"""Seeded inputs for the two workloads, each query with its known answer.

Formulas are built here as small tuple trees and rendered to text, so the
program only ever sees argv strings and model files, and the oracle never
depends on the program's own parser.  Tree nodes:

    ("L", name)  ("T",)  ("F",)  ("not", a)  ("and", a, b)  ("or", a, b)
    ("imp", a, b)  ("box", a)  ("dia", a)

Every workload is a fixed composition of query classes (a "pass"); the seed
picks the concrete instances and the order inside each pass.  Runs execute
whole passes, so the share of each class in a run never depends on where
the clock stopped.  The latency percentiles are taken per pass, so they
land at a fixed rank among the classes on every seed, each in a block of
like queries whose cost is well apart from the classes around it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("sat-interp", "model-queries")

# passes generated per run; a run that needs more reuses them in order
PASSES = 24

LETTER_POOL = ("p", "q", "r", "s", "t", "u")


@dataclass
class Query:
    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Formula trees


def L(name):
    return ("L", name)


def conj(parts):
    f = parts[0]
    for g in parts[1:]:
        f = ("and", f, g)
    return f


def disj(parts):
    f = parts[0]
    for g in parts[1:]:
        f = ("or", f, g)
    return f


_BINARY = {"and": "&", "or": "|", "imp": "->"}


def render(f) -> str:
    op = f[0]
    if op == "L":
        return f[1]
    if op == "T":
        return "true"
    if op == "F":
        return "false"
    if op == "not":
        return "~" + render(f[1])
    if op in ("box", "dia"):
        return op + " " + render(f[1])
    return "(" + render(f[1]) + f" {_BINARY[op]} " + render(f[2]) + ")"


def modal_depth(f) -> int:
    op = f[0]
    if op in ("L", "T", "F"):
        return 0
    if op in ("box", "dia"):
        return 1 + modal_depth(f[1])
    return max(modal_depth(g) for g in f[1:])


def _shuffled(rng, parts):
    parts = list(parts)
    rng.shuffle(parts)
    return parts


def random_formula(rng: random.Random, letters, depth: int, fuel: int):
    """A formula of modal depth <= depth with about ``fuel`` nodes."""
    if fuel <= 1:
        return L(rng.choice(letters)) if rng.random() < 0.9 else ("T",)
    kind = rng.randrange(5)
    if kind == 0:
        return ("not", random_formula(rng, letters, depth, fuel - 1))
    if kind == 1 and depth > 0:
        wrap = rng.choice(("box", "dia"))
        return (wrap, random_formula(rng, letters, depth - 1, fuel - 1))
    half = (fuel - 1) // 2
    return (
        rng.choice(("and", "or")),
        random_formula(rng, letters, depth, half),
        random_formula(rng, letters, depth, fuel - 1 - half),
    )


# ---------------------------------------------------------------------------
# sat-interp, part 1: known-answer satisfiability families


def diamond_chain(rng):
    """~a & ~b & dia(a & ~b & dia(b & ~a & dia(a & b))): the four points
    carry four different valuations, so exactly 4 worlds are needed."""
    a, b = rng.sample(LETTER_POOL, 2)
    na, nb = ("not", L(a)), ("not", L(b))
    inner = conj(_shuffled(rng, [L(a), L(b)]))
    level2 = conj(_shuffled(rng, [L(b), na, ("dia", inner)]))
    level1 = conj(_shuffled(rng, [L(a), nb, ("dia", level2)]))
    return conj(_shuffled(rng, [na, nb, ("dia", level1)]))


def aggregation_failure(rng):
    """box a & box b & ~box(a & b): unsat at arity 1; at arity >= 2 one
    world cannot do it (both boxes force a & b onto the only slot) and two
    can, so the minimum is 2."""
    a, b = rng.sample(LETTER_POOL, 2)
    both = conj(_shuffled(rng, [L(a), L(b)]))
    return conj(_shuffled(rng, [("box", L(a)), ("box", L(b)), ("not", ("box", both))]))


def disjoint_diamonds(rng, k: int):
    """dia l1 & ... & dia lk & box ~(li & lj) for all i < j: satisfiable
    with k worlds at every arity (constant tuples over one world per
    letter).  One world never suffices, so 2 is the minimum for k = 2; at
    arity 1 the k successors must be distinct, so k is the minimum there."""
    names = rng.sample(LETTER_POOL, k)
    parts = [("dia", L(x)) for x in names]
    parts += [
        ("box", ("not", conj(_shuffled(rng, [L(x), L(y)]))))
        for i, x in enumerate(names)
        for y in names[i + 1 :]
    ]
    return conj(_shuffled(rng, parts))


def negated_kn_axiom(rng, n: int):
    """~(box l0 & ... & box ln -> box OR_{i<j} (li & lj)): the negation of
    an instance of the arity-n axiom, unsatisfiable by soundness."""
    names = rng.sample(LETTER_POOL, n + 1)
    boxes = conj([("box", L(x)) for x in names])
    pairs = disj(
        [("and", L(x), L(y)) for i, x in enumerate(names) for y in names[i + 1 :]]
    )
    return ("not", ("imp", boxes, ("box", pairs)))


def _sat_query(kind, f, arity, max_worlds, sat, min_worlds=None) -> Query:
    return Query(
        kind,
        ["sat", render(f), "--arity", str(arity), "--max-worlds", str(max_worlds)],
        {"formula": f, "arity": arity, "max_worlds": max_worlds, "sat": sat,
         "min_worlds": min_worlds},
    )


def sat_queries(rng: random.Random, tiny: bool) -> list[Query]:
    """25 queries: 15 decisions under 20 ms, then 10 witness walks of
    growing size (agg-a3 about 190 ms, chain-a1 and disj3-a1 about 300 ms,
    disj3-a2 about 740 ms, chain-a2 about 1.3 s)."""
    q = []
    for arity in (1, 2, 3):
        q.append(_sat_query(f"kn-neg-a{arity}", negated_kn_axiom(rng, arity), arity,
                            rng.choice((3, 4, 5)), False))
        q.append(_sat_query(f"chain-k3-a{arity}", diamond_chain(rng), arity, 3, False))
        for _ in range(2 if arity > 1 else 1):
            q.append(_sat_query(f"disj2-a{arity}", disjoint_diamonds(rng, 2), arity,
                                rng.choice((3, 4, 5)), True, 2))
    for _ in range(2):
        q.append(_sat_query("agg-a1", aggregation_failure(rng), 1,
                            rng.choice((3, 4, 5)), False))
        q.append(_sat_query("agg-a2", aggregation_failure(rng), 2,
                            rng.choice((3, 4, 5)), True, 2))
    if tiny:
        return q
    for _ in range(3):
        q.append(_sat_query("agg-a3", aggregation_failure(rng), 3,
                            rng.choice((3, 4, 5)), True, 2))
    for _ in range(2):
        q.append(_sat_query("chain-a1", diamond_chain(rng), 1,
                            rng.choice((4, 5)), True, 4))
        q.append(_sat_query("disj3-a1", disjoint_diamonds(rng, 3), 1,
                            rng.choice((3, 4, 5)), True, 3))
        q.append(_sat_query("disj3-a2", disjoint_diamonds(rng, 3), 2,
                            rng.choice((3, 4, 5)), True))
    q.append(_sat_query("chain-a2", diamond_chain(rng), 2,
                        rng.choice((4, 5)), True, 4))
    return q


# ---------------------------------------------------------------------------
# sat-interp, part 2: interpolation counterexamples, PASS at every n >= 2

# queries at each n: n2-n5 cost about 200-270 ms, n6 about 400 ms, n7
# about 780 ms and n8 about 1.6 s.  n = 9 is left out because one query
# takes about 3.4 s, see README.md
INTERP_MIX = {2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1}
INTERP_TINY_MIX = {2: 1, 3: 1}


def interp_queries(rng: random.Random, tiny: bool) -> list[Query]:
    mix = INTERP_TINY_MIX if tiny else INTERP_MIX
    return [
        Query(f"n{n}", ["interp", "demo", "--n", str(n),
                        "--sat-bound", str(rng.choice((2, 3)))], {"n": n})
        for n, count in mix.items()
        for _ in range(count)
    ]


def sat_interp_pass(rng: random.Random, tiny: bool) -> list[Query]:
    """One pass of 35 in seeded order.  The 15 cheap decisions fill ranks
    1-15, so the median (rank 18) lands among agg-a3 and n2-n4 (about
    170-230 ms).  The top five are disj3-a2 x2 and n7 (about 700 ms),
    chain-a2 and n8; the 90th percentile (rank 32) is the middle of the
    700 ms block, well apart from n6 below it and chain-a2 above it."""
    q = sat_queries(rng, tiny) + interp_queries(rng, tiny)
    rng.shuffle(q)
    return q


# ---------------------------------------------------------------------------
# model-queries: random covers of small base models
#
# A base model has four worlds carrying the four valuations over {p, q}, so
# no two base worlds are bisimilar.  A cover assigns every world of a
# larger model to a base world (its fiber) and lifts each base tuple of
# that fiber to one tuple into random members of the target fibers.  The
# fiber map is then a p-morphism, which fixes the known answers: two
# worlds of covers are (k-)bisimilar exactly when their fibers are, so the
# greatest bisimulation of a cover with itself is "same fiber", and
# between covers of two bases it follows from the 4x4 base bisimulation.

BASE_VALUATIONS = ([], ["p"], ["q"], ["p", "q"])
SMALL_SIZES = (5, 10, 20)
LARGE_SIZES = (150, 200)
MODEL_SIZES = SMALL_SIZES + (100,) + LARGE_SIZES
BASES = 4
ALPHABET = "p,q"


def random_base(rng: random.Random, tuples_per_world: int) -> dict:
    valuation = list(BASE_VALUATIONS)
    rng.shuffle(valuation)
    relation = set()
    for b in range(4):
        while sum(1 for t in relation if t[0] == b) < tuples_per_world:
            relation.add((b, rng.randrange(4), rng.randrange(4)))
    return {"valuation": valuation, "relation": sorted(relation)}


def random_cover(rng: random.Random, base: dict, n: int) -> tuple[dict, dict]:
    """A model of n worlds covering ``base``, and its fiber map."""
    fiber = [i % 4 for i in range(n)]
    rng.shuffle(fiber)
    members = {b: [i for i in range(n) if fiber[i] == b] for b in range(4)}
    relation = set()
    for x in range(n):
        for b, c1, c2 in base["relation"]:
            if b == fiber[x]:
                relation.add((x, rng.choice(members[c1]), rng.choice(members[c2])))
    data = {
        "arity": 2,
        "worlds": [f"w{i}" for i in range(n)],
        "relation": [[f"w{a}", f"w{b}", f"w{c}"] for a, b, c in sorted(relation)],
        "valuation": {f"w{i}": base["valuation"][fiber[i]] for i in range(n)},
    }
    return data, {f"w{i}": fiber[i] for i in range(n)}


def base_bisim(a: dict, b: dict) -> dict[tuple[int, int], int | None]:
    """Refinement on two base models: for each pair the stage at which it
    dies (0 = valuations differ), or None for bisimilar pairs."""
    succ_a = {x: [t[1:] for t in a["relation"] if t[0] == x] for x in range(4)}
    succ_b = {y: [t[1:] for t in b["relation"] if t[0] == y] for y in range(4)}
    death: dict[tuple[int, int], int | None] = {}
    alive = set()
    for x in range(4):
        for y in range(4):
            if a["valuation"][x] == b["valuation"][y]:
                alive.add((x, y))
                death[(x, y)] = None
            else:
                death[(x, y)] = 0
    stage = 0
    while True:
        stage += 1
        survivors = set()
        for x, y in alive:
            # forth: each left tuple is answered by a right tuple whose
            # every slot is related to some slot of the left one; back is
            # the mirror image
            forth = all(
                any(all(any((u, v) in alive for u in lt) for v in rt) for rt in succ_b[y])
                for lt in succ_a[x]
            )
            back = all(
                any(all(any((u, v) in alive for v in rt) for u in lt) for lt in succ_a[x])
                for rt in succ_b[y]
            )
            if forth and back:
                survivors.add((x, y))
            else:
                death[(x, y)] = stage
        if survivors == alive:
            return death
        alive = survivors


def _model_record(path: str, data: dict, fiber: dict, base_index: int):
    return SimpleNamespace(
        path=path,
        base=base_index,
        fiber=fiber,
        worlds=data["worlds"],
        relation={tuple(t) for t in data["relation"]},
        valuation={w: frozenset(ls) for w, ls in data["valuation"].items()},
    )


def model_setup(rng: random.Random, directory: Path, tiny: bool):
    """Write the model files; return the bases and the per-file records."""
    directory.mkdir(parents=True, exist_ok=True)
    sizes = SMALL_SIZES if tiny else MODEL_SIZES
    bases = [random_base(rng, 2) for _ in range(BASES)]
    # the locality base has three tuples per world, so every depth-5
    # unraveling has exactly 1 + 6 + ... + 6**5 = 9331 nodes
    bases.append(random_base(rng, 3))
    records = {}
    for bi, base in enumerate(bases):
        for n in sizes:
            data, fiber = random_cover(rng, base, n)
            path = str(directory / f"b{bi}-n{n}.json")
            Path(path).write_text(json.dumps(data, indent=1, sort_keys=True))
            records[(bi, n)] = _model_record(path, data, fiber, bi)
    return bases, records


def model_pass(rng: random.Random, tiny: bool, records, bisims) -> list[Query]:
    """One pass of 20: mc on small models (ranks 1-8) and on large ones
    (9-14), one locality sweep, one cross-pair bisimulation and one
    distinguishing formula on 100 worlds, and three self-pair
    bisimulations on 200 worlds (18-20).  The median (rank 10) lands in the
    large mc block, the 90th percentile (rank 18) in the self-pair block."""
    sizes = sorted({n for _, n in records})
    small = [n for n in SMALL_SIZES if n in sizes]
    large = [n for n in LARGE_SIZES if n in sizes] or small[-1:]
    mid = 100 if 100 in sizes else small[-1]
    plain = list(range(BASES))
    loc_base = BASES
    q = []
    for count, pool in ((8, small), (6, large)):
        for _ in range(count):
            m = records[(rng.choice(plain + [loc_base]), rng.choice(pool))]
            f = random_formula(rng, ["p", "q"], 2, rng.randint(4, 10))
            w = rng.choice(m.worlds)
            q.append(Query("mc", ["mc", m.path, w, render(f)],
                           {"model": m, "world": w, "formula": f}))
    m = records[(loc_base, mid)]
    f = random_formula(rng, ["p", "q"], 2, rng.randint(4, 10))
    w = rng.choice(m.worlds)
    q.append(Query("locality", ["experiment", "locality", m.path, w, render(f),
                                "--max-depth", "2" if tiny else "5"],
                   {"model": m, "world": w, "formula": f}))
    i, j = rng.sample(plain, 2)
    left, right = records[(i, mid)], records[(j, mid)]
    q.append(Query("bisim-cross", ["bisim", "max", left.path, right.path,
                                   "--letters", ALPHABET],
                   {"left": left, "right": right, "base": bisims[(i, j)]}))
    # a same-valuation pair, so the separating formula is modal; pairs
    # dying by stage 2 keep its modal depth <= 2
    pairs = [
        (i, j, x, y)
        for i in plain
        for j in plain
        if i != j
        for (x, y), stage in sorted(bisims[(i, j)].items())
        if stage != 0 and (stage is None or stage <= 2)
    ]
    i, j, x, y = rng.choice(pairs)
    left, right = records[(i, mid)], records[(j, mid)]
    w = rng.choice([u for u in left.worlds if left.fiber[u] == x])
    v = rng.choice([u for u in right.worlds if right.fiber[u] == y])
    q.append(Query("distinguish", ["bisim", "distinguish", left.path, w,
                                   right.path, v, "--letters", ALPHABET],
                   {"left": left, "right": right, "w": w, "v": v,
                    "distinguishable": bisims[(i, j)][(x, y)] is not None}))
    for _ in range(3):
        m = records[(rng.choice(plain), large[-1])]
        q.append(Query("bisim-self", ["bisim", "max", m.path, m.path,
                                      "--letters", ALPHABET],
                       {"left": m, "right": m, "base": bisims[(m.base, m.base)]}))
    rng.shuffle(q)
    return q


# ---------------------------------------------------------------------------


def build(name: str, seed: int, directory: Path, tiny: bool = False) -> list[list[Query]]:
    """Generate a workload: write its files under ``directory`` and draw
    PASSES passes of queries from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    if name == "sat-interp":
        return [sat_interp_pass(rng, tiny) for _ in range(PASSES)]
    bases, records = model_setup(rng, directory, tiny)
    bisims = {
        (i, j): base_bisim(bases[i], bases[j])
        for i in range(len(bases))
        for j in range(len(bases))
    }
    return [model_pass(rng, tiny, records, bisims) for _ in range(PASSES)]
