import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wamlkit import semantics
from wamlkit.bisim import distance, k_bisim
from wamlkit.errors import (
    BudgetExceededError,
    InvalidArgumentError,
    UnknownWorldError,
)
from wamlkit.model import load, make_model, random_model, validate
from wamlkit.semantics import ModelEvaluator
from wamlkit.syntax import compile_formula, enumeration_program, modal_depth, parse, random_formula
from wamlkit.unravel import (
    DEFAULT_NODE_BUDGET,
    MAX_SWEEP_ROWS,
    LocalitySweep,
    UnravelResult,
    check_pmorphism,
    locality_sweep,
    unravel,
    unraveling_sizes,
)

from conftest import fixture, random_sparse_model


@pytest.fixture(scope="module")
def cyclic():
    return load(fixture("cycle.json").read_bytes())


def test_depth_zero_is_single_root(cyclic):
    r = unravel(cyclic, "w", 0)
    assert r.model.worlds == ("w",)
    assert r.model.relation == frozenset()
    assert r.projection == {"w": "w"}


def test_depth_one_nodes_and_relation(cyclic):
    r = unravel(cyclic, "w", 1)
    # the single tuple from w spawns one node per focus index
    assert set(r.model.worlds) == {"w", "w#u,t:1", "w#u,t:2"}
    assert r.model.relation == {("w", "w#u,t:1", "w#u,t:2")}
    assert r.projection["w#u,t:1"] == "u"
    assert r.projection["w#u,t:2"] == "t"


def test_depth_two_expands_through_the_cycle(cyclic):
    r = unravel(cyclic, "w", 2)
    # the node focused on t continues through the tuple (t, w, v)
    assert ("w#u,t:2", "w#u,t:2#w,v:1", "w#u,t:2#w,v:2") in r.model.relation
    assert r.projection["w#u,t:2#w,v:1"] == "w"
    assert r.projection["w#u,t:2#w,v:2"] == "v"
    # frontier nodes have no outgoing tuples
    frontier = [w for w in r.model.worlds if w.count("#") == 2]
    sources = {t[0] for t in r.model.relation}
    assert frontier and not (set(frontier) & sources)
    assert validate(r.model) == []


def test_node_ids_escape_the_separators_in_world_ids():
    # unescaped, both children below are "w#a,b,c:1", and the unraveling
    # has duplicate worlds and makes dia (p | ~p) & box p true at its root
    m = make_model(
        2,
        ["w", "a,b", "c", "a", "b,c"],
        [("w", "a,b", "c"), ("w", "a", "b,c")],
        {"a,b": ["p"]},
    )
    r = unravel(m, "w", 1)
    assert validate(r.model) == []
    assert len(set(r.model.worlds)) == 5
    assert r.projection["w#a%2Cb,c:1"] == "a,b"
    assert r.projection["w#a,b%2Cc:2"] == "b,c"
    f = parse("dia (p | ~p) & box p")
    assert not semantics.check(m, "w", f)
    assert not semantics.check(r.model, r.root, f)
    # "%" is escaped too, so an escaped-looking world id stays apart
    m = make_model(1, ["a%2Cb", "a,b", "#:"], [("a%2Cb", "a,b"), ("a,b", "#:")], {})
    r = unravel(m, "a%2Cb", 2)
    assert r.root == "a%252Cb"
    assert sorted(r.projection.values()) == ["#:", "a%2Cb", "a,b"]


def test_unravel_unknown_world_and_depth(cyclic):
    with pytest.raises(UnknownWorldError):
        unravel(cyclic, "ghost", 1)
    with pytest.raises(ValueError):
        unravel(cyclic, "w", -1)


def test_unravel_node_budget(cyclic):
    with pytest.raises(BudgetExceededError):
        unravel(cyclic, "w", 12, max_nodes=50)


def test_unravel_tuple_budget():
    # the budget bounds nodes and tuples alike: 51 nodes, 222 tuples here
    small = random_model(2, 3, 0.4, {"p"}, seed=1)
    assert len(unravel(small, "w0", 2, max_nodes=222).model.relation) == 222
    with pytest.raises(BudgetExceededError, match="tuple"):
        unravel(small, "w0", 2, max_nodes=221)
    # 38,530 nodes at depth 2, inside the default budget, but already
    # 1,346,285 relation tuples at depth 1
    m = random_model(3, 7, 0.2, {"p", "q"}, seed=0)
    for depth in (1, 2):
        with pytest.raises(BudgetExceededError, match="tuple"):
            unravel(m, "w0", depth)


def test_a_refused_unravel_builds_no_node(cyclic, monkeypatch):
    class NoEscapes(dict):
        # every node id is made by escaping world ids through this table
        def __getitem__(self, char):
            raise AssertionError("a refused unraveling built a node")

    monkeypatch.setattr("wamlkit.unravel._ESCAPES", NoEscapes())
    m = random_model(3, 7, 0.2, {"p", "q"}, seed=0)
    with pytest.raises(BudgetExceededError) as refused:
        unravel(m, "w0", 2)
    assert str(refused.value) == "unraveling to depth 2 exceeds the 50000-tuple budget"
    # the node count stops at the first depth over the budget
    with pytest.raises(BudgetExceededError, match="depth 1000000 exceeds the 50000-node"):
        unravel(cyclic, "w", 1_000_000)


# The unraveling built from explicit paths, as ``unravel`` built it before
# nodes were (id, focus) pairs: a path is a tuple of steps (vector, index),
# the root step the constant vector over the start world with index 1.

def _path_id(path):
    escape = str.maketrans({c: f"%{ord(c):02X}" for c in "%,:#"})
    parts = [path[0][0][0].translate(escape)]
    for vector, index in path[1:]:
        parts.append(",".join(u.translate(escape) for u in vector) + ":" + str(index))
    return "#".join(parts)


def _path_focus(path):
    vector, index = path[-1]
    return vector[index - 1]


def path_unravel(m, w, depth, max_nodes):
    for node_count, tuple_count in unraveling_sizes(m, w, depth):
        if node_count > max_nodes:
            raise BudgetExceededError(
                f"unraveling to depth {depth} exceeds the {max_nodes}-node budget"
            )
    if tuple_count > max_nodes:
        raise BudgetExceededError(
            f"unraveling to depth {depth} exceeds the {max_nodes}-tuple budget"
        )
    succ = {w: m.vectors(w) for w in m.worlds}
    levels = [[(((w,) * m.arity, 1),)]]
    children_of = {}
    for level in range(depth):
        nxt = []
        for path in levels[level]:
            kids = [
                path + ((vector, index),)
                for vector in succ[_path_focus(path)]
                for index in range(1, m.arity + 1)
            ]
            children_of[path] = kids
            nxt.extend(kids)
        levels.append(nxt)
    nodes = [path for level in levels for path in level]
    ids = {path: _path_id(path) for path in nodes}
    relation = set()
    for path in (path for level in levels[:depth] for path in level):
        by_world = {}
        for child in children_of[path]:
            by_world.setdefault(_path_focus(child), []).append(ids[child])
        for vector in succ[_path_focus(path)]:
            for combo in itertools.product(*(by_world[x] for x in vector)):
                relation.add((ids[path], *combo))
    valuation = {ids[path]: m.valuation[_path_focus(path)] for path in nodes}
    model = make_model(m.arity, [ids[path] for path in nodes], relation, valuation)
    projection = {ids[path]: _path_focus(path) for path in nodes}
    return UnravelResult(model, ids[nodes[0]], projection)


def test_unravel_matches_the_path_builder():
    rng = random.Random(31)
    names = ["w", "a,b", "c:1", "#", "%2C", "u%"]
    refusals = 0
    for i in range(240):
        arity = 1 + i % 3
        m = random_model(arity, rng.randint(1, 5), rng.uniform(0, 0.6) / arity**2, {"p", "q"}, seed=3000 + i)
        rename = dict(zip(m.worlds, rng.sample(names, len(m.worlds))))
        m = make_model(
            arity,
            [rename[w] for w in m.worlds],
            [tuple(rename[v] for v in t) for t in m.relation],
            {rename[w]: m.valuation[w] for w in m.worlds},
        )
        w = rng.choice(m.worlds)
        args = (m, w, rng.randint(0, 5), rng.choice([1, 5, 50, 500, 5_000, 50_000]))
        want = sweep_outcome(path_unravel, *args)
        got = sweep_outcome(unravel, *args)
        assert got == want, args
        if isinstance(got, UnravelResult):
            assert got.model.worlds == want.model.worlds
        refusals += isinstance(want, str)
    assert 20 < refusals < 200


def test_unravel_stops_where_the_unraveling_dies_out(monkeypatch):
    # w's one tuple leads to a dead end: nothing lies below depth 1
    m = make_model(2, ["w", "u"], [("w", "u", "u")], {"u": ["p"]})
    consumed = []

    def counted_sizes(*args):
        for sizes in unraveling_sizes(*args):
            consumed.append(sizes)
            yield sizes

    shallow = unravel(m, "w", 2)
    monkeypatch.setattr("wamlkit.unravel.unraveling_sizes", counted_sizes)
    assert unravel(m, "w", 10**6) == shallow
    assert len(consumed) <= 3
    consumed.clear()
    sweep = locality_sweep(m, "w", parse("box ~p"), 10**6, max_nodes=10**6 + 1)
    assert sweep.agree[:3] == (False, True, True) and sweep.least_stable_depth == 1
    assert len(consumed) <= 3
    # the budget bounds the sweep's rows, one per depth, too
    consumed.clear()
    with pytest.raises(BudgetExceededError, match="1000001 rows, over the 50000-row"):
        locality_sweep(m, "w", parse("box ~p"), 10**6)
    assert len(consumed) <= 3


def test_locality_sweep_rows_are_capped_whatever_the_budget(monkeypatch):
    m = make_model(2, ["w", "u"], [("w", "u", "u")], {"u": ["p"]})
    counted = []
    monkeypatch.setattr(
        "wamlkit.unravel.unraveling_sizes", lambda *args: counted.append(args) or iter(())
    )
    # one row past the cap is refused before any unraveling is counted
    with pytest.raises(BudgetExceededError, match=f"{MAX_SWEEP_ROWS + 1} rows, over the cap of"):
        locality_sweep(m, "w", parse("box ~p"), MAX_SWEEP_ROWS, max_nodes=10**12)
    with pytest.raises(BudgetExceededError, match="over the cap of"):
        locality_sweep(m, "w", parse("p"), 10**9, max_nodes=2 * 10**9)
    assert counted == []
    # a sweep at the cap meets the budget's row check as before
    with pytest.raises(BudgetExceededError, match=f"{MAX_SWEEP_ROWS} rows, over the 10-row budget"):
        locality_sweep(m, "w", parse("box ~p"), MAX_SWEEP_ROWS - 1, max_nodes=10)
    assert len(counted) == 1


def test_tree_skeleton_unique_parents(cyclic):
    r = unravel(cyclic, "w", 3)
    parents: dict[str, set[str]] = {}
    for t in r.model.relation:
        for child in t[1:]:
            parents.setdefault(child, set()).add(t[0])
    for child, sources in parents.items():
        assert len(sources) == 1
    # every tuple connects a level-j node to level-(j+1) nodes only
    for t in r.model.relation:
        level = t[0].count("#")
        assert all(child.count("#") == level + 1 for child in t[1:])


def test_valuation_pulled_back_along_projection():
    m = make_model(2, ["w", "a", "b"], [("w", "a", "b"), ("a", "b", "b")], {"a": ["p"], "b": ["q"]})
    r = unravel(m, "w", 2)
    for node, original in r.projection.items():
        assert r.model.valuation[node] == m.valuation[original]


def test_projection_is_pmorphism_on_finite_unravelings():
    # acyclic fixtures whose full unraveling is shallower than the cutoff
    shallow = make_model(2, ["w", "a", "b"], [("w", "a", "b")], {"a": ["p"]})
    r = unravel(shallow, "w", 3)
    assert check_pmorphism(r.model, shallow, r.projection) is None
    deeper = make_model(
        2,
        ["w", "a", "b", "c", "d"],
        [("w", "a", "b"), ("a", "c", "d")],
        {"c": ["p"], "d": ["q"]},
    )
    r = unravel(deeper, "w", 4)
    assert check_pmorphism(r.model, deeper, r.projection) is None


def test_truncated_cycle_breaks_back_condition(cyclic):
    r = unravel(cyclic, "w", 2)
    violation = check_pmorphism(r.model, cyclic, r.projection)
    assert violation is not None
    assert violation.condition == "back"


def test_identity_is_pmorphism(cyclic):
    assert check_pmorphism(cyclic, cyclic, {w: w for w in cyclic.worlds}) is None


def test_pmorphism_detects_forward_and_valuation_failures():
    src = make_model(1, ["a", "b"], [("a", "b")], {"b": ["p"]})
    tgt = make_model(1, ["x", "y"], [], {"y": ["p"]})
    violation = check_pmorphism(src, tgt, {"a": "x", "b": "y"})
    assert violation.condition == "forward"
    tgt2 = make_model(1, ["x", "y"], [("x", "y")], {})
    violation = check_pmorphism(src, tgt2, {"a": "x", "b": "y"})
    assert violation.condition == "valuation"


def test_root_is_level_bisimilar_and_agrees_on_shallow_formulas():
    rng = random.Random(17)
    alphabet = frozenset({"p", "q"})
    programs = {level: list(enumeration_program(alphabet, level, 5)) for level in (0, 1, 2)}
    for i in range(15):
        m = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.25), alphabet, seed=600 + i)
        w = m.worlds[rng.randrange(len(m.worlds))]
        for level in (0, 1, 2):
            r = unravel(m, w, level)
            z = k_bisim(r.model, m, alphabet, level)
            assert (r.root, w) in z.pairs
            root, point = r.model.index[r.root], m.index[w]
            ums = ModelEvaluator(r.model).run(programs[level])
            mms = ModelEvaluator(m).run(programs[level])
            for um, mm in zip(ums, mms):
                assert (um >> root & 1) == (mm >> point & 1)


def test_unravel_distance_matches_tree_distance(cyclic):
    r = unravel(cyclic, "w", 3)
    parent = {}
    for t in r.model.relation:
        for child in t[1:]:
            parent[child] = t[0]

    def tree_depth(node):
        d = 0
        while node in parent:
            node = parent[node]
            d += 1
        return d

    def tree_distance(a, b):
        # walk both nodes up to their lowest common ancestor
        da, db = tree_depth(a), tree_depth(b)
        steps = 0
        while da > db:
            a, da, steps = parent[a], da - 1, steps + 1
        while db > da:
            b, db, steps = parent[b], db - 1, steps + 1
        while a != b:
            a, b, steps = parent[a], parent[b], steps + 2
        return steps

    for a in r.model.worlds:
        for b in r.model.worlds:
            assert distance(r.model, a, b) == tree_distance(a, b)


def built_sweep(m, w, f, max_depth, max_nodes=DEFAULT_NODE_BUDGET):
    # the sweep by definition: build the unraveling of every depth and
    # model-check its root
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
    # the budget bounds the report's rows, one per depth, after the nodes
    if max_depth + 1 > max_nodes:
        raise BudgetExceededError(
            f"a sweep to depth {max_depth} has {max_depth + 1} rows, "
            f"over the {max_nodes}-row budget"
        )
    return LocalitySweep(reference, tuple(agree), least)


def sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except BudgetExceededError as e:
        return str(e)


def test_locality_sweep_matches_built_unravelings():
    rng = random.Random(6)
    outcomes = []
    for i in range(160):
        arity = rng.randint(1, 3)
        density = rng.uniform(0, 0.3 if arity < 3 else 0.1)
        m = random_model(arity, rng.randint(1, 5), density, {"p", "q"}, seed=900 + i)
        w = rng.choice(m.worlds)
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4))
        args = (m, w, f, rng.randint(0, 5), rng.choice([1, 50, 500, DEFAULT_NODE_BUDGET]))
        want = sweep_outcome(built_sweep, *args)
        assert sweep_outcome(locality_sweep, *args) == want, args
        outcomes.append(want)
    # the three budget errors and both verdicts occur
    errors = [o for o in outcomes if isinstance(o, str)]
    assert any("node budget" in e for e in errors)
    assert any("tuple budget" in e for e in errors)
    assert any("row budget" in e for e in errors)
    sweeps = [o for o in outcomes if not isinstance(o, str)]
    assert any(not all(o.agree) for o in sweeps) and any(all(o.agree) for o in sweeps)


def test_locality_sweep_tuple_budget_on_a_dense_model():
    # 1,346,285 tuples at depth 1, under 50,000 nodes
    m = random_model(3, 7, 0.2, {"p", "q"}, seed=0)
    f = parse("box (p | dia q)")
    for max_depth in (0, 1, 3):
        want = sweep_outcome(built_sweep, m, "w0", f, max_depth)
        assert sweep_outcome(locality_sweep, m, "w0", f, max_depth) == want
    assert want == "unraveling to depth 1 exceeds the 50000-tuple budget"


def test_unraveling_sizes_count_the_built_unraveling():
    rng = random.Random(11)
    for i in range(40):
        arity = rng.randint(1, 3)
        m = random_model(arity, rng.randint(1, 4), rng.uniform(0, 0.25), {"p"}, seed=i)
        w = rng.choice(m.worlds)
        sizes = list(unraveling_sizes(m, w, 3))
        assert len(sizes) == 4
        for depth, (nodes, tuples) in enumerate(sizes):
            if max(nodes, tuples) > 5_000:
                break
            r = unravel(m, w, depth, max_nodes=5_000)
            assert (nodes, tuples) == (len(r.model.worlds), len(r.model.relation))


def test_locality_sweep_agrees_from_the_modal_depth_on():
    rng = random.Random(23)
    for i in range(200):
        m = random_model(rng.randint(1, 3), rng.randint(1, 5), 0.15, {"p", "q"}, seed=i)
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4))
        w = rng.choice(m.worlds)
        sweep = locality_sweep(m, w, f, 6, max_nodes=10**40)
        assert all(sweep.agree[modal_depth(f):])
        assert sweep.least_stable_depth <= modal_depth(f)


def test_locality_sweep_on_the_neighbourhood_matches_the_whole_model():
    rng = random.Random(43)
    for _ in range(300):
        m = random_sparse_model(rng)
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4), rng.randint(1, 14))
        w = rng.choice(m.worlds)
        max_depth = rng.randint(0, 6)
        sweep = locality_sweep(m, w, f, max_depth, max_nodes=10**40)
        ev = ModelEvaluator(make_model(m.arity, m.worlds, m.relation, m.valuation))
        bit = ev.model.index[w]
        reference = bool(ev.mask(f) >> bit & 1)
        agree = tuple(
            bool(bits >> bit & 1) == reference
            for bits in ev.depth_masks(compile_formula(f), max_depth)
        )
        assert (sweep.reference, sweep.agree) == (reference, agree), (m, w, f, max_depth)


def test_locality_sweep_script_reports_budget_errors_per_sample():
    # samples 20 and 101 need unravelings of over 50,000 tuples
    script = Path(__file__).resolve().parent.parent / "scripts" / "locality_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "200"],
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert (
        "EXPERIMENT sample  20: modal depth 1, budget exceeded (unraveling to "
        "depth 4 exceeds the 50000-tuple budget)"
    ) in proc.stdout
    assert "EXPERIMENT budget exceeded in 2 of 200 samples" in proc.stdout
    assert "over 198 settled samples" in proc.stdout


def test_locality_sweep_argument_errors(cyclic):
    f = parse("box p")
    with pytest.raises(UnknownWorldError):
        locality_sweep(cyclic, "ghost", f, 1)
    # an unknown world is reported before a negative depth
    with pytest.raises(UnknownWorldError):
        locality_sweep(cyclic, "ghost", f, -1)
    with pytest.raises(InvalidArgumentError, match="max_depth"):
        locality_sweep(cyclic, "w", f, -1)
    for budget in (0, -1):
        with pytest.raises(InvalidArgumentError, match="budget"):
            locality_sweep(cyclic, "w", f, 1, max_nodes=budget)
        with pytest.raises(InvalidArgumentError, match="budget"):
            unravel(cyclic, "w", 0, max_nodes=budget)
    # the root alone fits a budget of one
    assert len(unravel(cyclic, "w", 0, max_nodes=1).model.worlds) == 1
    assert locality_sweep(cyclic, "w", f, 0, max_nodes=1).agree == (False,)
