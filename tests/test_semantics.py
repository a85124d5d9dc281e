import gc
import hashlib
import itertools
import random
import sys

import pytest

from wamlkit import interp, semantics, syntax
from wamlkit.errors import BudgetExceededError, InvalidArgumentError, UnknownWorldError
from wamlkit.model import PointedModel, _slot_index, load, make_model, random_model
from wamlkit.proof import kn_axiom
from wamlkit.semantics import bounded_sat, check, valid_on_model
from wamlkit.translate import fol_eval, st
from wamlkit.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Iff,
    Implies,
    Letter,
    Not,
    Or,
    Top,
    ast_size,
    compile_formula,
    enumerate_formulas,
    letters,
    modal_depth,
    parse,
    print_formula,
)

from conftest import fixture, random_formula, random_sparse_model


@pytest.fixture(scope="module")
def m2():
    return load(fixture("m2.json").read_bytes())


@pytest.fixture(scope="module")
def n2():
    return load(fixture("n2.json").read_bytes())


def test_counterexample_truths(m2, n2):
    assert check(m2, "w", parse("box (~p | ~q) & dia q"))
    assert check(n2, "v", parse("box (p & r) & box (p & ~r)"))


def test_counterexample_truths_arity_three():
    b = interp.build_counterexample(3)
    assert check(b.left.model, "w", b.phi)
    assert check(b.right.model, "v", b.psi)


def test_box_vacuously_true_at_deadlock():
    m = make_model(2, ["a"], [], {})
    assert check(m, "a", parse("box false"))
    assert not check(m, "a", parse("dia true"))


def test_unknown_world_raises(m2):
    with pytest.raises(UnknownWorldError):
        check(m2, "nosuch", parse("p"))


def test_absent_letters_are_false(m2):
    assert not check(m2, "w", parse("letter_never_used"))


def test_valid_on_model_basics(m2):
    assert valid_on_model(m2, parse("true"))
    assert not valid_on_model(m2, parse("p"))  # fails at w


def test_evaluator_masks_and_keeps_no_formula_alive():
    # worlds 0-3: p holds at 1 and 3, q at 2 and 3
    m = make_model(1, "abcd", [], {"b": ["p"], "c": ["q"], "d": ["p", "q"]})
    ev = semantics.ModelEvaluator(m)
    assert ev.mask(parse("p <-> q")) == 0b1001
    assert ev.mask(parse("~(p <-> q) -> p & q")) == 0b1001
    assert ev.mask(parse("true | false")) == 0b1111
    assert ev.mask(parse("(p & q) | false")) == 0b1000
    # every subformula of f holds a letter that occurs nowhere else, so
    # once f is dropped, no node built for it may stay in the node table
    # while the evaluator lives
    f = parse("box (only_a & ~only_b) | dia ~only_a")
    assert ev.mask(f) == 0b1111
    del f
    gc.collect()
    assert (Letter, "only_a") not in syntax._NODES
    assert (Letter, "only_b") not in syntax._NODES


def test_depth_masks_gives_one_mask_per_depth():
    m = load(fixture("m2.json").read_bytes())
    ev = semantics.ModelEvaluator(m)
    f = parse("dia dia p | box q")
    program = compile_formula(f)
    assert ev.depth_masks(program, -1) == []
    masks = ev.depth_masks(program, 5)
    assert len(masks) == 6
    assert [ev.depth_masks(program, d) for d in range(6)] == [masks[: d + 1] for d in range(6)]
    assert masks[modal_depth(f):] == [ev.mask(f)] * (6 - modal_depth(f))


def _kinds(f):
    # the connectives and constants occurring in f
    return set(syntax.fold(f, lambda g, op, *kinds: {op}.union(*kinds)))


def test_check_on_the_neighbourhood_matches_the_whole_model():
    rng = random.Random(41)
    seen = set()
    for i in range(400):
        m = random_sparse_model(rng)
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4), rng.randint(1, 14))
        # over a copy, so that check reads no view the whole-model evaluator built
        whole = make_model(m.arity, m.worlds, m.relation, m.valuation)
        bits = semantics.ModelEvaluator(whole).mask(f)
        for w in m.worlds:
            value = check(m, w, f)
            assert value == bool(bits >> whole.index[w] & 1), (m, w, f)
            if i % 8 == 0:
                assert value == fol_eval(m, {"x": w}, st(f, m.arity)), (m, w, f)
            depth = modal_depth(f)
            near = m.around(w, depth)
            seen.add("strict" if near is not m else "whole")
            if depth and len(near.worlds) == len(m.around(w, depth - 1).worlds):
                seen.add("past the diameter")
        seen |= _kinds(f)
        for t in m.relation:
            seen.add("self-loop" if t[0] in t[1:] else "no loop")
            seen.add("repeated slot" if len(set(t[1:])) < m.arity else "distinct slots")
        seen.add("dead end" if set(m.worlds) - {t[0] for t in m.relation} else "no dead end")
    assert seen >= {
        "strict", "whole", "past the diameter", "self-loop", "repeated slot", "dead end",
        Implies, Iff, Top, Bottom, Box, Diamond,
    }


def _cover(rng, n):
    # n worlds over a base of four with two tuples each; every world lifts
    # its fiber's base tuples into random members of the target fibers
    base = {b: [(rng.randrange(4), rng.randrange(4)) for _ in range(2)] for b in range(4)}
    fiber = [i % 4 for i in range(n)]
    rng.shuffle(fiber)
    members = {b: [f"w{i}" for i in range(n) if fiber[i] == b] for b in range(4)}
    relation = [
        (f"w{x}", rng.choice(members[c1]), rng.choice(members[c2]))
        for x in range(n)
        for c1, c2 in base[fiber[x]]
    ]
    letters = (["p"], ["q"], ["p", "q"], [])
    valuation = {f"w{i}": letters[fiber[i]] for i in range(n)}
    return make_model(2, [f"w{i}" for i in range(n)], relation, valuation)


def test_check_builds_none_of_the_whole_models_views():
    m = _cover(random.Random(5), 200)
    f = parse("box (p | dia q) & dia (q -> box ~p)")
    assert len(m.around("w7", modal_depth(f)).worlds) < len(m.worlds)
    value = check(m, "w7", f)
    for name in ("slot_index", "letter_masks", "columns", "index"):
        assert name not in m.__dict__, name
    assert value == bool(semantics.ModelEvaluator(m).mask(f) >> m.index["w7"] & 1)


def test_diamond_box_duality_sampled():
    rng = random.Random(7)
    for i in range(60):
        m = random_model(rng.randint(1, 3), rng.randint(1, 4), rng.uniform(0, 0.5), {"p", "q"}, seed=i)
        f = random_formula(rng, ["p", "q"], 2)
        for w in m.worlds:
            assert check(m, w, Diamond(f)) == check(m, w, Not(Box(Not(f))))


def test_monotonicity_rule_semantically():
    # wherever f -> g is model-valid, box f implies box g pointwise
    rng = random.Random(21)
    hits = 0
    for i in range(200):
        m = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.5), {"p", "q"}, seed=i)
        f = random_formula(rng, ["p", "q"], 1, fuel=6)
        g = random_formula(rng, ["p", "q"], 1, fuel=6)
        if valid_on_model(m, parse(f"({_s(f)}) -> ({_s(g)})")):
            hits += 1
            for w in m.worlds:
                if check(m, w, Box(f)):
                    assert check(m, w, Box(g))
    assert hits > 10  # the sample actually exercised the property


def _s(f):
    from wamlkit.syntax import print_formula

    return print_formula(f)


def test_axiom_soundness_sampled():
    rng = random.Random(5)
    for i in range(120):
        arity = rng.randint(1, 4)
        subst = {
            f"p{j}": random_formula(rng, ["p", "q", "r"], 2, fuel=5)
            for j in range(arity + 1)
        }
        instance = kn_axiom(arity, subst)
        m = random_model(arity, rng.randint(1, 4), rng.uniform(0, 0.4), {"p", "q", "r"}, seed=i)
        assert valid_on_model(m, instance)


def test_arity_one_axiom_is_aggregation():
    # at arity 1 the axiom collapses to box p0 & box p1 -> box (p0 & p1)
    instance = kn_axiom(1, {"p0": Letter("p0"), "p1": Letter("p1")})
    assert instance == parse("box p0 & box p1 -> box (p0 & p1)")
    rng = random.Random(11)
    for i in range(100):
        m = random_model(1, rng.randint(1, 4), rng.uniform(0, 0.6), {"p0", "p1"}, seed=i)
        assert valid_on_model(m, instance)


# ---------------------------------------------------------------------------
# bounded_sat


def test_aggregation_failure_witness():
    f = parse("box p & box q & ~box(p&q)")
    witness = bounded_sat(f, 2, 5)
    assert witness is not None
    assert len(witness.model.worlds) == 2  # minimal world count
    assert check(witness.model, witness.point, f)
    # no 1-world model satisfies it: brute force over every such model
    import itertools

    for rel in ([], [("a", "a", "a")]):
        for val in itertools.product([frozenset(), {"p"}, {"q"}, {"p", "q"}], repeat=1):
            m = make_model(2, ["a"], rel, {"a": val[0]})
            assert not check(m, "a", f)


def test_aggregation_witness_frozen():
    # canonical first witness: deterministic across runs
    f = parse("box p & box q & ~box(p&q)")
    a = bounded_sat(f, 2, 4)
    b = bounded_sat(f, 2, 4)
    assert a == b
    assert a.point == "w1"
    assert sorted(a.model.relation) == [
        ("w0", "w0", "w0"),
        ("w0", "w0", "w1"),
        ("w0", "w1", "w0"),
        ("w0", "w1", "w1"),
        ("w1", "w0", "w1"),
    ]
    assert a.model.valuation == {"w0": {"p"}, "w1": {"q"}}


def test_aggregation_valid_at_arity_one():
    assert bounded_sat(parse("box p & box q & ~box(p&q)"), 1, 4) is None


def test_plain_contradiction_unsat():
    assert bounded_sat(parse("p & ~p"), 1, 3) is None


def test_joint_counterexample_formulas_unsat():
    b = interp.build_counterexample(2)
    assert bounded_sat(And(b.phi, b.psi), 2, 5) is None
    b = interp.build_counterexample(3)
    assert bounded_sat(And(b.phi, b.psi), 3, 4) is None


def test_bounded_sat_respects_letter_restriction():
    w = bounded_sat(parse("dia p"), 1, 2)
    assert w is not None
    used = set().union(*w.model.valuation.values())
    assert used <= letters(parse("dia p"))


def test_bounded_sat_budget_error_is_distinct():
    with pytest.raises(BudgetExceededError):
        bounded_sat(parse("box p & dia q & dia ~q"), 2, 4, budget=3)


def test_bounded_sat_rejects_bad_bounds():
    with pytest.raises(ValueError):
        bounded_sat(parse("p"), 0, 3)
    with pytest.raises(ValueError):
        bounded_sat(parse("p"), 1, 0)


# ---------------------------------------------------------------------------
# The witness walk against the walk as first written: a fresh model and a
# model check per candidate, candidates in canonical order


def relation_subsets(candidates, prefix=(), start=0):
    """The subsets of candidates in lexicographic order of their sorted
    lists: a recursive depth-first preorder, one level per element."""
    yield prefix
    for i in range(start, len(candidates)):
        yield from relation_subsets(candidates, prefix + (candidates[i],), i + 1)


def _reference_walk(f, arity, num_worlds, letter_list, budget):
    worlds = tuple(f"w{i}" for i in range(num_worlds))
    candidates = sorted(itertools.product(worlds, repeat=arity + 1))
    subsets = []

    def letter_subsets(prefix, start):
        subsets.append(prefix)
        for i in range(start, len(letter_list)):
            letter_subsets(prefix + (letter_list[i],), i + 1)

    letter_subsets((), 0)
    for relation in relation_subsets(candidates):
        for assignment in itertools.product(subsets, repeat=num_worlds):
            budget.spend()
            m = make_model(arity, worlds, relation, dict(zip(worlds, assignment)))
            for w in worlds:
                if check(m, w, f):
                    return PointedModel(m, w)
    raise AssertionError("decision phase promised a witness at this size")


def test_witness_walk_matches_reference_walk(monkeypatch):
    rng = random.Random(2024)
    formulas = []
    while len(formulas) < 150:
        f = random_formula(rng, ["p", "q"], 2, fuel=rng.randint(1, 5))
        if ast_size(f) <= 5:
            formulas.append(f)
    cases = [(f, arity, rng.randint(1, 3)) for arity in (1, 2) for f in formulas]
    # and every canonical formula of size <= 5: the random sample alone
    # does not tell the canonical valuation order from others
    canonical = list(enumerate_formulas({"p", "q"}, 2, 5))
    cases += [(f, arity, 3) for arity in (1, 2) for f in canonical]
    # no formula of size <= 5 over two letters needs three worlds
    chain = parse("~p & ~q & dia (p & ~q & dia (q & ~p))")
    cases += [(chain, 1, 3), (chain, 2, 3)]
    found = [bounded_sat(f, arity, k) for f, arity, k in cases]
    monkeypatch.setattr(semantics, "_walk_witness", _reference_walk)
    expected = [bounded_sat(f, arity, k) for f, arity, k in cases]
    for case, got, want in zip(cases, found, expected):
        assert got == want, case
    sizes = [len(w.model.worlds) for w in found if w is not None]
    # the sample reaches witnesses of every size and unsatisfiable cases
    assert {1, 2, 3} <= set(sizes) and len(sizes) < len(cases)


# ---------------------------------------------------------------------------
# The witness walk against the compiled walk it replaced: f compiled once,
# one program run per (relation, valuation) candidate in canonical order,
# one budget step per candidate


def _compiled_walk(f, arity, num_worlds, letter_list, budget):
    worlds = tuple(f"w{i}" for i in range(num_worlds))
    full = (1 << num_worlds) - 1
    bit = {w: 1 << i for i, w in enumerate(worlds)}
    candidates = sorted(itertools.product(worlds, repeat=arity + 1))
    edge = {t: (bit[t[0]], sum({bit[v] for v in t[1:]})) for t in candidates}
    program = syntax.compile_formula(f)
    letter_at = {name: j for j, name in enumerate(letter_list)}
    subsets = semantics._letter_subsets(letter_list)
    columns = [
        [tuple(bit[w] if name in s else 0 for name in letter_list) for s in subsets]
        for w in worlds
    ]
    slot_index = []
    letter_masks = []

    def leaf(g, operand):
        if operand is None:
            return letter_masks[letter_at[g.name]]
        return semantics._modal_mask(type(g) is Box, operand, full, slot_index)

    for relation in relation_subsets(candidates):
        slot_index = _slot_index(edge[t] for t in relation)
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


_Budget = semantics._Budget


def _sat_outcome(monkeypatch, f, arity, max_worlds, budget):
    """The witness (or None, or the budget error's message) and the steps
    the search spent."""
    trackers = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            trackers.append(self)

    monkeypatch.setattr(semantics, "_Budget", Recorded)
    try:
        outcome = bounded_sat(f, arity, max_worlds, budget=budget)
    except BudgetExceededError as e:
        outcome = str(e)
    return outcome, trackers[0].spent


# the five satisfiability families of the benchmark's sat queries; the
# last one is the negated axiom of the arity it is asked at
_SAT_FAMILIES = [
    "~p & ~q & dia (p & ~q & dia (q & ~p & dia (p & q)))",
    "box p & box q & ~box (p & q)",
    "dia p & dia q & box ~(p & q)",
    "dia p & dia q & dia r & box ~(p & q) & box ~(p & r) & box ~(q & r)",
]
_NEGATED_AXIOMS = {
    1: "~(box p & box q -> box (p & q))",
    2: "~(box p & box q & box r -> box (p & q | p & r | q & r))",
    3: "~(box p & box q & box r & box s -> "
    "box (p & q | p & r | p & s | q & r | q & s | r & s))",
}


def test_witness_walk_matches_compiled_walk(monkeypatch):
    rng = random.Random(77)
    cases = [
        (parse(t), arity, 4)
        for arity in (1, 2, 3)
        for t in _SAT_FAMILIES + [_NEGATED_AXIOMS[arity]]
    ]
    for f in enumerate_formulas({"p", "q"}, 2, 5):
        cases += [(f, 1, 3), (f, 2, 2)]
    for _ in range(200):
        alphabet = ["p", "q", "r"][: rng.randint(1, 3)]
        f = random_formula(rng, alphabet, 2, fuel=rng.randint(3, 9))
        cases.append((f, rng.choice((2, 3)), rng.randint(1, 3)))
    budgets = (semantics.DEFAULT_SEARCH_BUDGET, 300, 50)
    # one run checks every valuation of a relation at once here; smaller
    # chunks check them a few at a time (splitting one world's letter
    # subsets when there are more of them), or one by one
    runs = [
        (semantics._MAX_BLOCKS, cases),
        (4, cases[::7]),
        (2, cases[3::7]),
        (1, cases[5::7]),
    ]
    outcomes = []
    for max_blocks, chunked in runs:
        monkeypatch.setattr(semantics, "_MAX_BLOCKS", max_blocks)
        with monkeypatch.context() as patch:
            got = [_sat_outcome(patch, *case, b) for case in chunked for b in budgets]
            patch.setattr(semantics, "_walk_witness", _compiled_walk)
            want = [_sat_outcome(patch, *case, b) for case in chunked for b in budgets]
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (chunked[i // len(budgets)], budgets[i % len(budgets)])
        outcomes += [o for o, _ in want]
    # witnesses, unsatisfiable answers and budget errors are all compared
    assert None in outcomes
    assert any(isinstance(o, PointedModel) for o in outcomes)
    assert "search budget of 50 steps exhausted" in outcomes


def test_witness_walk_deeper_than_the_recursion_limit(monkeypatch):
    # the least witness holds every tuple from w0: the walk reaches it down
    # a preorder path of 2,048 relations, past the recursion limit
    outcome, spent = _sat_outcome(
        monkeypatch, parse("dia p & dia ~p"), 11, 2, semantics.DEFAULT_SEARCH_BUDGET
    )
    assert outcome.point == "w0"
    assert {t[0] for t in outcome.model.relation} == {"w0"}
    assert len(outcome.model.relation) == 2_048 > sys.getrecursionlimit()
    assert spent == 8_215


@pytest.mark.parametrize("num_worlds, arity", [(2, 3), (3, 2), (11, 1), (12, 2)])
def test_tuple_at_decodes_the_sorted_candidate_tuples(num_worlds, arity):
    # from 11 worlds on, name order (w10 before w2) is not index order
    worlds = [f"w{i}" for i in range(num_worlds)]
    names = sorted(worlds)
    candidates = sorted(itertools.product(worlds, repeat=arity + 1))
    assert [semantics._tuple_at(i, names, arity) for i in range(len(candidates))] == candidates


def test_witness_walk_prunes_subtrees_whose_bound_is_empty(monkeypatch):
    # the bound is empty once every world has a tuple of R (box false
    # then holds nowhere) or the box chain fails at every world, and more
    # tuples change neither; without skipping those subtrees, the walk
    # runs its program on one relation per budget step, 2,000,000 of them
    calls = 0
    run_program = syntax.run_program

    def counting(*args):
        nonlocal calls
        calls += 1
        return run_program(*args)

    monkeypatch.setattr(syntax, "run_program", counting)
    with pytest.raises(BudgetExceededError):
        bounded_sat(parse("dia dia dia box false & box box box box box false"), 2, 4)
    assert calls <= 1_000


@pytest.mark.parametrize(
    "text, arity, max_worlds, budget",
    [
        ("~p & ~q & dia (p & ~q & dia(q & ~p & dia (p&q)))", 2, 5, 8_689),
        ("dia p & dia q & dia r & box ~(p&q) & box ~(p&r) & box ~(q&r)", 2, 4, 6_038),
        ("box p & box q & ~box(p&q)", 3, 4, 2_297),
    ],
)
def test_bounded_sat_budget_pins(text, arity, max_worlds, budget):
    # N is the search's exact step count: the decision phase's steps plus
    # one per witness-walk candidate
    f = parse(text)
    assert bounded_sat(f, arity, max_worlds, budget=budget) is not None
    with pytest.raises(BudgetExceededError):
        bounded_sat(f, arity, max_worlds, budget=budget - 1)


def test_bounded_sat_step_counts_frozen(monkeypatch):
    # the verdict and the exact step count of 2,976 searches, frozen as
    # one digest: a change that moves any budget step changes it
    lines = []
    for f in enumerate_formulas({"p", "q"}, 2, 5):
        for arity, max_worlds in ((1, 3), (2, 2), (3, 2)):
            outcome, spent = _sat_outcome(
                monkeypatch, f, arity, max_worlds, semantics.DEFAULT_SEARCH_BUDGET
            )
            verdict = (
                "budget" if isinstance(outcome, str)
                else "unsat" if outcome is None
                else "sat"
            )
            lines.append(f"{print_formula(f)}|{arity}|{verdict}|{spent}")
    assert len(lines) == 2_976
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3911285354622ae9513e3cbf42ef8bda5e3445c041f8835c4deea114538af771"


def _disjoint_diamonds(names):
    parts = [f"dia {x}" for x in names]
    parts += [f"box ~({x} & {y})" for i, x in enumerate(names) for y in names[i + 1 :]]
    return " & ".join(parts)


def test_bounded_sat_step_counts_frozen_where_supports_branch(monkeypatch):
    # the corpus above rarely branches in the search for k0; these queries
    # do, so a change to which successor types it tries moves their step
    # counts
    lines = []
    texts = _SAT_FAMILIES + [_disjoint_diamonds("pqrs")]
    for text, arity, max_worlds in itertools.product(texts, (1, 2, 3), (3, 4)):
        outcome, spent = _sat_outcome(
            monkeypatch, parse(text), arity, max_worlds, semantics.DEFAULT_SEARCH_BUDGET
        )
        verdict = (
            "budget" if isinstance(outcome, str)
            else "unsat" if outcome is None
            else len(outcome.model.worlds)
        )
        lines.append(f"{text}|{arity}|{max_worlds}|{verdict}|{spent}")
    assert len(lines) == 30
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6d7ce6165aa3069b5c77112b36f66aa96ae22a02c0f7e5204c14dea87380f5af"


def _unpruned_min_support(space, star_mask, max_size):
    # the search for k0 before dominance pruning: every type of star_mask
    # not yet chosen is tried for an unmet demand
    def grow(k, chosen, seen):
        if chosen in seen:
            return False
        seen.add(chosen)
        for t in semantics._iter_bits(chosen):
            for inside, constraints in space.demands(t):
                if space.demand_satisfiable(inside, constraints, chosen):
                    continue
                if chosen.bit_count() == k:
                    return False
                for cand in semantics._iter_bits(star_mask & inside & ~chosen):
                    if grow(k, chosen | 1 << cand, seen):
                        return True
                return False
        return True

    roots = space.root_mask & star_mask
    if not roots:
        return None
    for k in range(1, max_size + 1):
        seen = set()
        for root in semantics._iter_bits(roots):
            if grow(k, 1 << root, seen):
                return k
    return None


def _dead_ends(space):
    # the types with every box true and every diamond false
    return [
        t
        for t in range(space.count)
        if all(own >> t & 1 == is_box for is_box, own, _ in space.modal_info)
    ]


def _dominated_by_definition(space):
    # per type, its truth in every modal operand; a type is dominated when
    # a lesser dead end shares it
    def operand_truths(t):
        return tuple(child >> t & 1 for _, _, child in space.modal_info)

    first_dead_end = {}
    for t in _dead_ends(space):
        first_dead_end.setdefault(operand_truths(t), t)
    return sum(
        1 << t
        for t in range(space.count)
        if first_dead_end.get(operand_truths(t), t) != t
    )


def _outer_letter_cases(rng, count):
    # a letter outside every modality: dead ends that differ in it alone
    # share their truth in every modal operand
    cases = []
    for _ in range(count):
        inner = random_formula(rng, ["p", "q"], 2, fuel=rng.randint(3, 9))
        outer = random_formula(rng, ["r"], 0, fuel=rng.randint(1, 3))
        f = rng.choice((And, Or, Implies))(*rng.sample([inner, outer], 2))
        cases.append((f, rng.randint(1, 3), rng.randint(1, 4)))
    return cases


def test_min_support_matches_the_unpruned_search():
    cases = [
        (f, arity, 3)
        for f in enumerate_formulas({"p", "q"}, 2, 5)
        for arity in (1, 2, 3)
    ]
    cases += [
        (parse(t), arity, 4)
        for arity in (1, 2, 3)
        for t in _SAT_FAMILIES + [_NEGATED_AXIOMS[arity]]
    ]
    cases += [(parse("r & dia p & dia ~p"), arity, 3) for arity in (1, 2, 3)]
    cases += _outer_letter_cases(random.Random(15), 150)
    answers, twin_dead_ends = [], 0
    for f, arity, max_size in cases:
        space = semantics._TypeSpace(f, arity, semantics._Budget(10**9))
        star = space.eliminate()
        want = _unpruned_min_support(space, star, max_size)
        assert space.min_support(star, max_size) == want, (print_formula(f), arity)
        answers.append(want)
        dominated = space.dominated()
        twin_dead_ends += any(dominated >> t & 1 for t in _dead_ends(space))
    # every size, and no support within the bound, are compared
    assert set(answers) == {None, 1, 2, 3, 4}
    assert twin_dead_ends > 100


def test_dominated_types_by_definition():
    formulas = list(enumerate_formulas({"p", "q"}, 2, 5))
    formulas += [f for f, _, _ in _outer_letter_cases(random.Random(16), 150)]
    for f in formulas:
        space = semantics._TypeSpace(f, 1, semantics._Budget(10**9))
        assert space.dominated() == _dominated_by_definition(space), print_formula(f)


def _per_type_refuted(space):
    # the quick refutation asked of every root type in turn
    roots = [t for t in range(space.count) if space.root_mask >> t & 1]
    return not any(space.realizable(t, space.all_types) for t in roots)


def _per_type_eliminate(space):
    # elimination asked of every type in turn, each kept or dropped alone
    u_mask = space.all_types
    while True:
        survivors = 0
        for t in range(space.count):
            if u_mask >> t & 1 and space.realizable(t, u_mask):
                survivors |= 1 << t
        if survivors == u_mask:
            return u_mask
        u_mask = survivors


def test_profile_walk_matches_the_per_type_decision(monkeypatch):
    # the same answers, and every step at the same count: after the
    # refutation, after elimination, and at budgets one step either side
    # of those totals, where a budget error falls inside the last profile
    corpus = [
        (f, arity, 3)
        for f in enumerate_formulas({"p", "q"}, 2, 5)
        for arity in (1, 2)
    ]
    others = [
        (parse(t), arity, 4)
        for arity in (1, 2, 3)
        for t in _SAT_FAMILIES + [_NEGATED_AXIOMS[arity]]
    ]
    others += _outer_letter_cases(random.Random(17), 150)
    # the whole search too, for its witnesses, where the corpus is not
    budgets = [case + (semantics.DEFAULT_SEARCH_BUDGET,) for case in others]
    with_letters = 0
    for f, arity, max_size in corpus + others:
        new, old = (
            semantics._TypeSpace(f, arity, semantics._Budget(10**9)) for _ in range(2)
        )
        refuted = new.roots_refuted()
        assert refuted == _per_type_refuted(old), (print_formula(f), arity)
        assert new.budget.spent == old.budget.spent
        marks = [old.budget.spent]
        if not refuted:
            assert new.eliminate() == _per_type_eliminate(old), (print_formula(f), arity)
            assert new.budget.spent == old.budget.spent
            marks.append(old.budget.spent)
        with_letters += bool(new.letters)
        budgets += [
            (f, arity, max_size, b) for m in marks for b in (m - 1, m, m + 1) if b >= 1
        ]
    assert with_letters > 500
    got = [_sat_outcome(monkeypatch, *case) for case in budgets]
    monkeypatch.setattr(semantics._TypeSpace, "roots_refuted", _per_type_refuted)
    monkeypatch.setattr(semantics._TypeSpace, "eliminate", _per_type_eliminate)
    want = [_sat_outcome(monkeypatch, *case) for case in budgets]
    for case, g, w in zip(budgets, got, want):
        assert g == w, (print_formula(case[0]), *case[1:])
    # answers, witnesses and budget errors are all compared
    outcomes = [o for o, _ in want]
    assert None in outcomes
    assert any(isinstance(o, PointedModel) for o in outcomes)
    assert any(isinstance(o, str) for o in outcomes)


def test_eliminate_asks_realizable_once_per_profile(monkeypatch):
    # disj3 at arity 1: each round of elimination asks one type of each
    # modal profile present, so at most count >> |letters| per round
    f = parse("dia p & dia q & dia r & box ~(p&q) & box ~(p&r) & box ~(q&r)")
    space = semantics._TypeSpace(f, 1, semantics._Budget(10**9))
    asked = []
    realizable = semantics._TypeSpace.realizable

    def recorded(self, t, u_mask):
        asked.append((t, u_mask))
        return realizable(self, t, u_mask)

    monkeypatch.setattr(semantics._TypeSpace, "realizable", recorded)
    space.eliminate()
    low = len(space.letters)
    rounds = list(dict.fromkeys(u_mask for _, u_mask in asked))
    for u_mask in rounds:
        profiles = [t >> low for t, u in asked if u == u_mask]
        present = {t >> low for t in range(space.count) if u_mask >> t & 1}
        assert sorted(profiles) == profiles and set(profiles) == present
        assert len(profiles) == len(present)
    assert len(asked) <= len(rounds) * (space.count >> low)
    assert low == 3 and len(rounds) >= 2


def _subformulas(f):
    parts = [f]
    for name in ("operand", "left", "right"):
        if hasattr(f, name):
            parts += _subformulas(getattr(f, name))
    return parts


def _reference_type_space(f):
    # the type space by definition: a bit per letter (by name), then per
    # modal subformula (by formula_key), each seeded with its column; any
    # other subformula is folded on its own from the seeded columns
    names = sorted(letters(f))
    modals = sorted(
        {g for g in _subformulas(f) if isinstance(g, (Box, Diamond))},
        key=syntax.formula_key,
    )
    count = 1 << (len(names) + len(modals))
    full = (1 << count) - 1
    seeded = [Letter(name) for name in names] + modals
    columns = {g: syntax.bit_pattern(b, count) for b, g in enumerate(seeded)}
    table = {
        And: lambda a, b: a & b,
        Or: lambda a, b: a | b,
        Not: lambda a: full ^ a,
        Implies: lambda a, b: (full ^ a) | b,
        Iff: lambda a, b: full ^ a ^ b,
        Top: lambda: full,
        Bottom: lambda: 0,
    }

    def truth(g):
        def step(node, op, *operands):
            if node in columns:
                return columns[node]
            return table[op](*operands)

        return syntax.fold(g, step)

    modal_info = [(isinstance(g, Box), truth(g), truth(g.operand)) for g in modals]
    return names, modals, truth(f), modal_info


def test_type_space_matches_per_subformula_folds():
    for f in enumerate_formulas({"p", "q"}, 2, 5):
        names, modals, root_mask, modal_info = _reference_type_space(f)
        for arity in (1, 2, 3):
            space = semantics._TypeSpace(f, arity, semantics._Budget(10**6))
            assert (space.letters, space.modals) == (names, modals), f
            assert space.root_mask == root_mask, f
            assert space.modal_info == modal_info, f


def test_type_space_compiles_its_formula_once(monkeypatch):
    # the modal sort keys come from the program already compiled, not
    # from a fold of their own per modal subformula
    calls = []
    compile_formula = syntax.compile_formula

    def counted(*args):
        calls.append(args)
        return compile_formula(*args)

    monkeypatch.setattr(syntax, "compile_formula", counted)
    f = parse("box (dia (box (p | q) & q) | p) & ~dia box dia ~p")
    space = semantics._TypeSpace(f, 2, semantics._Budget(10**6))
    assert len(space.modals) == 6
    assert len(calls) == 1


def test_demands_are_cached_per_modal_bits():
    f = parse("dia p & box (q | dia ~p) & ~box dia q")
    budget = semantics._Budget(10**6)
    space = semantics._TypeSpace(f, 2, budget)
    low = len(space.letters)
    for t in range(space.count):
        # a fresh space computes t's demands; this one has them cached
        fresh = semantics._TypeSpace(f, 2, budget).demands(t)
        assert space.demands(t) == fresh
        assert space.demands(t) is space.demands(t >> low << low)


def test_bounded_sat_rejects_budgets_below_one():
    for budget in (0, -1):
        with pytest.raises(InvalidArgumentError, match="budget"):
            bounded_sat(parse("p"), 1, 1, budget=budget)
    # a budget of one is taken, and used up by the two types of p
    with pytest.raises(BudgetExceededError):
        bounded_sat(parse("p"), 1, 1, budget=1)


def test_demand_check_matches_brute_force():
    # the set-cover check against trying every arity-slot tuple of the pool
    rng = random.Random(8)
    for _ in range(3000):
        inside, u_mask = rng.getrandbits(10), rng.getrandbits(10)
        constraints = [rng.getrandbits(10) for _ in range(rng.randint(0, 6))]
        arity = rng.randint(1, 3)
        pool = [t for t in range(10) if (inside & u_mask) >> t & 1]
        want = any(
            all(any(c >> t & 1 for t in slots) for c in constraints)
            for slots in itertools.combinations_with_replacement(pool, arity)
        )
        space = semantics._TypeSpace(parse("p"), arity, semantics._Budget(10**9))
        got = space.demand_satisfiable(inside, constraints, u_mask)
        assert got == want, (inside, constraints, u_mask, arity)


def test_bounded_sat_leaves_no_cyclic_garbage():
    # every allocation of the search is freed by reference counting; with
    # per-call reference cycles this query left 310,699 objects to the
    # cyclic collector
    f = parse("dia p & dia q & dia r & box ~(p&q) & box ~(p&r) & box ~(q&r)")
    gc.collect()
    gc.disable()
    try:
        assert bounded_sat(f, 2, 4) is not None
    finally:
        freed = gc.collect()
        gc.enable()
    assert freed < 72


# ---------------------------------------------------------------------------
# bounded_sat against brute-force model enumeration
#
# All models with k worlds over the letters of a formula are listed in
# canonical order (relation as a sorted tuple list, then valuation as a
# tuple of sorted letter lists) and evaluated at once: bit m of a world's
# mask is the truth there in model m.  The evaluator shares no code with
# the package's.


class _Universe:
    def __init__(self, arity, k, letter_list):
        self.arity = arity
        self.worlds = tuple(f"w{i}" for i in range(k))
        self.candidates = sorted(itertools.product(range(k), repeat=arity + 1))
        self.relations = sorted(
            list(c)
            for r in range(len(self.candidates) + 1)
            for c in itertools.combinations(self.candidates, r)
        )
        subsets = sorted(
            c
            for r in range(len(letter_list) + 1)
            for c in itertools.combinations(letter_list, r)
        )
        self.valuations = list(itertools.product(subsets, repeat=k))
        # model m = relation index * len(valuations) + valuation index
        width = len(self.valuations)
        block = (1 << width) - 1
        repeat = sum(1 << (r * width) for r in range(len(self.relations)))
        self.full = block * repeat
        self.tuple_mask = {
            t: sum(block << (r * width) for r, rel in enumerate(self.relations) if t in rel)
            for t in self.candidates
        }
        self.letter_mask = {
            a: [
                repeat * sum(1 << v for v, val in enumerate(self.valuations) if a in val[i])
                for i in range(k)
            ]
            for a in letter_list
        }

    def masks(self, f, memo):
        """Per world index, the models where f holds there."""
        if f in memo:
            return memo[f]
        full, k = self.full, len(self.worlds)
        match f:
            case Letter(name):
                out = self.letter_mask[name]
            case Top():
                out = [full] * k
            case Bottom():
                out = [0] * k
            case Not(g):
                out = [full & ~x for x in self.masks(g, memo)]
            case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
                op = {
                    And: lambda x, y: x & y,
                    Or: lambda x, y: x | y,
                    Implies: lambda x, y: (full & ~x) | y,
                    Iff: lambda x, y: full & ~(x ^ y),
                }[type(f)]
                out = [op(x, y) for x, y in zip(self.masks(l, memo), self.masks(r, memo))]
            case Box(g) | Diamond(g):
                gm = self.masks(g, memo)
                out = []
                for i in range(k):
                    tuples = [t for t in self.candidates if t[0] == i]
                    if isinstance(f, Box):
                        # every tuple from i has some slot where g holds
                        bits = full
                        for t in tuples:
                            some = 0
                            for j in t[1:]:
                                some |= gm[j]
                            bits &= (full & ~self.tuple_mask[t]) | some
                    else:
                        # some tuple from i has g at every slot
                        bits = 0
                        for t in tuples:
                            every = self.tuple_mask[t]
                            for j in t[1:]:
                                every &= gm[j]
                            bits |= every
                    out.append(bits)
        memo[f] = out
        return out

    def model(self, m, world):
        relation, valuation = divmod(m, len(self.valuations))
        ws = self.worlds
        pointed = make_model(
            self.arity,
            ws,
            [tuple(ws[i] for i in t) for t in self.relations[relation]],
            dict(zip(ws, self.valuations[valuation])),
        )
        return PointedModel(pointed, ws[world])


def _brute_force_sat(f, arity, max_worlds, universes):
    """The least point satisfying f with at most max_worlds worlds, or None."""
    letter_list = tuple(sorted(letters(f)))
    for k in range(1, max_worlds + 1):
        key = (arity, k, letter_list)
        if key not in universes:
            universes[key] = (_Universe(arity, k, letter_list), {})
        universe, memo = universes[key]
        masks = universe.masks(f, memo)
        first = 0
        for x in masks:
            first |= x
        if first:
            m = (first & -first).bit_length() - 1
            return universe.model(m, next(i for i, x in enumerate(masks) if x >> m & 1))
    return None


def test_bounded_sat_matches_brute_force_enumeration():
    formulas = list(enumerate_formulas({"p", "q"}, 2, 5))
    # no formula above has a first model true at two worlds; this one's
    # is the two-cycle w0 (no p) <-> w1 (p)
    two_points = parse("((p & dia ~p) | (~p & dia p)) & box dia true")
    # and none needs three worlds; this chain does at arity 1
    chain = parse("~p & ~q & dia (p & ~q & dia (q & ~p))")
    universes = {}
    for arity, max_worlds in ((1, 3), (2, 2)):
        sizes = []
        for f in formulas + [chain, two_points]:
            want = _brute_force_sat(f, arity, max_worlds, universes)
            assert bounded_sat(f, arity, max_worlds) == want, (print_formula(f), arity)
            sizes.append(want and len(want.model.worlds))
        m = want.model
        assert [w for w in m.worlds if check(m, w, two_points)] == ["w0", "w1"]
        # unsatisfiable answers and witnesses of every size are checked
        assert set(sizes) == {None, *range(1, max_worlds + 1)}
