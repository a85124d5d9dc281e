import json
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from wamlkit import interp
from wamlkit.bisim import (
    PairRelation,
    check_bisim,
    distance,
    distinguishing_formula,
    greatest_bisim,
    k_bisim,
)
from wamlkit.errors import ArityMismatchError, UnknownWorldError
from wamlkit.cli import main
from wamlkit.model import (
    load,
    make_model,
    random_model,
    require_same_arity,
    restrict_valuation,
    save,
)
from wamlkit.semantics import ModelEvaluator, check
from wamlkit.syntax import (
    Diamond,
    Letter,
    Not,
    conj,
    disj,
    enumerate_formulas,
    enumeration_program,
    modal_depth,
    print_formula,
)

from conftest import fixture


def _pairs(path):
    return frozenset(
        (a, b) for a, b in json.loads(fixture(path).read_text())["pairs"]
    )


@pytest.fixture(scope="module")
def nonaligned_pair():
    return (
        load(fixture("nonaligned_left.json").read_bytes()),
        load(fixture("nonaligned_right.json").read_bytes()),
    )


@pytest.fixture(scope="module")
def counterexample2():
    return (
        load(fixture("m2.json").read_bytes()),
        load(fixture("n2.json").read_bytes()),
    )


def test_nonaligned_relation_is_bisimulation(nonaligned_pair):
    left, right = nonaligned_pair
    z = PairRelation.from_pairs(left, right, tuple(sorted(_pairs("z_nonaligned.json"))), frozenset({"p"}))
    assert check_bisim(z) is None


def test_counterexample_relation_is_bisimulation(counterexample2):
    left, right = counterexample2
    z = PairRelation.from_pairs(left, right, tuple(sorted(_pairs("z2.json"))), frozenset({"p"}))
    assert check_bisim(z) is None


def test_identity_relation_is_bisimulation(counterexample2):
    left, _ = counterexample2
    z = PairRelation.from_pairs(
        left,
        left,
        tuple(sorted((w, w) for w in left.worlds)),
        frozenset({"p", "q"}),
    )
    assert check_bisim(z) is None


@pytest.mark.parametrize("n", [4, 5])
def test_general_counterexample_relation(n):
    b = interp.build_counterexample(n)
    assert check_bisim(b.z) is None


def test_check_bisim_reports_first_violation(counterexample2):
    left, right = counterexample2
    # dropping (w2, v2) breaks forth at (w, v) for the tuple (w, w1, w2)
    pairs = _pairs("z2.json") - {("w2", "v2")}
    z = PairRelation.from_pairs(left, right, tuple(sorted(pairs)), frozenset({"p"}))
    violation = check_bisim(z)
    assert violation is not None
    assert violation.condition == "forth"
    assert violation.pair == ("w", "v")
    assert violation.witness_tuple == ("w", "w1", "w2")


def test_check_bisim_inv_violation(counterexample2):
    left, right = counterexample2
    z = PairRelation.from_pairs(left, right, (("w4", "v1"),), frozenset({"p"}))
    violation = check_bisim(z)
    assert violation.condition == "inv"


def test_check_bisim_back_violation(counterexample2, capsys):
    left, right = counterexample2
    # from n2 to m2: forth holds at (v, w), but w's tuple (w3, w4) has no
    # answer among v's tuples, since v2 is related to neither w3 nor w4
    z = PairRelation.from_pairs(right, left, tuple(sorted(_pairs("z2_back.json"))), frozenset({"p"}))
    violation = check_bisim(z)
    assert violation is not None
    assert violation.condition == "back"
    assert violation.pair == ("v", "w")
    assert violation.witness_tuple == ("w", "w3", "w4")
    argv = ["bisim", "check", str(fixture("n2.json")), str(fixture("m2.json")),
            str(fixture("z2_back.json")), "--letters", "p"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "not a bisimulation: pair (v, w) fails back: "
        "tuple ['w', 'w3', 'w4'] has no matching tuple\n"
    )


def _brute_check(left, right, pairs, alphabet):
    """check_bisim's verdict read straight off the definition: the pairs in
    the models' world order, each checked for inv, then every left tuple
    forth, then every right tuple back, tuples in sorted order."""
    z = set(pairs)

    def tuples(m, w):
        return sorted(t[1:] for t in m.relation if t[0] == w)

    for a in left.worlds:
        for b in right.worlds:
            if (a, b) not in z:
                continue
            if left.valuation[a] & alphabet != right.valuation[b] & alphabet:
                return (a, b), "inv", None
            for lt in tuples(left, a):
                # some right tuple whose every slot is related to a slot of lt
                if not any(
                    all(any((v, u) in z for v in lt) for u in rt) for rt in tuples(right, b)
                ):
                    return (a, b), "forth", (a, *lt)
            for rt in tuples(right, b):
                if not any(
                    all(any((v, u) in z for u in rt) for v in lt) for lt in tuples(left, a)
                ):
                    return (a, b), "back", (b, *rt)
    return None


def test_check_bisim_matches_brute_force_checker():
    rng = random.Random(2121)
    seen = set()
    for i in range(300):
        arity = 1 + i % 3
        alphabet = frozenset({"p"} if i % 2 else {"p", "q"})
        density = rng.uniform(0.05, 0.5) / arity**2
        left = random_model(arity, rng.randint(1, 5), density, alphabet, seed=5000 + i)
        right = random_model(arity, rng.randint(1, 5), density, alphabet, seed=6000 + i)
        cross = [(a, b) for a in left.worlds for b in right.worlds]
        agree = [
            (a, b) for a, b in cross
            if left.valuation[a] & alphabet == right.valuation[b] & alphabet
        ]
        # mostly pairs that agree on the alphabet, so that forth and back
        # are reached; sometimes any pairs, or the greatest bisimulation
        # with or without one of its pairs
        kind = i % 4
        if kind == 0:
            pairs = [p for p in cross if rng.random() < 0.5]
        elif kind == 3:
            pairs = sorted(greatest_bisim(left, right, alphabet).pairs)
            if pairs and rng.random() < 0.7:
                pairs.remove(rng.choice(pairs))
        else:
            pairs = [p for p in agree if rng.random() < 0.7]
        if not pairs:
            continue
        violation = check_bisim(PairRelation.from_pairs(left, right, tuple(sorted(pairs)), alphabet))
        got = violation and (violation.pair, violation.condition, violation.witness_tuple)
        want = _brute_check(left, right, pairs, alphabet)
        assert got == want, (i, pairs)
        seen.add(want and want[1])
    assert seen == {None, "inv", "forth", "back"}


def test_check_bisim_rejects_empty_and_mismatched(counterexample2):
    left, right = counterexample2
    with pytest.raises(ValueError):
        check_bisim(PairRelation.from_pairs(left, right, (), frozenset()))
    other = make_model(3, ["x"], [], {})
    with pytest.raises(ArityMismatchError):
        check_bisim(
            PairRelation.from_pairs(left, other, (("w", "x"),), frozenset())
        )
    with pytest.raises(UnknownWorldError):
        check_bisim(
            PairRelation.from_pairs(left, right, (("ghost", "v"),), frozenset())
        )


def test_greatest_bisim_contains_exhibited_pairs(nonaligned_pair):
    left, right = nonaligned_pair
    g = greatest_bisim(left, right, frozenset({"p"}))
    assert ("w", "v") in g.pairs
    assert _pairs("z_nonaligned.json") <= set(g.pairs)
    assert check_bisim(g) is None


def test_greatest_bisim_contains_identity(counterexample2):
    left, _ = counterexample2
    g = greatest_bisim(left, left, frozenset({"p", "q"}))
    assert all((w, w) in g.pairs for w in left.worlds)


def test_greatest_bisim_single_worlds():
    a = make_model(2, ["x"], [], {"x": ["p"]})
    b = make_model(2, ["y"], [], {"y": ["p"]})
    g = greatest_bisim(a, b, frozenset({"p"}))
    assert set(g.pairs) == {("x", "y")}


def test_greatest_bisim_contains_checked_relations(counterexample2):
    left, right = counterexample2
    g = greatest_bisim(left, right, frozenset({"p"}))
    assert _pairs("z2.json") <= set(g.pairs)


def test_k_bisim_stage_zero(counterexample2):
    left, right = counterexample2
    z0 = k_bisim(left, right, frozenset({"p"}), 0)
    expected = {
        (a, b)
        for a in left.worlds
        for b in right.worlds
        if left.valuation[a] & {"p"} == right.valuation[b] & {"p"}
    }
    assert set(z0.pairs) == expected


def test_k_bisim_monotone_and_stabilizes(counterexample2):
    left, right = counterexample2
    alphabet = frozenset({"p"})
    stages = [set(k_bisim(left, right, alphabet, k).pairs) for k in range(6)]
    for earlier, later in zip(stages, stages[1:]):
        assert later <= earlier
    bound = len(left.worlds) * len(right.worlds)
    assert k_bisim(left, right, alphabet, bound).pairs == greatest_bisim(
        left, right, alphabet
    ).pairs


def test_roots_survive_all_stages_on_reducts(counterexample2):
    left, right = counterexample2
    lred = restrict_valuation(left, {"p"})
    rred = restrict_valuation(right, {"p"})
    for k in range(5):
        assert ("w", "v") in k_bisim(lred, rred, frozenset({"p"}), k).pairs


# ---------------------------------------------------------------------------
# distinguishing formulas


def test_distinguish_letter_difference():
    a = make_model(1, ["x"], [], {"x": ["p"]})
    b = make_model(1, ["y"], [], {})
    f = distinguishing_formula(a, "x", b, "y", frozenset({"p"}))
    assert f == Letter("p")
    g = distinguishing_formula(b, "y", a, "x", frozenset({"p"}))
    assert check(b, "y", g) and not check(a, "x", g)


def test_distinguish_bisimilar_roots_returns_none(counterexample2):
    left, right = counterexample2
    assert (
        distinguishing_formula(left, "w", right, "v", frozenset({"p"})) is None
    )


def test_distinguish_deadlock_from_live_root():
    live = make_model(2, ["a", "b"], [("a", "b", "b")], {"b": ["p"]})
    dead = make_model(2, ["c"], [], {})
    f = distinguishing_formula(live, "a", dead, "c", frozenset({"p"}))
    assert f is not None
    assert check(live, "a", f) and not check(dead, "c", f)
    assert modal_depth(f) <= 1
    # brute-force cross-check: some depth-1 formula over p distinguishes
    assert any(
        check(live, "a", g) != check(dead, "c", g)
        for g in enumerate_formulas({"p"}, 1, 3)
    )


def test_distinguish_hennessy_milner_sampled():
    rng = random.Random(31)
    alphabet = frozenset({"p", "q"})
    found_distinct = 0
    for i in range(60):
        left = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=3000 + i)
        right = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=4000 + i)
        g = greatest_bisim(left, right, alphabet)
        for a in left.worlds:
            for b in right.worlds:
                f = distinguishing_formula(left, a, right, b, alphabet)
                if (a, b) in g.pairs:
                    assert f is None
                else:
                    found_distinct += 1
                    assert check(left, a, f)
                    assert not check(right, b, f)
    assert found_distinct > 50


def test_invariance_under_bisimulation_sampled():
    rng = random.Random(13)
    alphabet = frozenset({"p", "q"})
    program = list(enumeration_program(alphabet, 2, 5))
    for i in range(30):
        left = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=i)
        right = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=500 + i)
        g = greatest_bisim(left, right, alphabet)
        lms, rms = ModelEvaluator(left).run(program), ModelEvaluator(right).run(program)
        for lm, rm in zip(lms, rms):
            for a, b in g.pairs:
                assert (lm >> left.index[a] & 1) == (rm >> right.index[b] & 1)


def test_self_bisimilarity_is_equivalence():
    rng = random.Random(77)
    for i in range(20):
        m = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.4), {"p"}, seed=i)
        g = greatest_bisim(m, m, frozenset({"p"}))
        assert all((w, w) in g.pairs for w in m.worlds)
        assert all((b, a) in g.pairs for a, b in g.pairs)
        for a, b in g.pairs:
            for c, d in g.pairs:
                if b == c:
                    assert (a, d) in g.pairs


# ---------------------------------------------------------------------------
# distance


def test_distance_basics():
    m = load(fixture("cycle.json").read_bytes())
    assert distance(m, "w", "w") == 0
    assert distance(m, "w", "u") == 1
    disconnected = make_model(1, ["a", "b", "c"], [("a", "b")], {})
    assert distance(disconnected, "a", "c") == math.inf
    with pytest.raises(UnknownWorldError):
        distance(m, "w", "ghost")


def test_distance_matches_networkx_oracle():
    rng = random.Random(3)
    for i in range(40):
        m = random_model(rng.randint(1, 3), rng.randint(1, 5), rng.uniform(0, 0.3), set(), seed=i)
        graph = nx.Graph()
        graph.add_nodes_from(m.worlds)
        for t in m.relation:
            for v in t[1:]:
                graph.add_edge(t[0], v)
        for s in m.worlds:
            lengths = nx.single_source_shortest_path_length(graph, s)
            for t in m.worlds:
                expected = lengths.get(t, math.inf)
                assert distance(m, s, t) == expected


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 5))
def test_triangle_inequality(seed, arity, num_worlds):
    m = random_model(arity, num_worlds, 0.3, set(), seed=seed)
    for x in m.worlds:
        for y in m.worlds:
            for z in m.worlds:
                assert distance(m, x, z) + distance(m, z, y) >= distance(m, x, y)


# ---------------------------------------------------------------------------
# partition refinement against the pairwise refinement it replaced
#
# The reference re-checks every cross pair of the previous stage at every
# stage and records a certificate for each pair that dies, assembled from
# the certificates of the previous stage.


def _dedupe(parts):
    seen = set()
    out = []
    for p in parts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


class _Refinement:
    def __init__(self, left, right, alphabet):
        require_same_arity(left, right)
        self.left = left
        self.right = right
        self.alphabet = alphabet
        self.lsucc = {w: left.vectors(w) for w in left.worlds}
        self.rsucc = {w: right.vectors(w) for w in right.worlds}
        lpos = {w: i for i, w in enumerate(left.worlds)}
        rpos = {w: i for i, w in enumerate(right.worlds)}
        self.order = lambda pair: (lpos[pair[0]], rpos[pair[1]])
        self.certificates = {}
        self.stages = [self._stage_zero()]

    def _stage_zero(self):
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

    def _forth_certificate(self, a, b, lt, z):
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

    def _back_certificate(self, a, b, rt, z):
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

    def refine_once(self):
        z = self.stages[-1]
        survivors = set()
        for a, b in sorted(z, key=self.order):
            # the first left tuple that no right tuple answers: every slot
            # of an answer is related to some slot of the tuple
            lt = next((
                lt for lt in self.lsucc[a]
                if not any(
                    all(any((v, u) in z for v in lt) for u in rt) for rt in self.rsucc[b]
                )
            ), None)
            if lt is not None:
                self.certificates[(a, b)] = self._forth_certificate(a, b, lt, z)
                continue
            rt = next((
                rt for rt in self.rsucc[b]
                if not any(
                    all(any((v, u) in z for u in rt) for v in lt) for lt in self.lsucc[a]
                )
            ), None)
            if rt is not None:
                self.certificates[(a, b)] = self._back_certificate(a, b, rt, z)
                continue
            survivors.add((a, b))
        if len(survivors) == len(z):
            return False
        self.stages.append(frozenset(survivors))
        return True

    def run(self):
        while self.refine_once():
            pass


def _assert_matches_reference(left, right, alphabet):
    """Every stage, the greatest bisimulation and every printed
    certificate agree with the reference; returns the reference."""
    ref = _Refinement(left, right, alphabet)
    ref.run()
    stable = len(ref.stages) - 1
    for k in range(stable + 2):
        assert set(k_bisim(left, right, alphabet, k).pairs) == ref.stages[min(k, stable)]
    assert set(greatest_bisim(left, right, alphabet).pairs) == ref.stages[-1]
    for a in left.worlds:
        for b in right.worlds:
            want = None
            if (a, b) not in ref.stages[-1]:
                raw = ref.certificates[(a, b)]
                assert check(left, a, raw) and not check(right, b, raw), (a, b)
                want = print_formula(raw)
            got = distinguishing_formula(left, a, right, b, alphabet)
            assert (got and print_formula(got)) == want, (a, b)
    return ref


def test_partition_refinement_matches_pairwise_reference():
    rng = random.Random(4242)
    alphabets = [frozenset(), frozenset({"p"}), frozenset({"p", "q"})]
    deaths = set()
    for i in range(150):
        arity = 1 + i % 3
        alphabet = alphabets[i // 3 % 3]
        density = rng.uniform(0, 0.6) / arity**2
        left = random_model(arity, rng.randint(1, 5), density, alphabet, seed=7000 + i)
        right = random_model(arity, rng.randint(1, 5), density, alphabet, seed=8000 + i)
        ref = _assert_matches_reference(left, right, alphabet)
        deaths.add(len(ref.stages) - 1)
        # one object on both sides: the partition refines a single copy
        _assert_matches_reference(left, left, alphabet)
    # the sample reaches pairs that die at several stages
    assert {0, 1, 2} <= deaths


def test_partition_refinement_self_pair_and_late_death():
    # one file loaded twice: two equal models that are distinct objects
    m = load(fixture("m3.json").read_bytes())
    _assert_matches_reference(m, load(fixture("m3.json").read_bytes()), frozenset({"p", "q"}))
    # chains of four and three steps: the heads die at stage 3
    long = make_model(1, "abcd", [("a", "b"), ("b", "c"), ("c", "d")], {})
    short = make_model(1, "xyz", [("x", "y"), ("y", "z")], {})
    ref = _assert_matches_reference(long, short, frozenset())
    assert ("a", "x") in ref.stages[2] and ("a", "x") not in ref.stages[3]


def test_partition_signature_uses_minimal_block_sets():
    # a's tuple {x, y} is answered by c's {z} and adds nothing forth or
    # back: a and c are bisimilar although their full block sets differ
    left = make_model(2, "axy", [("a", "x", "x"), ("a", "x", "y")], {"x": ["p"], "y": ["q"]})
    right = make_model(2, "cz", [("c", "z", "z")], {"z": ["p"]})
    _assert_matches_reference(left, right, frozenset({"p", "q"}))
    assert ("a", "c") in greatest_bisim(left, right, frozenset({"p", "q"})).pairs


def _base(rng):
    """A 4-world arity-2 model whose worlds carry the four valuations over
    {p, q}, with 0-3 random tuples each."""
    worlds = ["b0", "b1", "b2", "b3"]
    relation = [
        (w, *rng.choices(worlds, k=2)) for w in worlds for _ in range(rng.randint(0, 3))
    ]
    return make_model(2, worlds, relation, {"b1": ["p"], "b2": ["q"], "b3": ["p", "q"]})


def _cover(rng, base, n):
    """A seeded n-world cover of ``base`` and its fiber map: each world is
    sent to a base world, and each base tuple is lifted to one tuple of
    each world of its source's fiber, into the fibers of its slots."""
    fibers = base.worlds + tuple(rng.choices(base.worlds, k=n - 4))
    fiber = dict(zip([f"c{i}" for i in range(n)], fibers))
    members = {x: [u for u in fiber if fiber[u] == x] for x in base.worlds}
    relation = [
        (u, *(rng.choice(members[y]) for y in t[1:]))
        for u in fiber
        for t in base.relation
        if t[0] == fiber[u]
    ]
    valuation = {u: base.valuation[fiber[u]] for u in fiber}
    return make_model(2, fiber, relation, valuation), fiber


def _lift(z, left_fiber, right_fiber):
    """The pairs of two covers whose fibers z relates."""
    related = set(z.pairs)
    return {(u, v) for u in left_fiber for v in right_fiber
            if (left_fiber[u], right_fiber[v]) in related}


def test_partition_refinement_on_covers_is_the_lift_of_the_base_refinement():
    # covers of the size the benchmark's model queries read: a cover's
    # projection is a p-morphism, so its worlds are bisimilar at every
    # stage exactly as their fibers are
    rng = random.Random(2937)
    alphabet = frozenset({"p", "q"})
    bases = [_base(rng) for _ in range(3)]
    m, fiber = _cover(rng, bases[0], 200)
    z = greatest_bisim(m, m, alphabet)
    assert z.image == {u: tuple(sorted(v for v in fiber if fiber[v] == fiber[u]))
                       for u in sorted(fiber)}
    assert check_bisim(z) is None
    stage_sizes = []
    for i, j in [(0, 1), (1, 2), (2, 0), (1, 1)]:
        (left, lf), (right, rf) = _cover(rng, bases[i], 60), _cover(rng, bases[j], 45)
        stages = [k_bisim(bases[i], bases[j], alphabet, k) for k in (0, 1, 2)]
        for k, base_stage in enumerate(stages):
            assert set(k_bisim(left, right, alphabet, k).pairs) == _lift(base_stage, lf, rf)
        stage_sizes.append([len(s.pairs) for s in stages])
        z = greatest_bisim(left, right, alphabet)
        assert set(z.pairs) == _lift(greatest_bisim(bases[i], bases[j], alphabet), lf, rf)
        assert not z.pairs or check_bisim(z) is None
    # base pairs die at stages 1 and 2, and some survive every stage
    assert any(s[1] < s[0] for s in stage_sizes) and any(s[2] < s[1] for s in stage_sizes)
    assert any(s[2] for s in stage_sizes)


def test_sorted_pairs_are_read_off_the_partition_in_sorted_order(tmp_path, capsys):
    # twelve worlds: "w10" and "w11" sort before "w2" but come after it in
    # the model's world order
    rng = random.Random(1212)
    for i in range(12):
        arity = 1 + i % 3
        alphabet = frozenset({"p", "q"} if i % 2 else {"p"})
        left = random_model(arity, 12, rng.uniform(0, 0.4) / arity**2, alphabet, seed=900 + i)
        right = random_model(arity, rng.randint(3, 12), 0.2 / arity**2, alphabet, seed=950 + i)
        assert sorted(left.worlds) != list(left.worlds)
        relations = [greatest_bisim(left, right, alphabet), greatest_bisim(left, left, alphabet)]
        relations += [k_bisim(left, right, alphabet, k) for k in (0, 1, 2)]
        for z in relations:
            assert z.pairs == tuple(sorted(set(z.pairs)))
    # ``bisim max`` prints the payload of the sorted pair set
    (tmp_path / "m.json").write_bytes(save(left))
    for k in ([], ["--k", "1"]):
        argv = ["bisim", "max", str(tmp_path / "m.json"), str(tmp_path / "m.json"), *k]
        assert main(argv + ["--letters", "p,q", "--json"]) == 0
        z = k_bisim(left, left, {"p", "q"}, 1) if k else greatest_bisim(left, left, {"p", "q"})
        assert len(z.pairs) > len(left.worlds)
        payload = {"schema": 1, "command": "bisim-max", "alphabet": ["p", "q"],
                   "k": 1 if k else None, "pairs": [list(p) for p in sorted(z.pairs)]}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_partition_relation_is_its_image_and_rebuilt_from_its_pairs():
    # from_pairs takes pairs in any order, duplicates and JSON lists too
    rng = random.Random(2828)
    for i in range(12):
        arity = 1 + i % 3
        alphabet = frozenset({"p", "q"} if i % 2 else {"p"})
        left = random_model(arity, rng.randint(1, 12), 0.3 / arity**2, alphabet, seed=2800 + i)
        right = random_model(arity, rng.randint(1, 12), 0.3 / arity**2, alphabet, seed=2850 + i)
        relations = [greatest_bisim(left, right, alphabet), greatest_bisim(left, left, alphabet)]
        relations += [k_bisim(left, right, alphabet, k) for k in (0, 1)]
        for z in relations:
            assert list(z.image) == sorted(z.image)
            assert all(bs and list(bs) == sorted(set(bs)) for bs in z.image.values())
            # the left worlds of one block share one tuple of partners
            assert len(set(map(id, z.image.values()))) == len(set(z.image.values()))
            assert z.pairs == tuple((a, b) for a in z.image for b in z.image[a])
            shuffled = list(z.pairs) * 2
            rng.shuffle(shuffled)
            lists = [list(p) for p in z.pairs]
            for pairs in (z.pairs, z.pairs[::-1], shuffled, lists):
                again = PairRelation.from_pairs(z.left, z.right, pairs, z.alphabet)
                assert again == z
                assert again.pairs == z.pairs


def test_check_bisim_names_an_unknown_right_world(counterexample2):
    left, right = counterexample2
    z = PairRelation.from_pairs(left, right, [("w", "v"), ("w", "ghost")], frozenset())
    with pytest.raises(UnknownWorldError, match="unknown right world 'ghost'"):
        check_bisim(z)
    # the first unknown world in pair order: here the left world "a" first
    z = PairRelation.from_pairs(left, right, [("w", "ghost"), ("a", "v")], frozenset())
    with pytest.raises(UnknownWorldError, match="unknown left world 'a'"):
        check_bisim(z)


def test_bisim_max_json_builds_no_pair_tuples(tmp_path, monkeypatch, capsys):
    # the payload is written from the image: the flat pairs are never read
    path = str(tmp_path / "m.json")
    (tmp_path / "m.json").write_bytes(save(random_model(2, 40, 0.01, {"p", "q"}, seed=28)))
    argvs = [["bisim", "max", path, path, *k, "--json"] for k in ([], ["--k", "0"], ["--k", "1"])]
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(z):
        raise AssertionError("PairRelation.pairs was computed")

    monkeypatch.setattr(PairRelation, "pairs", property(refuse))
    for argv, out in zip(argvs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("relation, ok", [
    ([["w", "v"], ["w1", "v1"], ["w2", "v2"], ["w3", "v1"], ["w3", "v2"]], True),
    ([["w", "v"], ["w1", "v1"], ["w3", "v1"], ["w3", "v2"]], False),
])
def test_bisim_check_reads_a_relation_file_as_a_set(relation, ok, tmp_path, capsys):
    # the pairs listed in reverse and the first one twice: the same bytes,
    # text and JSON, as the sorted file with each pair once
    (tmp_path / "sorted.json").write_text(json.dumps({"pairs": relation}))
    (tmp_path / "shuffled.json").write_text(json.dumps({"pairs": relation[::-1] + relation[:1]}))
    argv = ["bisim", "check", str(fixture("m2.json")), str(fixture("n2.json"))]
    for extra in ([], ["--json"]):
        outputs = []
        for name in ("sorted.json", "shuffled.json"):
            assert main([*argv, str(tmp_path / name), "--letters", "p", *extra]) == (0 if ok else 1)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
