import hashlib
import json
import random

import pytest

from wamlkit.bisim import PairRelation
from wamlkit.errors import ArityMismatchError
from wamlkit.interp import (
    CounterexampleBundle,
    _sweep,
    binary_tag,
    build_counterexample,
    first_disagreement,
    tag_width,
    verify_counterexample,
)
from wamlkit.model import (
    PointedModel,
    dump_json,
    load,
    make_model,
    random_model,
    restrict_valuation,
    save,
)
from wamlkit.proof import save_script
from wamlkit.semantics import ModelEvaluator, valid_on_model
from wamlkit.syntax import (
    enumerate_formulas,
    enumeration_program,
    letters,
    modal_depth,
    parse,
    print_formula,
)

from conftest import fixture


def test_arity_two_bundle_matches_fixtures():
    b = build_counterexample(2)
    assert b.left.model == load(fixture("m2.json").read_bytes())
    assert b.right.model == load(fixture("n2.json").read_bytes())
    assert b.phi == parse("box (~p | ~q) & dia q")
    assert b.psi == parse("box (p & r) & box (p & ~r)")
    assert set(b.z.pairs) == {
        ("w", "v"),
        ("w1", "v1"),
        ("w2", "v2"),
        ("w3", "v1"),
        ("w3", "v2"),
    }
    assert b.z.alphabet == {"p"}


def test_arity_three_bundle_matches_fixtures():
    b = build_counterexample(3)
    assert b.left.model == load(fixture("m3.json").read_bytes())
    assert b.right.model == load(fixture("n3.json").read_bytes())
    assert b.phi == parse("box (p & ~q) & box (p & q) & dia (p | ~p)")
    assert b.psi == parse("box (~p & r) & box (~p & ~r) & dia (p | ~p)")
    assert set(b.z.pairs) == {
        ("w", "v"),
        ("w1", "v3"),
        ("w2", "v3"),
        ("w3", "v1"),
        ("w3", "v2"),
    }


def _first_disagreement_by_formula(left, right, formulas):
    # the root sweep as first written: one model check per formula
    lev, rev = ModelEvaluator(left.model), ModelEvaluator(right.model)
    lbit, rbit = left.model.index[left.point], right.model.index[right.point]
    for f in formulas:
        if lev.mask(f) >> lbit & 1 != rev.mask(f) >> rbit & 1:
            return f
    return None


def test_root_sweep_matches_the_per_formula_loop():
    rng = random.Random(31)
    found = []
    for i in range(200):
        alphabet, size = (["p"], 5) if i % 2 else (["p", "q"], 4)
        arity = rng.randint(1, 3)
        left, right = (
            random_model(arity, rng.randint(1, 4), rng.uniform(0, 0.4), {*alphabet}, seed)
            for seed in (i, 1000 + i)
        )
        w = rng.choice(left.worlds)
        # a point with w's letters where there is one, so that most
        # disagreements are modal
        alike = [v for v in right.worlds if right.valuation[v] == left.valuation[w]]
        v = rng.choice(alike or list(right.worlds))
        pointed = PointedModel(left, w), PointedModel(right, v)
        want = _first_disagreement_by_formula(
            *pointed, enumerate_formulas(alphabet, 2, size)
        )
        got = first_disagreement(*pointed, list(enumeration_program(alphabet, 2, size)))
        assert got == want, (i, w, v)
        found.append(want)
    modal = [f for f in found if f is not None and modal_depth(f) > 0]
    # most pairs disagree, many on modal formulas, and some agree on all
    assert None in found and len(modal) > 50


def _renamed(m, names):
    rename = dict(zip(m.worlds, names))
    return make_model(
        m.arity,
        names,
        [tuple(rename[w] for w in t) for t in m.relation],
        {rename[w]: letters for w, letters in m.valuation.items()},
    )


def test_union_sweep_on_shared_world_names_and_on_one_model_twice():
    # the sweep runs on the disjoint union of the two models, whose worlds
    # are renamed apart: names the two models share, and names that look
    # like renamed ones, must stay apart
    rng = random.Random(47)
    alphabet = ["p", "q"]
    program = list(enumeration_program(alphabet, 2, 4))
    formulas = list(enumerate_formulas(alphabet, 2, 4))
    names = ["w", "0w", "1w", "01", "1", "0"]
    found = []
    for i in range(60):
        arity = 1 + i % 3
        left, right = (
            random_model(arity, rng.randint(1, 4), rng.uniform(0, 0.4), {*alphabet}, seed)
            for seed in (i, 500 + i)
        )
        left = _renamed(left, rng.sample(names, len(left.worlds)))
        right = _renamed(right, rng.sample(names, len(right.worlds)))
        cases = [
            (PointedModel(left, rng.choice(left.worlds)),
             PointedModel(right, rng.choice(right.worlds))),
            (PointedModel(left, rng.choice(left.worlds)),
             PointedModel(left, rng.choice(left.worlds))),
        ]
        for pointed in cases:
            want = _first_disagreement_by_formula(*pointed, formulas)
            assert first_disagreement(*pointed, program) == want, (i, pointed)
            found.append(want)
    assert None in found and sum(f is not None for f in found) > 30


def test_union_sweep_finds_no_disagreement_on_the_bundles():
    for n in range(2, 9):
        b = build_counterexample(n)
        assert first_disagreement(b.left, b.right, _sweep(b.z.alphabet)) is None


def test_union_sweep_rejects_models_of_different_arities():
    left, right = random_model(2, 2, 0.3, {"p"}, 0), random_model(3, 2, 0.3, {"p"}, 1)
    program = list(enumeration_program(["p"], 1, 3))
    with pytest.raises(ArityMismatchError, match="arities differ: 2 vs 3"):
        first_disagreement(PointedModel(left, "w0"), PointedModel(right, "w0"), program)


def test_binary_tags_for_arity_four():
    assert tag_width(4) == 2
    assert binary_tag(1, 2) == parse("~r1 & ~r2")
    assert binary_tag(2, 2) == parse("r1 & ~r2")
    assert binary_tag(3, 2) == parse("~r1 & r2")


def test_tags_pairwise_incompatible():
    for n in (4, 5, 6, 9):
        width = tag_width(n)
        tags = [binary_tag(i, width) for i in range(1, n)]
        assert len(set(tags)) == len(tags)
        for i, a in enumerate(tags):
            for b in tags[i + 1 :]:
                from wamlkit.semantics import bounded_sat
                from wamlkit.syntax import And

                assert bounded_sat(And(a, b), 1, 1) is None


def test_common_vocabulary_is_exactly_p():
    for n in range(2, 7):
        b = build_counterexample(n)
        assert letters(b.phi) & letters(b.psi) == {"p"}
        assert b.z.alphabet == {"p"}


def test_rejects_n_below_two():
    with pytest.raises(ValueError):
        build_counterexample(1)


@pytest.mark.parametrize("n,bound", [(2, 5), (3, 4), (4, 3), (5, 3), (6, 3)])
def test_verification_passes_for_all_arities(n, bound):
    report = verify_counterexample(build_counterexample(n), bound)
    assert report.models_satisfy.passed, report.models_satisfy.detail
    assert report.refutation_valid.passed, report.refutation_valid.detail
    assert report.roots_indistinguishable.passed, report.roots_indistinguishable.detail
    assert report.joint_sat_corroboration.passed
    assert report.passed


def test_mutated_bundle_fails_with_named_witness():
    b = build_counterexample(2)
    broken_left = restrict_valuation(b.left.model, set())  # drop every letter
    mutated = CounterexampleBundle(
        n=b.n,
        left=type(b.left)(broken_left, b.left.point),
        right=b.right,
        phi=b.phi,
        psi=b.psi,
        z=PairRelation.from_pairs(broken_left, b.right.model, b.z.pairs, b.z.alphabet),
        refutation=b.refutation,
    )
    report = verify_counterexample(mutated, 2)
    assert not report.passed
    assert not (
        report.models_satisfy.passed and report.roots_indistinguishable.passed
    )
    failing = (
        report.models_satisfy
        if not report.models_satisfy.passed
        else report.roots_indistinguishable
    )
    assert failing.detail  # names what went wrong


def test_mutated_relation_reports_distinguishing_formula():
    b = build_counterexample(2)
    # break invariance: relate a p-world to a letterless world
    pairs = set(b.z.pairs) | {("w1", "v")}
    mutated = CounterexampleBundle(
        n=b.n,
        left=b.left,
        right=b.right,
        phi=b.phi,
        psi=b.psi,
        z=PairRelation.from_pairs(b.left.model, b.right.model, tuple(sorted(pairs)), b.z.alphabet),
        refutation=b.refutation,
    )
    report = verify_counterexample(mutated, 2)
    assert not report.roots_indistinguishable.passed
    assert "fails inv" in report.roots_indistinguishable.detail


def test_relation_that_misses_the_points_is_reported():
    # the leaf pairs alone are a bisimulation, but do not link w and v
    b = build_counterexample(2)
    pairs = [p for p in b.z.pairs if p != ("w", "v")]
    z = PairRelation.from_pairs(b.left.model, b.right.model, pairs, b.z.alphabet)
    report = verify_counterexample(CounterexampleBundle(
        n=b.n, left=b.left, right=b.right, phi=b.phi, psi=b.psi, z=z,
        refutation=b.refutation,
    ), 2)
    assert not report.roots_indistinguishable.passed
    assert report.roots_indistinguishable.detail == "relation does not link the two points"


def test_transitivity_axiom_valid_on_fixture_models():
    # the reflexion-free frames here validate box p -> box box p, so the
    # counterexamples transfer to extensions with that axiom
    axiom = parse("box p -> box box p")
    for n in (2, 3):
        b = build_counterexample(n)
        assert valid_on_model(b.left.model, axiom)
        assert valid_on_model(b.right.model, axiom)


def test_report_note_mentions_soundness():
    report = verify_counterexample(build_counterexample(2), 2)
    assert "soundness" in report.note


@pytest.mark.parametrize("n", [2, 3])
def test_bundle_serializes_to_fixture_bytes(n):
    # the same serialization as scripts/make_fixtures.py
    b = build_counterexample(n)
    relation = {"pairs": [list(p) for p in sorted(b.z.pairs)]}
    assert save(b.left.model) == fixture(f"m{n}.json").read_bytes()
    assert save(b.right.model) == fixture(f"n{n}.json").read_bytes()
    assert (json.dumps(relation, indent=2, sort_keys=True) + "\n").encode() == (
        fixture(f"z{n}.json").read_bytes()
    )
    assert save_script(b.refutation) == fixture(f"proof{n}.json").read_bytes()


def test_family_bytes_for_arities_two_to_nineteen():
    # both models, the relation, the refutation, phi and psi as printed,
    # the alphabet and the two points, as the bundle files write them
    digest = hashlib.sha256()
    for n in range(2, 20):
        b = build_counterexample(n)
        for chunk in (
            save(b.left.model),
            save(b.right.model),
            dump_json({"pairs": b.z.pairs}),
            save_script(b.refutation),
            dump_json([
                print_formula(b.phi),
                print_formula(b.psi),
                sorted(b.z.alphabet),
                b.left.point,
                b.right.point,
            ]),
        ):
            digest.update(chunk)
    assert digest.hexdigest() == (
        "040588020215e6d940e7c7ad581e1ee2092216e6e4ecbe7a3443496209f14ce9"
    )
