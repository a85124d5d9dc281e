import pickle
import random
import sys

import pytest

from wamlkit.cli import main
from wamlkit.errors import BudgetExceededError
from wamlkit.model import make_model, random_model
from wamlkit.semantics import check
from wamlkit.syntax import Box, Diamond, Not, parse
from wamlkit.translate import (
    MAX_TRANSLATION_NODES,
    Exists,
    Forall,
    FolAnd,
    FolFormula,
    FolImplies,
    FolNot,
    FolOr,
    LetterPred,
    Rel,
    fol_eval,
    free_variables,
    render_text,
    st,
    st_size,
    tptp_export,
)

from conftest import random_formula


def test_box_clause_shape():
    g = st(parse("box p"), 2, "x")
    assert g == Forall(
        "y1",
        Forall(
            "y2",
            FolImplies(
                Rel(("x", "y1", "y2")),
                FolOr(LetterPred("p", "y1"), LetterPred("p", "y2")),
            ),
        ),
    )


def test_atomic_and_negation_clauses():
    assert st(parse("p"), 2, "x") == LetterPred("p", "x")
    assert st(parse("~p"), 2, "x") == FolNot(LetterPred("p", "x"))


def test_diamond_is_existential_mirror():
    g = st(parse("dia p"), 2, "x")
    assert g == Exists(
        "y1",
        Exists(
            "y2",
            FolAnd(
                Rel(("x", "y1", "y2")),
                FolAnd(LetterPred("p", "y1"), LetterPred("p", "y2")),
            ),
        ),
    )


def test_exactly_one_free_variable():
    rng = random.Random(2)
    for _ in range(100):
        f = random_formula(rng, ["p", "q"], 3)
        assert free_variables(st(f, 2, "x")) <= {"x"}
    assert free_variables(st(parse("box p -> dia q"), 3, "w0")) == {"w0"}


def test_nested_modalities_get_fresh_variables():
    g = st(parse("box box p"), 1, "x")
    assert g == Forall(
        "y1",
        FolImplies(
            Rel(("x", "y1")),
            Forall(
                "y1_1",
                FolImplies(Rel(("y1", "y1_1")), LetterPred("p", "y1_1")),
            ),
        ),
    )


def test_translation_agrees_with_model_checker():
    rng = random.Random(8)
    for i in range(200):
        arity = rng.randint(1, 3)
        m = random_model(arity, rng.randint(1, 3), rng.uniform(0, 0.4), {"p", "q"}, seed=i)
        f = random_formula(rng, ["p", "q"], 2, fuel=7)
        w = m.worlds[rng.randrange(len(m.worlds))]
        assert check(m, w, f) == fol_eval(m, {"x": w}, st(f, arity, "x"))


def test_duality_preserved_through_translation():
    rng = random.Random(9)
    for i in range(60):
        arity = rng.randint(1, 2)
        m = random_model(arity, rng.randint(1, 3), rng.uniform(0, 0.5), {"p"}, seed=i)
        f = random_formula(rng, ["p"], 1, fuel=5)
        for w in m.worlds:
            env = {"x": w}
            assert fol_eval(m, env, st(Diamond(f), arity, "x")) == fol_eval(
                m, env, st(Not(Box(Not(f))), arity, "x")
            )


def test_fol_eval_rejects_unassigned_variables():
    g = st(parse("p"), 1, "x")
    with pytest.raises(ValueError, match="x"):
        fol_eval(random_model(1, 2, 0.5, {"p"}, seed=0), {}, g)


def test_tptp_export_exact_line():
    g = st(parse("box p"), 2, "x")
    assert (
        tptp_export(g, "axiom", "name", {"x": "c"})
        == "fof(name, axiom, ! [Y1,Y2] : (r(c,Y1,Y2) => (p_p(Y1) | p_p(Y2))))."
    )


def test_tptp_conjecture_role_and_determinism():
    g = st(parse("dia (p & ~q)"), 2, "x")
    line = tptp_export(g, "conjecture", "goal_1", {"x": "c0"})
    assert line.startswith("fof(goal_1, conjecture, ? [Y1,Y2] :")
    assert line == tptp_export(g, "conjecture", "goal_1", {"x": "c0"})


def test_tptp_export_validation():
    g = st(parse("box p"), 2, "x")
    with pytest.raises(ValueError, match="identifier"):
        tptp_export(g, "axiom", "Bad Name", {"x": "c"})
    with pytest.raises(ValueError, match="role"):
        tptp_export(g, "lemma", "name", {"x": "c"})
    with pytest.raises(ValueError, match="ungrounded"):
        tptp_export(g, "axiom", "name", {})


def test_render_text_keeps_variables():
    g = st(parse("box p"), 2, "x")
    assert render_text(g) == "! [y1,y2] : (r(x,y1,y2) => (p_p(y1) | p_p(y2)))"
    assert "$true" in render_text(st(parse("true"), 1, "x"))


def test_deep_translations_are_one_node_and_do_not_recurse():
    # 3000 nested quantifiers, past the recursion limit
    a, b = st(parse("box p"), 3000), st(parse("box p"), 3000)
    assert sys.getrecursionlimit() < 3000
    assert a is b and a == b and hash(a) == hash(b)
    text = repr(a)
    assert text.startswith("Forall(var='y1', body=Forall(var='y2', body=")
    assert text.count("Forall(") == 3000 and text.endswith("'y3000')))" + ")" * 3000)


def test_fol_eval_reads_a_quantifier_block_and_a_chain_in_one_loop():
    # 3000 nested quantifiers over a 3000-operand chain, past the recursion
    # limit: a box holds vacuously without successors, and a diamond needs
    # one; with the loop it holds, and each needs p at a successor
    assert sys.getrecursionlimit() < 3000
    empty = make_model(3000, ["w"], [], {})
    loop = make_model(3000, ["w"], [("w",) * 3001], {})
    marked = make_model(3000, ["w"], [("w",) * 3001], {"w": ["p"]})
    for text, verdicts in (("box p", (True, False, True)), ("dia p", (False, False, True))):
        g = st(parse(text), 3000)
        assert [fol_eval(m, {"x": "w"}, g) for m in (empty, loop, marked)] == list(verdicts)
        assert [check(m, "w", parse(text)) for m in (empty, loop, marked)] == list(verdicts)
    # a variable bound twice in one block takes its inner value
    m = make_model(1, ["u", "v"], [], {"u": ["p"]})
    assert not fol_eval(m, {}, Forall("y", Forall("y", LetterPred("p", "y"))))
    assert fol_eval(m, {}, Exists("y", Exists("y", LetterPred("p", "y"))))


def test_first_order_nodes_are_immutable_values():
    g = st(parse("dia p"), 2)
    assert g is st(parse("dia p"), 2) and pickle.loads(pickle.dumps(g)) is g
    assert LetterPred("p", "x") != Rel(("p", "x")) and FolNot(g) != (g,)
    for node, name in ((g, "body"), (LetterPred("p", "x"), "var"), (Rel(("x",)), "args")):
        with pytest.raises(AttributeError):
            setattr(node, name, "y")
    assert repr(LetterPred("p", "x")) == "LetterPred(letter='p', var='x')"


def _fol_nodes(g):
    return 1 + sum(
        _fol_nodes(v)
        for v in (getattr(g, name) for name in g.__match_args__)
        if isinstance(v, FolFormula)
    )


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_st_size_counts_the_translation(arity):
    rng = random.Random(arity)
    for _ in range(200):
        f = random_formula(rng, ["p", "q"], 3, rng.randint(1, 16))
        assert st_size(f, arity) == _fol_nodes(st(f, arity, "x"))


def _boxes(k):
    return parse("box " * k + "p")


def test_translation_is_capped(capsys):
    assert st_size(_boxes(16), 2) == 393_211 <= MAX_TRANSLATION_NODES
    assert st_size(_boxes(18), 2) > MAX_TRANSLATION_NODES
    with pytest.raises(BudgetExceededError):
        st(_boxes(18), 2)
    assert main(["translate", "box " * 30 + "p", "--arity", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_free_variables_of_rebound_and_shadowed_variables():
    p = lambda v: LetterPred("p", v)  # noqa: E731
    assert free_variables(FolAnd(Forall("y", p("y")), p("y"))) == {"y"}
    assert free_variables(Forall("y", FolAnd(Forall("y", p("y")), p("y")))) == set()
    assert free_variables(Exists("y", Rel(("x", "y", "z")))) == {"x", "z"}
    assert free_variables(FolNot(Forall("x", p("y")))) == {"y"}


@pytest.mark.parametrize("mode", ["text", "tptp"])
def test_box_at_arity_1000_translates(mode, capsys):
    # a 1,000-operand disjunction under 1,000 quantifiers: neither the
    # free-variable walk nor the rendering may recurse once per link
    assert free_variables(st(parse("box p"), 1000, "x")) == {"x"}
    argv = ["translate", "box p", "--arity", "1000"]
    x, ys = "x", [f"y{i}" for i in range(1, 1001)]
    if mode == "tptp":
        argv += ["--format", "tptp", "--ground", "c"]
        x, ys = "c", [y.upper() for y in ys]
    line = (
        f"! [{','.join(ys)}] : (r({','.join([x, *ys])}) => ("
        + " | ".join(f"p_p({y})" for y in ys)
        + "))"
    )
    if mode == "tptp":
        line = f"fof(translation, axiom, {line})."
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"
