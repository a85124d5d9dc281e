import gc
import itertools
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from wamlkit import interp, proof, syntax
from wamlkit.errors import BudgetExceededError, ModelLoadError
from wamlkit.model import random_model
from wamlkit.proof import (
    KnAxiomJust,
    LineReport,
    MPJust,
    NecJust,
    PLFromJust,
    ProofLine,
    ProofScript,
    REJust,
    RMJust,
    TautJust,
    check_script,
    expand_diamonds,
    is_tautology,
    kn_axiom,
    load_script,
    save_script,
    script_from_dict,
    script_to_dict,
)
from wamlkit.semantics import bounded_sat, valid_on_model
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
    compile_formula,
    conj,
    enumerate_formulas,
    parse,
    print_formula,
)

from conftest import fixture, random_formula

ROOT = Path(__file__).resolve().parent.parent


def _id_subst(arity):
    return {f"p{i}": Letter(f"p{i}") for i in range(arity + 1)}


def test_arity_one_axiom_is_aggregation_shape():
    assert kn_axiom(1, _id_subst(1)) == parse("box p0 & box p1 -> box (p0 & p1)")


def test_arity_two_axiom_displayed_shape():
    assert kn_axiom(2, _id_subst(2)) == parse(
        "box p0 & box p1 & box p2 -> box (p0 & p1 | p0 & p2 | p1 & p2)"
    )


def test_axiom_instance_for_arity_three_counterexample():
    subst = {
        "p0": parse("p & ~q"),
        "p1": parse("p & q"),
        "p2": parse("~p & r"),
        "p3": parse("~p & ~r"),
    }
    instance = kn_axiom(3, subst)
    script = interp.build_counterexample(3).refutation
    assert script.lines[0].formula == instance


def test_kn_axiom_at_arity_30_built_twice_compares_equal():
    # 465 disjuncts, one level each: comparison must not recurse per level
    subst = {f"p{i}": parse(f"dia p{i} -> q") for i in range(31)}
    assert kn_axiom(30, subst) == kn_axiom(30, dict(subst))
    other = {**subst, "p30": parse("dia p30 -> r")}
    assert kn_axiom(30, subst) != kn_axiom(30, other)


def test_kn_axiom_requires_complete_substitution():
    with pytest.raises(ValueError, match="p2"):
        kn_axiom(2, _id_subst(1))


def test_single_tautology_line():
    script = ProofScript(1, (ProofLine(parse("p -> p"), TautJust()),))
    assert check_script(script) is None


def test_boxes_are_opaque_atoms():
    # box(p & q) is not a propositional consequence of box p and box q
    script = ProofScript(
        2,
        (
            ProofLine(parse("box p"), TautJust()),  # placeholder premises
            ProofLine(parse("box q"), TautJust()),
            ProofLine(parse("box (p & q)"), PLFromJust((1, 2))),
        ),
    )
    report = check_script(script)
    assert report is not None
    # the first two lines already fail (they are not tautologies), so aim
    # the consequence check directly
    script = ProofScript(
        2,
        (
            ProofLine(parse("box p & box q -> box p & box q"), TautJust()),
            ProofLine(parse("box p & box q -> box (p & q)"), PLFromJust((1,))),
        ),
    )
    report = check_script(script)
    assert report == LineReport(2, "not a tautological consequence of the cited lines")


def test_abstraction_is_conservative():
    # identical boxed subformulas share an atom...
    assert is_tautology(parse("box (p & q) -> box (p & q)"))
    assert is_tautology(parse("box p | ~box p"))
    # ...but distinct ones never do, even when logically equivalent
    assert not is_tautology(parse("box (p & q) <-> box (q & p)"))
    assert not is_tautology(parse("box p & box q -> box (p & q)"))


def test_diamond_reads_as_negated_box():
    assert expand_diamonds(parse("dia p")) == parse("~box ~p")
    script = ProofScript(
        1, (ProofLine(parse("dia p <-> ~box ~p"), TautJust()),)
    )
    assert check_script(script) is None


def test_mp_nec_rm_rules():
    script = ProofScript(
        1,
        (
            ProofLine(parse("p -> p | q"), TautJust()),
            ProofLine(parse("box (p -> p | q)"), NecJust(1)),
            ProofLine(parse("box p -> box (p | q)"), RMJust(1)),
        ),
    )
    assert check_script(script) is None
    mp = ProofScript(
        1,
        (
            ProofLine(parse("p & q -> q"), TautJust()),
            ProofLine(parse("(p & q -> q) -> (p -> (p & q -> q))"), TautJust()),
            ProofLine(parse("p -> (p & q -> q)"), MPJust(2, 1)),
        ),
    )
    assert check_script(mp) is None


def test_re_rule_both_flavors():
    taut_flavor = ProofScript(
        1,
        (ProofLine(parse("box (p & q) <-> box (q & p)"), REJust(None)),),
    )
    assert check_script(taut_flavor) is None
    cited_flavor = ProofScript(
        1,
        (
            ProofLine(parse("p & q <-> q & p"), TautJust()),
            ProofLine(parse("box (p & q) <-> box (q & p)"), REJust(1)),
        ),
    )
    assert check_script(cited_flavor) is None
    wrong = ProofScript(
        1,
        (ProofLine(parse("box p <-> box q"), REJust(None)),),
    )
    report = check_script(wrong)
    assert report is not None and "biconditional" in report.reason


def test_forward_references_rejected():
    script = ProofScript(
        1,
        (
            ProofLine(parse("box p -> box p"), PLFromJust((2,))),
            ProofLine(parse("p -> p"), TautJust()),
        ),
    )
    report = check_script(script)
    assert report == LineReport(1, "cited line must be strictly earlier")


def test_tautology_atom_cap():
    letters = [Letter(f"a{i}") for i in range(21)]
    conj = letters[0]
    for l in letters[1:]:
        conj = And(conj, l)
    with pytest.raises(BudgetExceededError):
        is_tautology(Implies(conj, conj))
    # a line over the cap is no verdict: check_script raises, naming it
    script = ProofScript(1, (ProofLine(Implies(conj, conj), TautJust()),))
    with pytest.raises(
        BudgetExceededError,
        match=r"^line 1: tautology check over 21 atoms exceeds the cap of 20$",
    ):
        check_script(script)


def test_tautology_atom_cap_in_re_and_plfrom_lines():
    # an RE line without a source and a PLFrom line check a tautology too
    conj = Letter("a0")
    for i in range(1, 21):
        conj = And(conj, Letter(f"a{i}"))
    script = ProofScript(1, (ProofLine(Iff(Box(conj), Box(conj)), REJust(None)),))
    with pytest.raises(BudgetExceededError, match=r"^line 1: .* exceeds the cap of 20$"):
        check_script(script)
    script = ProofScript(
        1,
        (
            ProofLine(parse("p -> p"), TautJust()),
            ProofLine(Implies(conj, conj), PLFromJust((1,))),
        ),
    )
    with pytest.raises(BudgetExceededError, match=r"^line 2: .* exceeds the cap of 20$"):
        check_script(script)


def test_bundled_scripts_check(tmp_path):
    for n in (2, 3):
        script = load_script(fixture(f"proof{n}.json").read_bytes())
        assert check_script(script) is None
        assert script.arity == n
    # JSON round trip
    script = load_script(fixture("proof2.json").read_bytes())
    assert script_from_dict(script_to_dict(script)) == script
    assert save_script(script) == fixture("proof2.json").read_bytes()


def test_generated_refutations_check_for_larger_arities():
    for n in (4, 5, 7):
        script = interp.build_counterexample(n).refutation
        assert check_script(script) is None
        b = interp.build_counterexample(n)
        assert script.theorem() == Implies(b.phi, Not(b.psi))
    # corroborate the arity-5 refutation with the bounded search
    b = interp.build_counterexample(5)
    assert bounded_sat(And(b.phi, b.psi), 5, 2) is None


def test_generate_rejects_small_n():
    with pytest.raises(ValueError):
        interp.build_counterexample(1).refutation


def test_accepted_lines_are_valid_on_random_models():
    rng = random.Random(23)
    for n in (2, 3, 4):
        script = interp.build_counterexample(n).refutation
        assert check_script(script) is None
        for i in range(100 // len(script.lines) + 1):
            m = random_model(n, rng.randint(1, 3), rng.uniform(0, 0.4), {"p", "q", "r", "r1", "r2"}, seed=i)
            for line in script.lines:
                assert valid_on_model(m, line.formula)


def test_aggregation_shape_fails_on_two_frames():
    # the arity-1 axiom shape, read at arity 2, has a countermodel
    c_shape = kn_axiom(1, {"p0": Letter("p"), "p1": Letter("q")})
    witness = bounded_sat(Not(c_shape), 2, 3)
    assert witness is not None
    assert not valid_on_model(witness.model, c_shape)


def test_substitution_domain_must_match():
    for names in (
        ("p0", "p1"), ("p0", "p1", "p02"), ("p0", "p1", "p3"), ("p0", "p1", "p2", "p3"),
        ("p0", "p1", "q"), ("p0", "p1", "p-1"),
    ):
        subst = tuple((name, Letter("p")) for name in names)
        bad = ProofScript(2, (ProofLine(kn_axiom(2, _id_subst(2)), KnAxiomJust(subst)),))
        assert check_script(bad) == LineReport(
            1, "substitution domain must be exactly p0..p2"
        )


def test_script_json_errors():
    with pytest.raises(ModelLoadError):
        load_script(b"{")
    with pytest.raises(ModelLoadError, match="arity"):
        script_from_dict({"arity": 0, "lines": []})
    with pytest.raises(ModelLoadError, match="kind"):
        script_from_dict(
            {"arity": 1, "lines": [{"formula": "p", "just": {}}]}
        )


def _reference_tautology(f):
    """Row-by-row truth table over the letters and maximal boxes of f
    after diamond expansion, one recursive evaluation per row."""
    g = expand_diamonds(f)
    atoms = []

    def collect(h):
        match h:
            case Letter() | Box():
                if h not in atoms:
                    atoms.append(h)
            case Not(a):
                collect(a)
            case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
                collect(a)
                collect(b)

    def value(h, row):
        match h:
            case Letter() | Box():
                return row[h]
            case Top():
                return True
            case Bottom():
                return False
            case Not(a):
                return not value(a, row)
            case And(a, b):
                return value(a, row) and value(b, row)
            case Or(a, b):
                return value(a, row) or value(b, row)
            case Implies(a, b):
                return not value(a, row) or value(b, row)
            case Iff(a, b):
                return value(a, row) == value(b, row)

    collect(g)
    return all(
        value(g, dict(zip(atoms, row)))
        for row in itertools.product((False, True), repeat=len(atoms))
    )


def test_is_tautology_matches_row_by_row_reference():
    rng = random.Random(5150)
    verdicts = []
    for i in range(400):
        f = random_formula(rng, ["p", "q", "r"], 2, fuel=rng.randint(3, 10))
        g = random_formula(rng, ["p", "q"], 2, fuel=rng.randint(1, 6))
        # every other formula has a shape that is often a tautology
        if i % 2:
            f = rng.choice([Or(f, Not(f)), Implies(And(f, g), f), Iff(f, g)])
        verdicts.append(is_tautology(f))
        assert verdicts[-1] == _reference_tautology(f), print_formula(f)
    assert 100 <= sum(verdicts) <= 300


def test_kn_axiom_domain_check_at_a_huge_arity_is_refused_at_once(tmp_path):
    # listing the names p0..p<arity> before comparing would not end here
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"arity": 10**18, "lines": [
        {"formula": "p", "just": {"kind": "KnAxiom", "subst": {"p0": "p"}}}
    ]}))

    proc = _proof_check_in_a_gigabyte(path)
    assert proc.returncode == 1
    assert proc.stdout == (
        "invalid at line 1: substitution domain must be exactly "
        "p0..p1000000000000000000\n"
    )
    assert "Traceback" not in proc.stderr


def _cap_address_space():  # in a child only
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))


def _proof_check_in_a_gigabyte(path):
    return subprocess.run(
        [sys.executable, "-m", "wamlkit", "proof", "check", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=_cap_address_space,
        timeout=30,
        check=False,
    )


def test_kn_axiom_refuses_an_instance_over_the_pair_cap_before_building_it():
    # arity 44 has 990 disjuncts, 45 has 1035; the cap is checked before
    # the substitution's names are listed
    assert proof.MAX_AXIOM_PAIRS == 1000
    kn_axiom(44, _id_subst(44))
    message = "the axiom instance at arity 45 has 1035 disjuncts, over the cap of 1000"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        kn_axiom(45, {})
    with pytest.raises(BudgetExceededError, match="arity 1000000000000000000 "):
        kn_axiom(10**18, {})
    line = ProofLine(Letter("p"), KnAxiomJust(tuple(sorted(_id_subst(45).items()))))
    with pytest.raises(BudgetExceededError, match=f"^line 1: {message}$"):
        check_script(ProofScript(45, (line,)))


def test_kn_axiom_line_over_the_pair_cap_exits_2_within_a_gigabyte(tmp_path):
    # 20,100 disjuncts: building them and printing the expected instance
    # ended in a MemoryError traceback with exit 1 here
    path = tmp_path / "arity200.json"
    subst = {f"p{i}": "p" for i in range(201)}
    path.write_text(json.dumps({"arity": 200, "lines": [
        {"formula": "p", "just": {"kind": "KnAxiom", "subst": subst}}
    ]}))
    proc = _proof_check_in_a_gigabyte(path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: line 1: the axiom instance at arity 200 has 20100 disjuncts, "
        "over the cap of 1000\n"
    )


# ---------------------------------------------------------------------------
# The memoised checker against the checker as first written

def _reference_check_script(script):
    """``check_script`` without a memo: each line is expanded on its own,
    and every tautology check and axiom instance is expanded again."""
    if script.arity < 1:
        return LineReport(0, f"arity must be >= 1, got {script.arity}")
    if not script.lines:
        return LineReport(0, "script has no lines")
    norms = []
    for number, line in enumerate(script.lines, start=1):
        current = expand_diamonds(line.formula)

        def cited(index):
            if not 1 <= index < number:
                raise LookupError
            return norms[index - 1]

        try:
            reason = _reference_line(script.arity, current, line.justification, cited)
        except BudgetExceededError as e:
            raise BudgetExceededError(f"line {number}: {e}") from e
        except LookupError:
            reason = "cited line must be strictly earlier"
        if reason is not None:
            return LineReport(number, reason)
        norms.append(current)
    return None


def _reference_line(arity, current, just, cited):
    match just:
        case TautJust():
            if not is_tautology(current):
                return "not a propositional tautology after abstraction"
        case KnAxiomJust(substitution):
            subst = dict(substitution)
            if set(subst) != {f"p{i}" for i in range(arity + 1)}:
                return f"substitution domain must be exactly p0..p{arity}"
            expected = expand_diamonds(kn_axiom(arity, subst))
            if current != expected:
                return (
                    "formula is not the stated axiom instance; expected "
                    + print_formula(expected)
                )
        case MPJust(implication, antecedent):
            impl = cited(implication)
            ante = cited(antecedent)
            if not isinstance(impl, Implies):
                return f"line {implication} is not an implication"
            if impl.left != ante:
                return f"line {antecedent} does not match the antecedent"
            if impl.right != current:
                return "formula does not match the consequent"
        case NecJust(source):
            if current != Box(cited(source)):
                return f"formula is not box applied to line {source}"
        case RMJust(source):
            src = cited(source)
            if not isinstance(src, Implies):
                return f"line {source} is not an implication"
            if current != Implies(Box(src.left), Box(src.right)):
                return "formula is not the boxed form of the cited implication"
        case REJust(source):
            if not (
                isinstance(current, Iff)
                and isinstance(current.left, Box)
                and isinstance(current.right, Box)
            ):
                return "formula must be a biconditional between two boxes"
            equivalence = Iff(current.left.operand, current.right.operand)
            if source is None:
                if not is_tautology(equivalence):
                    return "the unboxed biconditional is not a tautology"
            elif cited(source) != equivalence:
                return f"line {source} is not the matching biconditional"
        case PLFromJust(sources):
            premises = [cited(index) for index in sources]
            if not is_tautology(Implies(conj(premises), current)):
                return "not a tautological consequence of the cited lines"
    return None


def _outcome(check, script):
    try:
        return check(script)
    except BudgetExceededError as e:
        return f"refused: {e}"


def _mutants(script, rng, replacements):
    """Single-line mutants: a justification swapped for another line's,
    a citation moved to the line itself or later, a formula replaced."""
    lines = list(script.lines)
    # every kind of line cites but Taut, KnAxiom and RE without a source
    citing = [
        (k, line) for k, line in enumerate(lines)
        if not isinstance(line.justification, (TautJust, KnAxiomJust))
        and getattr(line.justification, "source", 0) is not None
    ]
    for _ in range(3):
        i, j = rng.sample(range(len(lines)), 2)
        yield ProofLine(lines[i].formula, lines[j].justification), i
        k, line = rng.choice(citing)
        later = rng.randint(k + 1, len(lines) + 1)
        match line.justification:
            case MPJust(implication, antecedent):
                just = rng.choice([MPJust(later, antecedent), MPJust(implication, later)])
            case PLFromJust(sources):
                moved = list(sources)
                moved[rng.randrange(len(moved))] = later
                just = PLFromJust(tuple(moved))
            case other:
                just = type(other)(later)
        yield ProofLine(line.formula, just), k
        k = rng.randrange(len(lines))
        yield ProofLine(rng.choice(replacements), lines[k].justification), k


def test_memoised_checker_matches_the_reference_checker():
    rng = random.Random(1818)
    replacements = list(enumerate_formulas({"p", "q"}, 2, 5))
    scripts = [interp.build_counterexample(n).refutation for n in range(2, 20)]
    scripts += [load_script(fixture(f"proof{n}.json").read_bytes()) for n in (2, 3)]
    outcomes = []
    for script in scripts:
        cases = [script]
        for line, k in _mutants(script, rng, replacements):
            lines = list(script.lines)
            lines[k] = line
            cases.append(ProofScript(script.arity, tuple(lines)))
        for case in cases:
            outcomes.append(_outcome(check_script, case))
            assert outcomes[-1] == _outcome(_reference_check_script, case)
    # n = 18 and 19 are refused at the atom cap; most mutants fail a line
    assert sum(isinstance(o, str) for o in outcomes) >= 2
    assert sum(isinstance(o, LineReport) for o in outcomes) > len(outcomes) // 2


def test_memo_lives_for_one_check_script_call():
    letter = Letter("only_in_this_script")
    script = ProofScript(1, (
        ProofLine(Implies(Diamond(letter), Diamond(letter)), TautJust()),
        ProofLine(Box(Implies(Diamond(letter), Diamond(letter))), NecJust(1)),
    ))
    assert check_script(script) is None
    ref = weakref.ref(letter)
    del letter, script
    gc.collect()
    assert ref() is None


def test_proof_terms_keep_their_value_semantics():
    assert NecJust(1) == NecJust(1) and NecJust(1) is NecJust(1)
    assert NecJust(1) != RMJust(1) and NecJust(1) != (1,) and REJust(None) != REJust(1)
    assert PLFromJust((1, 2)) != PLFromJust((2, 1))
    script = interp.build_counterexample(3).refutation
    assert pickle.loads(pickle.dumps(script)) is script
    assert script == ProofScript(script.arity, tuple(script.lines))
    for node, name in ((NecJust(1), "source"), (script.lines[0], "formula"), (script, "arity")):
        with pytest.raises(AttributeError):
            setattr(node, name, 2)
    with pytest.raises(TypeError, match="REJust takes the fields"):
        REJust()
    assert repr(ProofLine(parse("p -> p"), MPJust(1, 2))) == (
        "ProofLine(formula=Implies(left=Letter(name='p'), right=Letter(name='p')), "
        "justification=MPJust(implication=1, antecedent=2))"
    )


def test_check_script_expands_each_subformula_once(monkeypatch):
    stepped = []
    expand_step = proof._expand_step

    def counting(node, op, *operands):
        stepped.append(node)
        return expand_step(node, op, *operands)

    monkeypatch.setattr(proof, "_expand_step", counting)
    script = interp.build_counterexample(8).refutation
    assert check_script(script) is None
    subformulas = {
        node for line in script.lines for node, *_ in compile_formula(line.formula)
    }
    assert len(stepped) == len(set(stepped))
    assert subformulas <= set(stepped)
    # beyond the script's own subformulas, only what the checker builds:
    # the unboxed biconditional of the RE line, and the conjunction of the
    # premises and the implication of each of the two PLFrom lines
    assert len(set(stepped) - subformulas) <= 5


def test_check_script_compiles_the_script_once(monkeypatch):
    # the truth tables compile their own forms with the propositional
    # atoms as leaves; every other compile is of the script
    script = interp.build_counterexample(8).refutation
    compiles = []
    compile_formula = syntax.compile_formula

    def counted(f, known=()):
        if not isinstance(known, proof._PropositionalAtoms):
            compiles.append(f)
        return compile_formula(f, known)

    monkeypatch.setattr(proof, "compile_formula", counted)
    monkeypatch.setattr(syntax, "compile_formula", counted)
    assert check_script(script) is None
    assert len(compiles) == 1
