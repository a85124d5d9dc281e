"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from wamlkit import interp
from wamlkit.bisim import distance, distinguishing_formula, greatest_bisim, k_bisim
from wamlkit.cli import main
from wamlkit.model import random_model
from wamlkit.proof import kn_axiom
from wamlkit.semantics import ModelEvaluator, check, valid_on_model
from wamlkit.syntax import enumeration_program, print_formula
from wamlkit.translate import fol_eval, st
from wamlkit.unravel import unravel

from conftest import fixture, random_formula

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_criterion_01_arity_two_reproduction(capsys):
    """The shipped arity-2 counterexample reproduces end to end in < 1 s."""
    start = time.perf_counter()
    code, _ = run(capsys, "mc", fixture("m2.json"), "w", "box(~p|~q) & dia q")
    assert code == 0
    code, _ = run(capsys, "mc", fixture("n2.json"), "v", "box(p&r) & box(p&~r)")
    assert code == 0
    code, _ = run(
        capsys,
        "bisim",
        "check",
        fixture("m2.json"),
        fixture("n2.json"),
        fixture("z2.json"),
        "--letters",
        "p",
    )
    assert code == 0
    code, _ = run(capsys, "proof", "check", fixture("proof2.json"))
    assert code == 0
    code, out = run(capsys, "interp", "demo", "--n", 2)
    assert code == 0
    assert out.count("): PASS") == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS (arity-2 reproduction, {elapsed:.2f}s)")


def test_criterion_02_arity_three_and_generated(capsys, tmp_path):
    """Arity 3 from fixtures plus generated bundles at 4, 5, 6 in < 5 s."""
    start = time.perf_counter()
    b3 = interp.build_counterexample(3)
    code, _ = run(capsys, "mc", fixture("m3.json"), "w", print_formula(b3.phi))
    assert code == 0
    code, _ = run(capsys, "mc", fixture("n3.json"), "v", print_formula(b3.psi))
    assert code == 0
    code, _ = run(
        capsys,
        "bisim",
        "check",
        fixture("m3.json"),
        fixture("n3.json"),
        fixture("z3.json"),
        "--letters",
        "p",
    )
    assert code == 0
    code, _ = run(capsys, "proof", "check", fixture("proof3.json"))
    assert code == 0
    code, out = run(capsys, "interp", "demo", "--n", 3)
    assert code == 0 and out.count("): PASS") == 3

    for n in (4, 5, 6):
        bundle_dir = tmp_path / f"bundle{n}"
        code, out = run(
            capsys, "interp", "demo", "--n", n, "--emit-bundle", bundle_dir
        )
        assert code == 0 and out.count("): PASS") == 3
        meta = json.loads((bundle_dir / "formulas.json").read_text())
        code, _ = run(
            capsys, "mc", bundle_dir / "left.json", meta["left_point"], meta["phi"]
        )
        assert code == 0
        code, _ = run(
            capsys, "mc", bundle_dir / "right.json", meta["right_point"], meta["psi"]
        )
        assert code == 0
        code, _ = run(
            capsys,
            "bisim",
            "check",
            bundle_dir / "left.json",
            bundle_dir / "right.json",
            bundle_dir / "relation.json",
            "--letters",
            ",".join(meta["alphabet"]),
        )
        assert code == 0
        code, _ = run(capsys, "proof", "check", bundle_dir / "proof.json")
        assert code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS (arities 3-6 reproduction, {elapsed:.2f}s)")


def test_criterion_03_axiom_soundness_500():
    """500 random axiom instances valid on 500 random models."""
    rng = random.Random(2024)
    violations = 0
    for i in range(500):
        arity = 1 + i % 4
        subst = {
            f"p{j}": random_formula(rng, ["p", "q", "r"], 2, fuel=6)
            for j in range(arity + 1)
        }
        instance = kn_axiom(arity, subst)
        m = random_model(
            arity,
            rng.randint(1, 4),
            rng.uniform(0, 0.35),
            {"p", "q", "r"},
            seed=arity * 10_000 + i,
        )
        if not valid_on_model(m, instance):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 3: PASS (500/500 axiom instances valid)")


def test_criterion_04_aggregation_failure_witness(capsys):
    """Aggregation fails on 2-ary frames but holds at arity 1; < 30 s."""
    start = time.perf_counter()
    code, out = run(
        capsys, "sat", "box p & box q & ~box(p&q)", "--arity", 2, "--max-worlds", 4
    )
    assert code == 0 and "satisfiable" in out
    code, out = run(
        capsys, "sat", "box p & box q & ~box(p&q)", "--arity", 1, "--max-worlds", 4
    )
    assert code == 1 and "unsat" in out
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 4: PASS (aggregation-failure witness, {elapsed:.2f}s)")


def test_criterion_05_bisimulation_invariance_sweep():
    """100 random pairs: bisimilar worlds agree on every enumerated
    two-letter formula of depth <= 2 and size <= 7."""
    alphabet = frozenset({"p", "q"})
    program = list(enumeration_program(alphabet, 2, 7))
    rng = random.Random(505)
    violations = 0
    checked_pairs = 0
    for i in range(100):
        left = random_model(2, rng.randint(1, 5), rng.uniform(0, 0.25), alphabet, seed=1000 + i)
        right = random_model(2, rng.randint(1, 5), rng.uniform(0, 0.25), alphabet, seed=2000 + i)
        g = greatest_bisim(left, right, alphabet)
        if not g.pairs:
            continue
        positions = [(left.index[a], right.index[b]) for a, b in g.pairs]
        checked_pairs += len(positions)
        lms, rms = ModelEvaluator(left).run(program), ModelEvaluator(right).run(program)
        for lm, rm in zip(lms, rms):
            for pa, pb in positions:
                if (lm >> pa & 1) != (rm >> pb & 1):
                    violations += 1
    assert violations == 0
    assert checked_pairs > 0
    print(
        f"ACCEPTANCE 5: PASS (invariance: {checked_pairs} bisimilar pairs x "
        f"{len(program)} formulas, 0 violations)"
    )


def test_criterion_06_hennessy_milner_extraction():
    """100 random pairs: every non-bisimilar root pair yields a verified
    distinguishing formula."""
    alphabet = frozenset({"p", "q"})
    rng = random.Random(606)
    extracted = 0
    for i in range(100):
        left = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=5000 + i)
        right = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.3), alphabet, seed=6000 + i)
        g = greatest_bisim(left, right, alphabet)
        w, v = left.worlds[0], right.worlds[0]
        f = distinguishing_formula(left, w, right, v, alphabet)
        if (w, v) in g.pairs:
            assert f is None
        else:
            extracted += 1
            assert f is not None
            assert check(left, w, f)
            assert not check(right, v, f)
    assert extracted > 20  # the sample really exercises extraction
    print(f"ACCEPTANCE 6: PASS (Hennessy-Milner: {extracted} verified extractions)")


def test_criterion_07_translation_agreement_200():
    """200 random triples: first-order evaluation of the standard
    translation agrees with the model checker."""
    rng = random.Random(707)
    for i in range(200):
        arity = 1 + i % 3
        m = random_model(arity, rng.randint(1, 3), rng.uniform(0, 0.4), {"p", "q"}, seed=7000 + i)
        f = random_formula(rng, ["p", "q"], 2, fuel=7)
        w = m.worlds[rng.randrange(len(m.worlds))]
        assert check(m, w, f) == fol_eval(m, {"x": w}, st(f, arity, "x"))
    print("ACCEPTANCE 7: PASS (200/200 translation agreements)")


def test_criterion_08_unraveling_locality():
    """50 random pointed models: the bounded unraveling's root is
    level-bisimilar to the original point and agrees on all shallow
    formulas."""
    alphabet = frozenset({"p", "q"})
    rng = random.Random(808)
    programs = {level: list(enumeration_program(alphabet, level, 5)) for level in (0, 1, 2)}
    for i in range(50):
        m = random_model(2, rng.randint(1, 4), rng.uniform(0, 0.2), alphabet, seed=8000 + i)
        w = m.worlds[rng.randrange(len(m.worlds))]
        for level in (0, 1, 2):
            result = unravel(m, w, level)
            z = k_bisim(result.model, m, alphabet, level)
            assert (result.root, w) in z.pairs
            root, point = result.model.index[result.root], m.index[w]
            ums = ModelEvaluator(result.model).run(programs[level])
            mms = ModelEvaluator(m).run(programs[level])
            for um, mm in zip(ums, mms):
                assert (um >> root & 1) == (mm >> point & 1)
    print("ACCEPTANCE 8: PASS (bounded unravelings level-bisimilar, 0 violations)")


def test_criterion_09_triangle_inequality():
    """Distance satisfies the triangle inequality on 100 random models."""
    rng = random.Random(909)
    for i in range(100):
        m = random_model(rng.randint(1, 3), rng.randint(1, 5), rng.uniform(0, 0.3), set(), seed=9000 + i)
        for x in m.worlds:
            for y in m.worlds:
                for z in m.worlds:
                    assert distance(m, x, z) + distance(m, z, y) >= distance(m, x, y)
    print("ACCEPTANCE 9: PASS (triangle inequality on 100 models)")


_DETERMINISM_COMMANDS = [
    ["mc", "fixtures/m2.json", "w", "box(~p|~q) & dia q", "--json"],
    [
        "sat",
        "box p & box q & ~box(p&q)",
        "--arity",
        "2",
        "--max-worlds",
        "4",
        "--json",
    ],
    [
        "bisim",
        "check",
        "fixtures/m2.json",
        "fixtures/n2.json",
        "fixtures/z2.json",
        "--letters",
        "p",
        "--json",
    ],
    ["bisim", "max", "fixtures/m2.json", "fixtures/n2.json", "--letters", "p", "--json"],
    [
        "bisim",
        "distinguish",
        "fixtures/m2.json",
        "w",
        "fixtures/n2.json",
        "v",
        "--letters",
        "p,q,r",
        "--json",
    ],
    ["unravel", "fixtures/cycle.json", "w", "--depth", "2", "--json"],
    [
        "translate",
        "box p",
        "--arity",
        "2",
        "--format",
        "tptp",
        "--ground",
        "c0",
        "--json",
    ],
    ["proof", "check", "fixtures/proof2.json", "--json"],
    ["interp", "demo", "--n", "2", "--json"],
    [
        "experiment",
        "locality",
        "fixtures/cycle.json",
        "w",
        "box box false",
        "--json",
    ],
]


def _run_subprocess(argv, hashseed):
    env = {
        **os.environ,
        "PYTHONHASHSEED": hashseed,
        "PYTHONPATH": str(ROOT / "src"),
    }
    return subprocess.run(
        [sys.executable, "-m", "wamlkit", *argv],
        capture_output=True,
        cwd=ROOT,
        env=env,
        check=False,
    ).stdout


def test_criterion_10_json_determinism():
    """Every JSON-mode command is byte-identical across two fresh runs."""
    for argv in _DETERMINISM_COMMANDS:
        first = _run_subprocess(argv, "0")
        second = _run_subprocess(argv, "1")
        assert first == second, f"nondeterministic output for {argv}"
        assert first, f"no output for {argv}"
    print(
        f"ACCEPTANCE 10: PASS ({len(_DETERMINISM_COMMANDS)} commands "
        "byte-identical across runs)"
    )
