import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wamlkit import interp, model
from wamlkit.bisim import greatest_bisim, k_bisim
from wamlkit.cli import build_parser, main
from wamlkit.model import load, make_model, model_to_dict, random_model, save
from wamlkit.semantics import check
from wamlkit.syntax import MAX_NESTING, parse, print_formula

from conftest import fixture

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_mc_exit_codes(capsys):
    code, out = run(capsys, "mc", fixture("m2.json"), "w", "box(~p|~q) & dia q")
    assert code == 0 and "true" in out
    code, out = run(capsys, "mc", fixture("m2.json"), "w", "p")
    assert code == 1 and "false" in out
    code, _ = run(capsys, "mc", fixture("m2.json"), "nosuch", "p")
    assert code == 2
    code, _ = run(capsys, "mc", fixture("m2.json"), "w", "p &&& q")
    assert code == 2
    code, _ = run(capsys, "mc", "no-such-file.json", "w", "p")
    assert code == 2


def test_mc_on_an_unknown_world_exits_2_with_its_message(capsys):
    for extra in ([], ["--json"]):
        code = main(["mc", str(fixture("m2.json")), "x", "box p", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown world 'x'\n"


def test_mc_json_payload(capsys):
    code, out = run(capsys, "mc", fixture("m2.json"), "w", "dia q", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["value"] is True
    assert payload["formula"] == "dia q"


def test_sat_witness_and_unsat(capsys):
    code, out = run(
        capsys, "sat", "box p & box q & ~box(p&q)", "--arity", 2, "--max-worlds", 4
    )
    assert code == 0 and "satisfiable" in out
    code, out = run(
        capsys, "sat", "box p & box q & ~box(p&q)", "--arity", 1, "--max-worlds", 4
    )
    assert code == 1 and "unsat" in out


def test_sat_budget_exhaustion_exits_2(capsys):
    code, _ = run(
        capsys,
        "sat",
        "box p & dia q & dia ~q",
        "--arity",
        2,
        "--max-worlds",
        3,
        "--budget",
        3,
    )
    assert code == 2


def test_aggregation_query_at_arity_three_exits_2_on_the_budget(capsys):
    # three worlds support it, and the witness walk faces 2^81 relations;
    # the walk skips the subtrees that hold no witness but counts them in
    # full, so it stops on the budget as a walk of one step per candidate
    # (relation and valuation) does
    text = "box p & box q & box r & ~box((p&q)|(p&r)|(q&r))"
    assert main(["sat", text, "--arity", "3", "--max-worlds", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search budget of 2000000 steps exhausted\n"


def test_sat_refuses_a_witness_of_more_than_a_million_cells(capsys):
    # one world supports dia p, so the walk faces one candidate tuple and
    # passes its up-front check; building that tuple of 10**9 + 1 slots
    # ended in a MemoryError traceback under a gigabyte
    argv = ["sat", "dia p", "--arity", "1000000000", "--max-worlds", "2"]
    for mode in ([], ["--json"]):
        assert main(argv + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a witness of arity 1000000000 would hold 1000000001 relation"
            " cells, over the cap of 1000000\n"
        )
    # a witness without tuples costs its worlds, whatever the arity
    argv = ["sat", "p", "--arity", "1000000000", "--max-worlds", "2", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"]["relation"] == [] and payload["world"] == "w0"


def test_bisim_check_cli(capsys):
    code, out = run(
        capsys,
        "bisim",
        "check",
        fixture("m2.json"),
        fixture("n2.json"),
        fixture("z2.json"),
        "--letters",
        "p",
    )
    assert code == 0 and "ok" in out
    code, out = run(
        capsys,
        "bisim",
        "check",
        fixture("m2.json"),
        fixture("n2.json"),
        fixture("z2.json"),
        "--letters",
        "p,q",
    )
    assert code == 1  # q breaks the valuation agreement


def test_bisim_max_cli(capsys):
    code, out = run(
        capsys,
        "bisim",
        "max",
        fixture("nonaligned_left.json"),
        fixture("nonaligned_right.json"),
        "--letters",
        "p",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert ["w", "v"] in payload["pairs"]
    code, out = run(
        capsys,
        "bisim",
        "max",
        fixture("m2.json"),
        fixture("n2.json"),
        "--letters",
        "p",
        "--k",
        "0",
        "--json",
    )
    assert code == 0 and json.loads(out)["k"] == 0


def test_bisim_distinguish_cli(capsys):
    code, out = run(
        capsys,
        "bisim",
        "distinguish",
        fixture("m2.json"),
        "w",
        fixture("n2.json"),
        "v",
        "--letters",
        "p",
    )
    assert code == 1 and "bisimilar" in out
    code, out = run(
        capsys,
        "bisim",
        "distinguish",
        fixture("m2.json"),
        "w",
        fixture("n2.json"),
        "v",
        "--letters",
        "p,q,r",
    )
    assert code == 0 and "true at w" in out


def test_unravel_cli_writes_files(capsys, tmp_path):
    out_file = tmp_path / "unravelled.json"
    rmap_file = tmp_path / "rmap.json"
    code, out = run(
        capsys,
        "unravel",
        fixture("cycle.json"),
        "w",
        "--depth",
        2,
        "--out",
        out_file,
        "--emit-rmap",
        rmap_file,
    )
    assert code == 0
    written = json.loads(out_file.read_text())
    assert written["arity"] == 2
    rmap = json.loads(rmap_file.read_text())
    assert rmap["w"] == "w"
    assert rmap["w#u,t:2"] == "t"


def test_translate_cli(capsys):
    code, out = run(capsys, "translate", "box p", "--arity", 2)
    assert code == 0
    assert out.strip() == "! [y1,y2] : (r(x,y1,y2) => (p_p(y1) | p_p(y2)))"
    code, out = run(
        capsys,
        "translate",
        "box p",
        "--arity",
        2,
        "--format",
        "tptp",
        "--ground",
        "c",
        "--name",
        "name",
    )
    assert out.strip() == (
        "fof(name, axiom, ! [Y1,Y2] : (r(c,Y1,Y2) => (p_p(Y1) | p_p(Y2))))."
    )
    code, _ = run(capsys, "translate", "box p", "--arity", 2, "--format", "tptp")
    assert code == 2  # tptp needs a grounding constant


def test_proof_check_cli(capsys, tmp_path):
    code, out = run(capsys, "proof", "check", fixture("proof2.json"))
    assert code == 0 and "ok" in out
    broken = json.loads(fixture("proof2.json").read_text())
    broken["lines"][-1]["formula"] = "box p"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    code, out = run(capsys, "proof", "check", bad)
    assert code == 1 and "line 8" in out


def test_interp_demo_cli(capsys, tmp_path):
    code, out = run(capsys, "interp", "demo", "--n", 2)
    assert code == 0
    assert out.count("PASS") >= 4  # three conditions plus overall
    bundle_dir = tmp_path / "bundle"
    code, _ = run(
        capsys, "interp", "demo", "--n", 4, "--emit-bundle", bundle_dir
    )
    assert code == 0
    for name in ("left.json", "right.json", "relation.json", "proof.json", "formulas.json"):
        assert (bundle_dir / name).exists()
    formulas = json.loads((bundle_dir / "formulas.json").read_text())
    assert formulas["n"] == 4 and formulas["alphabet"] == ["p"]


def _odd_names(m, shift):
    # the model with worlds named with quotes, backslashes, newlines and
    # non-ASCII characters, in an order that is not the sorted one
    marks = ['"', "\\", "\n", "é", "€", "😀", "w", " "]
    name = {w: f"{marks[(i + shift) % len(marks)]}{i}" for i, w in enumerate(m.worlds)}
    return make_model(
        m.arity,
        [name[w] for w in m.worlds],
        [tuple(name[w] for w in t) for t in m.relation],
        {name[w]: m.valuation[w] for w in m.worlds},
    )


@pytest.mark.parametrize("k", [None, 0, 1])
def test_bisim_max_json_is_the_bytes_of_json_dumps(k, tmp_path, capsys):
    # a model with itself and a cross pair of models, with odd world names
    for i, seed in enumerate((281, 282)):
        m = _odd_names(random_model(2, 24, 0.002, {"p", "q"}, seed=seed), i)
        (tmp_path / f"m{i}.json").write_bytes(save(m))
    for a, b in (("m0", "m0"), ("m0", "m1"), ("m1", "m0")):
        left, right = (str(tmp_path / f"{x}.json") for x in (a, b))
        stage = [] if k is None else ["--k", str(k)]
        assert main(["bisim", "max", left, right, *stage, "--json"]) == 0
        lm, rm = (load((tmp_path / f"{x}.json").read_bytes()) for x in (a, b))
        z = greatest_bisim(lm, rm, {"p", "q"}) if k is None else k_bisim(lm, rm, {"p", "q"}, k)
        assert len(z.pairs) > 1
        payload = {"schema": 1, "command": "bisim-max", "alphabet": ["p", "q"], "k": k,
                   "pairs": [list(p) for p in z.pairs]}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_bundle_relation_is_the_bytes_of_json_dumps(n, tmp_path):
    bundle_dir = tmp_path / "bundle"
    argv = ["interp", "demo", "--n", str(n), "--sat-bound", "1", "--emit-bundle", str(bundle_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    z = interp.build_counterexample(n).z
    relation = {"pairs": [list(p) for p in z.pairs]}
    expected = (json.dumps(relation, indent=2, sort_keys=True) + "\n").encode()
    assert (bundle_dir / "relation.json").read_bytes() == expected
    if n <= 3:
        assert expected == fixture(f"z{n}.json").read_bytes()


@pytest.mark.parametrize("letters", ["p,", ",p", "p,,q", " p , ", ","])
def test_letters_with_an_empty_item_exit_2(letters, capsys):
    m2, n2 = str(fixture("m2.json")), str(fixture("n2.json"))
    for argv in (
        ["bisim", "max", m2, m2],
        ["bisim", "check", m2, n2, str(fixture("z2.json"))],
        ["bisim", "distinguish", m2, "w", n2, "v"],
    ):
        for mode in ([], ["--json"]):
            assert main(argv + ["--letters", letters, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --letters {letters!r} has an empty item\n"
    # an empty or blank value is still the empty alphabet
    for letters in ("", "  "):
        assert main(["bisim", "max", m2, m2, "--letters", letters, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["alphabet"] == []


def test_interp_demo_at_arity_25_reports_without_traceback(capsys):
    # the axiom line is compared with the rebuilt instance, whose
    # 325-disjunct disjunction nests one level per disjunct; line 3 then
    # needs a tautology check over 28 atoms, a refusal and not a "no"
    code = main(["interp", "demo", "--n", "25", "--sat-bound", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: line 3: tautology check over 28 atoms exceeds the cap of 20\n"
    )


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_interp_demo_refuses_a_sat_bound_below_one_first(bound, capsys, monkeypatch):
    # the bound is refused under its own name, before any condition is checked
    def checked(*args):
        raise AssertionError("a condition was checked")

    monkeypatch.setattr(interp.semantics, "check", checked)
    monkeypatch.setattr(interp.proof, "check_script", checked)
    assert main(["interp", "demo", "--n", "2", "--sat-bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sat_bound must be >= 1\n"


def test_interp_demo_refuses_a_refutation_over_the_atom_cap(capsys):
    # line 3 cites n + 1 boxes and two more: 21 atoms at n = 18
    assert main(["interp", "demo", "--n", "17", "--sat-bound", "1"]) == 0
    assert "\noverall: PASS\n" in capsys.readouterr().out
    assert main(["interp", "demo", "--n", "18", "--sat-bound", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 3: tautology check over 21 atoms exceeds the cap of 20\n"
    )


def test_interp_demo_refuses_an_axiom_over_the_pair_cap_within_a_gigabyte():
    # the relation of about n**2 pairs, built before the refusal, ran out
    # of memory here and ended in a traceback with exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", "interp", "demo", "--n", "3000",
         "--sat-bound", "1"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=_cap_address_space,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (
        b"error: the axiom instance at arity 3000 has 4501500 disjuncts, "
        b"over the cap of 1000\n"
    )


# runs whose output path cannot be written: {dir} is an existing
# directory, {file} an existing file
_WRITE_FAILURES = {
    "unravel-out-directory": ["unravel", fixture("m2.json"), "w", "--depth", "1", "--out", "{dir}"],
    "unravel-rmap-directory": [
        "unravel", fixture("m2.json"), "w", "--depth", "1", "--emit-rmap", "{dir}",
    ],
    "unravel-out-missing-parent": [
        "unravel", fixture("m2.json"), "w", "--depth", "1", "--out", "{dir}/missing/u.json",
    ],
    "interp-bundle-existing-file": ["interp", "demo", "--n", "2", "--emit-bundle", "{file}"],
}


@pytest.mark.parametrize("argv", _WRITE_FAILURES.values(), ids=_WRITE_FAILURES.keys())
def test_write_failures_exit_2_without_traceback(argv, tmp_path, capsys):
    (tmp_path / "file").write_bytes(b"")
    argv = [
        str(a).replace("{dir}", str(tmp_path)).replace("{file}", str(tmp_path / "file"))
        for a in argv
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


def test_unravel_cli_tuple_budget_exits_2(capsys, tmp_path):
    out = tmp_path / "unravelled.json"
    # 51 nodes and 222 tuples: over a budget of 221
    small = tmp_path / "small.json"
    small.write_bytes(save(random_model(2, 3, 0.4, {"p"}, seed=1)))
    argv = ["unravel", str(small), "w0", "--depth", "2", "--out", str(out)]
    assert main(argv + ["--budget", "221"]) == 2
    assert main(argv + ["--budget", "222"]) == 0
    # within the default node budget, but 350,933,942 tuples
    dense = tmp_path / "dense.json"
    dense.write_bytes(save(random_model(3, 7, 0.2, {"p", "q"}, seed=0)))
    out.unlink()
    assert main(["unravel", str(dense), "w0", "--depth", "2", "--out", str(out)]) == 2
    assert "tuple budget" in capsys.readouterr().err
    assert not out.exists()


def test_interp_demo_leaves_no_cyclic_garbage(capsys):
    # with per-call reference cycles (a new argument parser, the fold's
    # closures) one run left 43,039 objects to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        code = main(["interp", "demo", "--n", "8"])
    finally:
        freed = gc.collect()
        gc.enable()
    assert code == 0
    assert freed < 403
    # the parser is built once per process, not once per call
    assert build_parser() is build_parser()


def test_experiment_locality_cli(capsys):
    code, out = run(
        capsys,
        "experiment",
        "locality",
        fixture("cycle.json"),
        "w",
        "box box false",
        "--max-depth",
        3,
    )
    assert code == 0
    assert out.count("EXPERIMENT") >= 5
    assert "least depth agreeing through the sweep: 2" in out


def test_experiment_locality_rows_count_against_the_budget(capsys):
    # w1 is a dead end: its unravelings stay one node, so only the count
    # of report rows, one per depth, bounds the sweep
    argv = ["experiment", "locality", str(fixture("m2.json")), "w1", "p"]
    assert main([*argv, "--max-depth", "100000", "--json"]) == 2
    assert capsys.readouterr() == (
        "", "error: a sweep to depth 100000 has 100001 rows, over the 50000-row budget\n"
    )
    assert main([*argv, "--max-depth", "9", "--budget", "10"]) == 0
    assert capsys.readouterr().out.count("EXPERIMENT depth") == 10
    assert main([*argv, "--max-depth", "10", "--budget", "10"]) == 2
    assert capsys.readouterr().err.endswith("has 11 rows, over the 10-row budget\n")
    # within the budget the report is what it was
    assert main([*argv, "--max-depth", "5", "--json"]) == 0
    payload = {
        "schema": 1, "command": "experiment-locality", "formula": "p", "world": "w1",
        "reference": True, "sweep": [{"depth": d, "agree": True} for d in range(6)],
        "least_stable_depth": 0,
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert main([*argv, "--max-depth", "5"]) == 0
    assert capsys.readouterr().out == "".join(
        f"EXPERIMENT {line}\n"
        for line in [
            "locality sweep (no optimality asserted)",
            "formula: p; value at w1: True",
            *(f"depth {d}: bounded unraveling agrees" for d in range(6)),
            "least depth agreeing through the sweep: 0",
        ]
    )


def test_experiment_locality_at_a_huge_depth_is_refused(capsys):
    # a budget as large as the rows let a sweep of 10**9 + 1 rows be padded
    # out, which ended in a MemoryError traceback with exit 1
    argv = ["experiment", "locality", str(fixture("m2.json")), "w", "p"]
    assert main([*argv, "--max-depth", "1000000000", "--budget", "2000000000"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: a sweep to depth 1000000000 has 1000000001 rows, over the cap of 2000000\n",
    )


def test_importing_the_cli_loads_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wamlkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
        check=True,
    )
    assert proc.stdout == b"[]\n"


def test_a_model_compared_with_itself_is_parsed_once(tmp_path, capsys, monkeypatch):
    loads = []
    monkeypatch.setattr(model, "load", lambda raw: loads.append(raw) or load(raw))
    m = random_model(2, 12, 0.08, {"p", "q"}, seed=31)
    # the file lists its worlds in reverse, so the canonical save differs
    data = model_to_dict(m) | {"worlds": list(reversed(m.worlds))}
    paths = {
        "a": json.dumps(data).encode(),
        "copy": json.dumps(data).encode(),
        "canonical": save(load(json.dumps(data))),
        "other": save(random_model(2, 9, 0.1, {"p", "q"}, seed=32)),
    }
    for name, raw in paths.items():
        (tmp_path / f"{name}.json").write_bytes(raw)
    assert paths["canonical"] != paths["a"]
    a, w, v = str(tmp_path / "a.json"), m.worlds[0], m.worlds[1]
    for argv in (
        lambda right: ["bisim", "max", a, right],
        lambda right: ["bisim", "max", a, right, "--k", "1"],
        lambda right: ["bisim", "distinguish", a, w, right, v],
    ):
        outputs = set()
        for right, parsed in (("a", 1), ("copy", 1), ("canonical", 2)):
            for mode in ([], ["--json"]):
                loads.clear()
                code = main(argv(str(tmp_path / f"{right}.json")) + mode)
                outputs.add((code, tuple(mode), capsys.readouterr().out))
                # equal bytes are parsed once, other bytes on their own
                assert len(loads) == parsed
        assert len(outputs) == 2  # one output per mode
    # two different files load separately, and give the two-model answer
    loads.clear()
    assert main(["bisim", "max", a, str(tmp_path / "other.json"), "--json"]) == 0
    assert len(loads) == 2
    z = greatest_bisim(load(paths["a"]), load(paths["other"]), {"p", "q"})
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert pairs == [list(p) for p in sorted(z.pairs)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "locality", fixture("cycle.json"), "w", "p", "--max-depth", "-1"],
         "max_depth must be >= 0"),
        (["experiment", "locality", fixture("cycle.json"), "w", "p", "--budget", "0"],
         "budget must be >= 1"),
        (["unravel", fixture("cycle.json"), "w", "--depth", "0", "--budget", "0"],
         "budget must be >= 1"),
        (["sat", "p", "--arity", "1", "--max-worlds", "1", "--budget", "-1"],
         "budget must be >= 1"),
    ],
)
def test_out_of_range_depths_and_budgets_exit_2(argv, message, capsys):
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "valuation, message",
    [
        ({"w": [], "u": [], "t": [], "v": [], "ghost": ["p"]},
         "valuation mentions undeclared world 'ghost'"),
        ({"w": [], "u": [], "t": []}, "valuation missing for world 'v'"),
    ],
)
def test_partial_or_stray_valuations_exit_2(valuation, message, tmp_path, capsys):
    data = json.loads(fixture("cycle.json").read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**data, "valuation": valuation}))
    for argv in (["mc", path, "w", "p"], ["experiment", "locality", path, "w", "p"]):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: invalid model: {message}\n"


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


def test_sat_over_sixteen_thousand_types_within_a_gigabyte():
    # 4 letters and 10 modal subformulas: a search for k0 that tried every
    # successor type ran out of memory here and ended in a traceback
    query = (
        "dia p & dia q & dia r & dia s & box ~(p&q) & box ~(p&r) & box ~(q&r)"
        " & box ~(p&s) & box ~(q&s) & box ~(r&s)"
    )

    def cap_address_space():  # in the child only
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", "sat", query, "--arity", "1",
         "--max-worlds", "5", "--json"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=cap_address_space,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    payload = json.loads(proc.stdout)
    m = load(json.dumps(payload["model"]))
    assert len(m.worlds) == 4
    assert check(m, payload["world"], parse(query))


def _cap_address_space():  # in a child only
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))


def test_sat_witness_walk_past_the_budget_is_refused_within_a_gigabyte():
    # 2**21 candidate tuples: listing them before the first budget step
    # ran out of memory here and ended in a traceback with exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", "sat", "dia p & dia ~p", "--arity", "20",
         "--max-worlds", "2"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=_cap_address_space,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "budget" in lines[0]


def test_sat_witness_walk_within_the_budget_runs_in_half_a_gigabyte():
    # 4**10 candidate tuples, within the budget: a table of one dict per
    # candidate, built before the first relation was tried, ran out of
    # memory under 512 MB, and a list of the tuples and their edges under
    # 128 MB; each ended in a traceback with exit 1
    def cap_address_space():  # in the child only
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", "sat",
         "~p & ~q & dia (p & ~q & dia (q & ~p & dia (p & q)))",
         "--arity", "9", "--max-worlds", "4"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=cap_address_space,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: search budget of 2000000 steps exhausted\n"


@pytest.mark.parametrize(
    "argv",
    [["mc", "{}", "w", "p"],
     ["bisim", "check", str(fixture("m2.json")), str(fixture("n2.json")), "{}"],
     ["proof", "check", "{}"]],
    ids=["model", "relation", "proof"],
)
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
    ids=["nested-past-the-recursion-limit", "past-the-digit-limit"],
)
def test_malformed_json_file_exits_2_without_traceback(tmp_path, argv, text):
    # json.loads raised RecursionError and ValueError here, past the
    # reader's JSONDecodeError branch: a traceback with exit 1
    path = tmp_path / "file.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", *(a.format(path) for a in argv)],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
        check=False,
    )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed JSON:"), lines
    assert b"Traceback" not in proc.stderr


# the sha256 of ``scripts/cli_digest.py``'s output (seed 0); a change that
# moves the CLI's bytes on purpose updates it and says so in CHANGES.md
CLI_DIGEST_SHA256 = "41bd1a09ea12ffa9e7c15ddfb08c0d5eacf91cff60aa57925b977222695ddb71"


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the digest holds argparse help text, which differs between Python minor versions",
)
def test_cli_digest_is_unchanged():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_digest.py"), "--seed", "0"],
        capture_output=True,
        cwd=ROOT,
        timeout=600,
        check=True,
    )
    assert len(proc.stdout.splitlines()) == 2258
    assert hashlib.sha256(proc.stdout).hexdigest() == CLI_DIGEST_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "fixtures/m2.json", "w", "box(~p|~q) & dia q", "--json"],
        ["bisim", "max", "fixtures/m2.json", "fixtures/n2.json", "--letters", "p", "--json"],
        ["unravel", "fixtures/cycle.json", "w", "--depth", "2", "--json"],
        ["interp", "demo", "--n", "2", "--json"],
    ],
)
def test_json_output_byte_identical_across_processes(argv):
    first = _run_subprocess(argv, "0")
    second = _run_subprocess(argv, "1")
    assert first == second
    assert json.loads(first)["schema"] == 1


# one argv per leaf subcommand, keyed by its parser path joined by "-",
# with the payload key that holds its verdict (None: it always answers 0)
_LEAF_RUNS = {
    "mc": (["mc", fixture("m2.json"), "w", "p"], "value"),
    "sat": (["sat", "box p & box q & ~box(p&q)", "--arity", "1", "--max-worlds", "2"],
            "satisfiable"),
    "bisim-check": (["bisim", "check", fixture("m2.json"), fixture("n2.json"),
                     fixture("z2.json"), "--letters", "p"], "ok"),
    "bisim-max": (["bisim", "max", fixture("m2.json"), fixture("n2.json"), "--letters", "p"],
                  None),
    "bisim-distinguish": (["bisim", "distinguish", fixture("m2.json"), "w",
                           fixture("n2.json"), "v", "--letters", "p"], "distinguishable"),
    "unravel": (["unravel", fixture("cycle.json"), "w", "--depth", "1"], None),
    "translate": (["translate", "box p", "--arity", "2"], None),
    "proof-check": (["proof", "check", fixture("proof2.json")], "ok"),
    "interp-demo": (["interp", "demo", "--n", "2"], "overall"),
    "experiment-locality": (["experiment", "locality", fixture("cycle.json"), "w",
                             "box box false", "--max-depth", "2"], None),
}


@pytest.mark.parametrize("command", _LEAF_RUNS)
def test_json_payload_names_its_command_and_its_verdict_picks_the_exit_code(
    command, capsys
):
    argv, verdict = _LEAF_RUNS[command]
    code, out = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == command
    assert code == (0 if verdict is None or payload[verdict] else 1)


_BAD_ARGUMENTS = {
    "translate-arity-0": ["translate", "p", "--arity", "0"],
    "sat-max-worlds-0": ["sat", "p", "--arity", "1", "--max-worlds", "0"],
    "unravel-negative-depth": ["unravel", fixture("cycle.json"), "w", "--depth", "-1"],
    "interp-n-1": ["interp", "demo", "--n", "1"],
    "bisim-check-empty-pairs": [
        "bisim", "check", fixture("m2.json"), fixture("n2.json"), "{relation}",
    ],
    "tptp-bad-name": [
        "translate", "p", "--arity", "1", "--format", "tptp",
        "--ground", "c0", "--name", "Bad-Name",
    ],
    "tptp-bad-ground": [
        "translate", "p", "--arity", "1", "--format", "tptp", "--ground", "Cx",
    ],
    "bisim-max-negative-k": [
        "bisim", "max", fixture("m2.json"), fixture("n2.json"), "--k", "-1",
    ],
    "mc-3000-negations": ["mc", fixture("cycle.json"), "w", "~" * 3000 + "p"],
    "mc-1200-parentheses": [
        "mc", fixture("cycle.json"), "w", "(" * 1200 + "p" + ")" * 1200,
    ],
    "mc-1001-operand-implication": ["mc", fixture("m2.json"), "w", " -> ".join(["p"] * 1001)],
    "mc-not-utf8": ["mc", "{not-utf8}", "w", "p"],
    "unravel-not-utf8": ["unravel", "{not-utf8}", "w", "--depth", "1"],
    "proof-check-not-utf8": ["proof", "check", "{not-utf8}"],
    "bisim-check-relation-not-utf8": [
        "bisim", "check", fixture("m2.json"), fixture("n2.json"), "{not-utf8}",
    ],
    "bisim-check-relation-utf16": [
        "bisim", "check", fixture("m2.json"), fixture("n2.json"), "{utf16}",
    ],
    "proof-check-formula-5": ["proof", "check", "{formula-5}"],
    "proof-check-subst-5": ["proof", "check", "{subst-5}"],
    "proof-check-arity-true": ["proof", "check", "{arity-true}"],
    "proof-check-boolean-refs": ["proof", "check", "{boolean-refs}"],
    "proof-check-over-the-atom-cap": ["proof", "check", "{over-cap}"],
}


def _script(*lines, arity=2):
    return json.dumps({"arity": arity, "lines": [
        {"formula": formula, "just": just} for formula, just in lines
    ]}).encode()


# the files named in braces above, written to a temporary directory
_BAD_FILES = {
    "relation": b'{"pairs": []}',
    "not-utf8": b"\xff\xfe{",
    "utf16": '{"pairs": [["w", "v"]]}'.encode("utf-16"),
    "formula-5": _script((5, {"kind": "Taut"})),
    "subst-5": _script(("p", {"kind": "KnAxiom", "subst": {"p": 5}})),
    "arity-true": _script(("p | ~p", {"kind": "Taut"}), arity=True),
    "boolean-refs": _script(
        ("p -> p", {"kind": "Taut"}), ("p", {"kind": "MP", "from": [True, True]})
    ),
    "over-cap": _script(
        ("p -> p", {"kind": "Taut"}),
        (" | ".join(f"a{i}" for i in range(21)) + " | true", {"kind": "Taut"}),
    ),
}


@pytest.mark.parametrize("argv", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS.keys())
def test_argument_errors_exit_2_without_traceback(argv, tmp_path, capsys):
    paths = {}
    for name, data in _BAD_FILES.items():
        paths["{" + name + "}"] = path = tmp_path / f"{name}.json"
        path.write_bytes(data)
    argv = [str(paths.get(a, a)) for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", [["--seed", "1"], ["--budget", "3"]])
def test_unread_options_are_rejected(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", str(fixture("m2.json")), "w", "p", *option])
    assert exc.value.code == 2


_NESTED_IDS = ["negations", "parentheses", "conjunction", "box-or"]


def _nested(levels):
    half = (levels + 1) // 2
    return [
        "~" * levels + "p",
        "(" * levels + "p" + ")" * levels,
        " & ".join(["p"] * (levels + 1)),
        "box (q | " * half + "p" + ")" * half,
    ]


@pytest.mark.parametrize("text", _nested(MAX_NESTING), ids=_NESTED_IDS)
def test_formulas_at_the_nesting_limit_are_answered(text):
    assert main(["mc", str(fixture("cycle.json")), "w", text]) in (0, 1)
    assert main(["translate", text, "--arity", "1"]) == 0
    f = parse(text)
    assert parse(print_formula(f)) == f


@pytest.mark.parametrize("text", _nested(MAX_NESTING + 1), ids=_NESTED_IDS)
def test_formulas_past_the_nesting_limit_exit_2(text, capsys):
    assert main(["mc", str(fixture("cycle.json")), "w", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nesting deeper than") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract: every argv drawn from the subcommand
# grammar, with junk tokens, bad numbers and deep formulas mixed in, exits
# 0, 1 or 2 and never prints a traceback

_MODELS = [str(fixture(name)) for name in ("m2.json", "n2.json", "cycle.json", "m3.json")]
_FILES = _MODELS + [
    str(fixture(name)) for name in ("z2.json", "proof2.json")
] + ["no-such-file.json", str(ROOT / "README.md"), ""]
_WORLDS = ["w", "v", "w1", "v2", "u", "nosuch", "", "-"]
_FORMULAS = [
    "p", "box(~p|~q) & dia q", "dia p -> box q", "p <-> ~q", "true", "false",
    "~" * 3000 + "p", "(" * 1200 + "p" + ")" * 1200, " & ".join(["p"] * 200),
    "~" * 100 + "p", "p &", "(p", "p)", "P", "box", "", "p && q", "dia dia dia r",
    " -> ".join(["p"] * 1001),
]
_NUMBERS = ["-2", "-1", "0", "1", "2", "3", "x", "1.5", ""]
_JUNK = ["--json", "--nope", "-", "--", "--k", "x", "p", "--letters"]

_file = st.sampled_from(_FILES)
_model = st.sampled_from(_MODELS + _FILES[-3:])
_world = st.sampled_from(_WORLDS)
_formula = st.sampled_from(_FORMULAS)
_small = st.sampled_from(_NUMBERS)


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_letters = _opt("--letters", st.sampled_from(["p", "p,q", "", "q,,p", "P", "p q"]))
_ARGVS = st.one_of(
    st.tuples(st.just(["mc"]), _model, _world, _formula),
    st.tuples(
        st.just(["sat"]), _formula, _opt("--arity", _small),
        _opt("--max-worlds", _small), _opt("--budget", st.sampled_from(["0", "5", "-1", "x"])),
    ),
    st.tuples(st.just(["bisim", "check"]), _model, _model, _file, _letters),
    st.tuples(st.just(["bisim", "max"]), _model, _model, _letters, _opt("--k", _small)),
    st.tuples(st.just(["bisim", "distinguish"]), _model, _world, _model, _world, _letters),
    st.tuples(
        st.just(["unravel"]), _model, _world, _opt("--depth", _small),
        _opt("--budget", st.sampled_from(["0", "3", "-1"])),
    ),
    st.tuples(
        st.just(["translate"]), _formula, _opt("--arity", _small),
        _opt("--format", st.sampled_from(["text", "tptp", "x"])),
        _opt("--ground", st.sampled_from(["c0", "Cx", ""])),
        _opt("--name", st.sampled_from(["ok", "Bad-Name", ""])),
        _opt("--role", st.sampled_from(["axiom", "conjecture", "x"])),
    ),
    st.tuples(st.just(["proof", "check"]), _file),
    st.tuples(
        st.just(["interp", "demo"]), _opt("--n", st.sampled_from(["-1", "0", "1", "2", "x"])),
        _opt("--sat-bound", st.sampled_from(["-1", "0", "1", "2", "x"])),
    ),
    st.tuples(
        st.just(["experiment", "locality"]), _model, _world, _formula,
        _opt("--max-depth", _small), _opt("--budget", st.sampled_from(["0", "50", "-1"])),
    ),
).map(lambda parts: [t for part in parts for t in (part if isinstance(part, list) else [part])])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _ARGVS,
    st.lists(st.tuples(st.integers(0, 12), st.sampled_from(_JUNK)), max_size=2),
    st.booleans(),
)
def test_cli_fuzz_exits_0_1_or_2_without_traceback(argv, junk, as_json):
    for position, token in junk:
        argv.insert(min(position, len(argv)), token)
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize(
    "argv",
    [["bisim", "max", "{0}", "{0}", "--letters", "p"],
     ["bisim", "distinguish", "{0}", "a", "{0}", "b", "--letters", "p"],
     ["mc", "{0}", "a", "box p & ~dia p"],
     ["experiment", "locality", "{0}", "a", "box p | dia q"]],
    ids=["bisim-max", "bisim-distinguish", "mc", "locality"],
)
def test_a_tupleless_model_of_huge_arity_costs_its_worlds_within_a_gigabyte(
    tmp_path, argv
):
    # the positional view of a relation holds one list per slot only when
    # there are tuples: one empty list for each of 10**9 slots ran out of
    # memory and ended in a traceback
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"arity": 10**9, "worlds": ["a", "b"], "relation": [],
                                "valuation": {"a": ["p"], "b": []}}))
    proc = subprocess.run(
        [sys.executable, "-m", "wamlkit", *(a.format(path) for a in argv), "--json"],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=_cap_address_space,
        timeout=20,
        check=False,
    )
    assert proc.returncode in (0, 1), proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["schema"] == 1
