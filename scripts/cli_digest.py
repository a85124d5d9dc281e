#!/usr/bin/env python3
"""Digest of the CLI's behaviour on a fixed seeded corpus.

Runs 1,129 argvs through ``wamlkit.cli.main`` in-process, each in
text mode and with ``--json``, and prints one line per run: the run
number, the exit code, the sha256 of stdout, the sha256 of stderr, the
sha256 of every file the run wrote (``--out``, ``--emit-rmap``,
``--emit-bundle``) as ``name=digest``, and the argv.  The corpus covers
``mc``, ``sat`` at arity 1-3, ``bisim max``/``distinguish``/``check``,
``unravel`` (refusals and written files included), ``experiment
locality``, ``interp demo --n 2..8`` and ``--n 25`` (bundles written
for n = 2..5), ``translate``, ``proof check``, and writes that fail.
Then come 4 argvs with large outputs: ``bisim max`` of a 200-world model
with itself (10,000 and 15,000 pairs), an unraveling of 585 worlds written
to files, and ``sat`` with a witness.  Then 21 argvs cover the
parser's own bytes: ``--help`` of the top parser and of every leaf
subcommand, and one usage error (a missing required argument) per leaf;
``COLUMNS`` is pinned to 80 while they run, since argparse wraps its text
to the terminal's width.  Then 2 argvs hold chains of 1,001 and 5,001
operands joined by arrows, past the nesting cap.  Then 9 argvs
compare a model with itself (``bisim max`` and ``distinguish``, through
one path and through a byte-identical copy) and run ``experiment
locality`` at its row budget and one row past it.  Then 2 argvs run
``proof check`` on an arity-2 script whose ``KnAxiom`` domain is wrong and
on ``proof2.json`` with line 1's substitution tampered.  The last argv runs
``sat`` on ``dia p & dia ~p`` at arity 10, whose least witness of 1,024
tuples lies down a preorder path 1,024 relations deep.  The 6 after it
read two files past the limits of ``json.loads`` as a model (``mc``), a
relation (``bisim check``) and a proof (``proof check``): arrays nested
100,000 deep, and an integer of 5,000 digits.  The 2 after those ask for
constructions past their size caps: ``proof check`` of an arity-200
``KnAxiom`` line, and ``interp demo --n 3000``.  The 2 after those run
``sat`` at arity 10**9: ``dia p``, whose one-tuple witness would hold
10**9 + 1 cells, and ``p``, whose witness has no tuple.  The last 3 run
``bisim check``, ``bisim distinguish`` and ``unravel`` on a model file
that lists its worlds out of string order.  Its models, relations
and scripts are generated here, from the seed alone, and written to a
temporary directory under relative names, so two source trees can be
compared line by line:

    python3 scripts/cli_digest.py --src src > new.txt
    python3 scripts/cli_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

Usage: python3 scripts/cli_digest.py [--src DIR] [--seed S]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# world ids, some with the separators of unraveling node ids in them
_WORLD_NAMES = ["w", "v", "u", "t", "a,b", "c:1", "#", "%2C", "x%"]
_LETTERS = ["p", "q"]


def _formula(rng: random.Random, nesting: int, fuel: int) -> str:
    """A random formula text over p, q with modal depth <= nesting."""
    leaves = _LETTERS + ["true", "false"]
    kind = rng.randrange(8)
    if fuel <= 1 or kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return "~" + _formula(rng, nesting, fuel - 1)
    if kind in (2, 3) and nesting > 0:
        op = "box " if kind == 2 else "dia "
        return op + _formula(rng, nesting - 1, fuel - 1)
    op = rng.choice(["&", "|", "->", "<->"])
    half = (fuel - 1) // 2
    left = _formula(rng, nesting, half)
    right = _formula(rng, nesting, fuel - 1 - half)
    return f"({left} {op} {right})"


def _model(rng: random.Random, arity: int, size: int, density: float) -> dict:
    worlds = rng.sample(_WORLD_NAMES, size)
    relation = [
        [w, *vector]
        for w in worlds
        for vector in _vectors(worlds, arity)
        if rng.random() < density
    ]
    valuation = {w: sorted(x for x in _LETTERS if rng.random() < 0.5) for w in worlds}
    return {"arity": arity, "worlds": worlds, "relation": relation, "valuation": valuation}


def _vectors(worlds: list[str], arity: int) -> list[list[str]]:
    vectors: list[list[str]] = [[]]
    for _ in range(arity):
        vectors = [v + [w] for v in vectors for w in worlds]
    return vectors


def _write(directory: Path, name: str, data) -> str:
    raw = data if isinstance(data, bytes) else json.dumps(data).encode()
    (directory / name).write_bytes(raw)
    return name


def corpus(rng: random.Random, directory: Path) -> list[list[str]]:
    """The argvs (without ``--json``), with their input files written
    to ``directory``."""
    for name in ("m2.json", "n2.json", "z2.json", "m3.json", "n3.json", "z3.json",
                 "cycle.json", "proof2.json", "proof3.json"):
        shutil.copyfile(ROOT / "fixtures" / name, directory / name)
    models: dict[int, list[tuple[str, dict]]] = {1: [], 2: [], 3: []}
    for i in range(60):
        arity = 1 + i % 3
        size = rng.randint(1, 5 if arity < 3 else 4)
        data = _model(rng, arity, size, rng.uniform(0, 0.6) / arity**2)
        models[arity].append((_write(directory, f"model{i}.json", data), data))
    dead_end = {"arity": 2, "worlds": ["w", "u"], "relation": [["w", "u", "u"]],
                "valuation": {"w": [], "u": ["p"]}}
    models[2].append((_write(directory, "dead_end.json", dead_end), dead_end))
    everything = [m for ms in models.values() for m in ms]

    def world(data: dict) -> str:
        if rng.random() < 0.03:
            return "ghost"
        return rng.choice(data["worlds"])

    argvs: list[list[str]] = []
    for _ in range(300):
        name, data = rng.choice(everything)
        argvs.append(["mc", name, world(data), _formula(rng, rng.randint(0, 3), 10)])
    for i in range(240):
        arity = 1 + i % 3
        formula = _formula(rng, rng.randint(1, 2), 8 if arity < 3 else 6)
        argvs.append([
            "sat", formula, "--arity", str(arity),
            "--max-worlds", str(rng.randint(1, 3)),
            "--budget", str(rng.choice([4, 16, 64, 5_000, 200_000])),
        ])
    for i in range(80):
        arity = 1 + i % 3
        (left, _), (right, _) = rng.choice(models[arity]), rng.choice(models[arity])
        argv = ["bisim", "max", left, right]
        argv += rng.choice([[], ["--letters", "p"], ["--letters", ""], ["--k", "1"]])
        argvs.append(argv)
    for i in range(80):
        arity = 1 + i % 3
        (left, ldata), (right, rdata) = rng.choice(models[arity]), rng.choice(models[arity])
        argv = ["bisim", "distinguish", left, world(ldata), right, world(rdata)]
        argvs.append(argv + rng.choice([[], ["--letters", "q"], ["--letters", "p,q"]]))
    for i in range(70):
        arity = 1 + i % 3
        (left, ldata), (right, rdata) = rng.choice(models[arity]), rng.choice(models[arity])
        pairs = [[a, b] for a in ldata["worlds"] for b in rdata["worlds"] if rng.random() < 0.5]
        relation = _write(directory, f"relation{i}.json", {"pairs": pairs or [[world(ldata), world(rdata)]]})
        argvs.append(["bisim", "check", left, right, relation])
    # the relation files of the fixtures, and some that are no JSON text
    argvs.append(["bisim", "check", "m2.json", "n2.json", "z2.json", "--letters", "p"])
    argvs.append(["bisim", "check", "m3.json", "n3.json", "z3.json", "--letters", "p"])
    text = '{"pairs": [["w", "v"]]}'
    for name, raw in [
        ("utf16.json", text.encode("utf-16")),
        ("utf8_bom.json", b"\xef\xbb\xbf" + text.encode()),
        ("not_utf8.json", b"\xff\xfe{"),
        ("malformed.json", b'{"pairs": [["w", "v"]'),
    ]:
        argvs.append(["bisim", "check", "m2.json", "n2.json", _write(directory, name, raw)])
        argvs.append(["mc", _write(directory, "model_" + name, raw), "w", "p"])
        argvs.append(["proof", "check", _write(directory, "proof_" + name, raw)])
    for _ in range(150):
        name, data = rng.choice(everything)
        argvs.append([
            "unravel", name, world(data), "--depth", str(rng.randint(0, 5)),
            "--budget", str(rng.choice([1, 10, 100, 1_000, 50_000])),
        ])
    for depth in ("1000000", "-1"):
        argvs.append(["unravel", "dead_end.json", "w", "--depth", depth])
        argvs.append(["unravel", "cycle.json", "w", "--depth", depth])
    for _ in range(100):
        name, data = rng.choice(everything)
        argvs.append([
            "experiment", "locality", name, world(data),
            _formula(rng, rng.randint(0, 3), 8),
            "--max-depth", str(rng.randint(0, 5)),
            "--budget", str(rng.choice([1, 10, 1_000, 50_000])),
        ])
    for n in range(2, 9):
        for bound in ("3", "2"):
            argvs.append(["interp", "demo", "--n", str(n), "--sat-bound", bound])
    for _ in range(10):
        argvs.append(["translate", _formula(rng, 2, 8), "--arity", str(rng.randint(1, 3))])
    argvs += [["proof", "check", "proof2.json"], ["proof", "check", "proof3.json"]]
    # runs that write files, whose digests go into the run's line
    sources = ["m2.json", "m3.json", "cycle.json", "model4.json", "model5.json"]
    for i, name in enumerate(sources):
        start = json.loads((directory / name).read_bytes())["worlds"][0]
        argvs.append([
            "unravel", name, start, "--depth", str(1 + i % 3),
            "--out", f"unravel{i}.json", "--emit-rmap", f"rmap{i}.json",
        ])
    for n in range(2, 6):
        argvs.append(["interp", "demo", "--n", str(n), "--emit-bundle", f"bundle{n}"])
    # a formula comparison hundreds of levels deep (the arity-25 axiom
    # line), and writes that fail: a missing parent directory, and a file
    # where a directory must be
    argvs += [
        ["interp", "demo", "--n", "25", "--sat-bound", "1"],
        ["unravel", "m2.json", "w", "--depth", "1", "--out", "missing/u.json"],
        ["unravel", "m2.json", "w", "--depth", "1", "--emit-rmap", "missing/r.json"],
        ["interp", "demo", "--n", "2", "--emit-bundle", "m2.json/b"],
    ]
    return argvs


def _cover(rng: random.Random, size: int) -> dict:
    """An arity-2 model of ``size`` worlds over p, q in which every world
    copies one of four base worlds: its letters, and one tuple per base
    tuple with slots drawn from the copies of the base slots.  Copies of
    one base world are bisimilar, and no others: a cover of 200 worlds
    with itself has 10,000 bisimilar pairs.  World ids are in shuffled
    file order."""
    # base worlds 0 and 1 die apart at stage 2, so ``--k 1`` relates more
    letters = [["p"], ["p"], ["p"], ["q"]]
    base = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 3, 0), (3, 2, 1)]
    names = [f"w{i}" for i in range(size)]
    rng.shuffle(names)
    copies = [names[b::4] for b in range(4)]
    relation = [
        [w, rng.choice(copies[x]), rng.choice(copies[y])]
        for b, x, y in base
        for w in copies[b]
    ]
    return {"arity": 2, "worlds": names, "relation": relation,
            "valuation": {w: letters[i % 4] for i, w in enumerate(names)}}


def large_corpus(rng: random.Random, directory: Path) -> list[list[str]]:
    """Argvs with large outputs, drawn from their own generator so that
    the corpus before them keeps its argvs: ``bisim max`` of a 200-world
    cover with itself (10,000 pairs), an unraveling of a model with four
    tuples per world written to files, and ``sat`` with a witness."""
    cover = _write(directory, "cover200.json", _cover(rng, 200))
    worlds = [f"u{i}" for i in range(12)]
    busy = {
        "arity": 2,
        "worlds": worlds,
        "relation": [[w, *rng.sample(worlds, 2)] for w in worlds for _ in range(4)],
        "valuation": {w: sorted(rng.sample(_LETTERS, rng.randint(0, 2))) for w in worlds},
    }
    _write(directory, "busy.json", busy)
    return [
        ["bisim", "max", cover, cover],
        ["bisim", "max", cover, cover, "--k", "1"],
        ["unravel", "busy.json", "u0", "--depth", "3",
         "--out", "busy_unravel.json", "--emit-rmap", "busy_rmap.json"],
        ["sat", "dia p & dia ~p & box (p | q) & dia (q & ~p)",
         "--arity", "2", "--max-worlds", "4"],
    ]


# the leaf subcommands, each with an argv that lacks a required argument
_LEAVES = {
    ("mc",): ["m2.json", "w"],
    ("sat",): ["p", "--arity", "1"],
    ("bisim", "check"): ["m2.json", "n2.json"],
    ("bisim", "max"): ["m2.json"],
    ("bisim", "distinguish"): ["m2.json", "w", "n2.json"],
    ("unravel",): ["m2.json", "w"],
    ("translate",): ["p"],
    ("proof", "check"): [],
    ("interp", "demo"): ["--sat-bound", "1"],
    ("experiment", "locality"): ["m2.json", "w"],
}


def parser_corpus() -> list[list[str]]:
    """``--help`` of the top parser and of every leaf subcommand, and a
    usage error per leaf; each run ends in ``SystemExit``."""
    argvs = [["--help"]]
    argvs += [[*path, "--help"] for path in _LEAVES]
    argvs += [[*path, *rest] for path, rest in _LEAVES.items()]
    return argvs


def self_corpus(directory: Path) -> list[list[str]]:
    """A model compared with itself, which is parsed once and refined as
    one copy: ``bisim max`` of the 200-world cover through one path and
    through a byte-identical copy, at ``--k 1``, and of ``m3.json``;
    ``bisim distinguish`` of cover worlds 0 and 1 (they die apart at
    stage 2) and of 0 and 4 (bisimilar).  Then ``experiment locality`` at
    a dead end with one row within ``--budget`` and one row past it."""
    shutil.copyfile(directory / "cover200.json", directory / "cover200_copy.json")
    names = json.loads((directory / "cover200.json").read_bytes())["worlds"]
    return [
        ["bisim", "max", "cover200.json", "cover200.json", "--letters", "p,q"],
        ["bisim", "max", "cover200.json", "cover200_copy.json", "--letters", "p,q"],
        ["bisim", "max", "cover200.json", "cover200_copy.json", "--k", "1"],
        ["bisim", "max", "m3.json", "m3.json"],
        ["bisim", "distinguish", "cover200.json", names[0], "cover200.json", names[1]],
        ["bisim", "distinguish", "cover200.json", names[0], "cover200_copy.json", names[1]],
        ["bisim", "distinguish", "cover200.json", names[0], "cover200.json", names[4]],
        ["experiment", "locality", "dead_end.json", "u", "p", "--max-depth", "9",
         "--budget", "10"],
        ["experiment", "locality", "dead_end.json", "u", "p", "--max-depth", "10",
         "--budget", "10"],
    ]


def chain_corpus() -> list[list[str]]:
    """Formulas past the nesting cap in one chain of arrows: ``mc`` on
    1,001 operands joined by ``->``, and ``translate`` on 5,001 joined by
    ``<->``."""
    return [
        ["mc", "m2.json", "w", " -> ".join(["p"] * 1001)],
        ["translate", " <-> ".join(["p"] * 5001), "--arity", "1"],
    ]


def proof_corpus(directory: Path) -> list[list[str]]:
    """``proof check`` on ``KnAxiom`` lines that fail: an arity-2 script
    whose substitution has three names, one of them no slot name, and
    ``proof2.json`` with line 1's substitution tampered (its domain is
    right, its instance is not the line's formula)."""
    wrong_domain = {"arity": 2, "lines": [{
        "formula": "box p & box q & box r -> box (p & q | p & r | q & r)",
        "just": {"kind": "KnAxiom", "subst": {"p0": "p", "p1": "q", "p02": "r"}},
    }]}
    tampered = json.loads((directory / "proof2.json").read_bytes())
    tampered["lines"][0]["just"]["subst"]["p0"] = "~p | q"
    return [
        ["proof", "check", _write(directory, "proof_wrong_domain.json", wrong_domain)],
        ["proof", "check", _write(directory, "proof2_tampered.json", tampered)],
    ]


def json_limit_corpus(directory: Path) -> list[list[str]]:
    """A file nested past ``json.loads``'s recursion limit and one with an
    integer past its digit limit, each read as a model, a relation and a
    proof."""
    argvs = []
    for name, text in [("deep.json", "[" * 100_000 + "]" * 100_000),
                       ("digits.json", "1" * 5_000)]:
        _write(directory, name, text.encode())
        argvs += [["mc", name, "w", "p"],
                  ["bisim", "check", "m2.json", "n2.json", name],
                  ["proof", "check", name]]
    return argvs


def cap_corpus(directory: Path) -> list[list[str]]:
    """Axiom instances past the cap on their disjuncts, refused before
    they are built: a ``proof check`` script of one arity-200 ``KnAxiom``
    line (20,100 disjuncts) and ``interp demo --n 3000``."""
    script = {"arity": 200, "lines": [{
        "formula": "p",
        "just": {"kind": "KnAxiom", "subst": {f"p{i}": "p" for i in range(201)}},
    }]}
    return [
        ["proof", "check", _write(directory, "proof_arity200.json", script)],
        ["interp", "demo", "--n", "3000", "--sat-bound", "1"],
    ]


def order_corpus(directory: Path) -> list[list[str]]:
    """Readers of a world's sorted successor vectors on a model whose file
    lists ``w2`` before ``w10`` before ``w1``: a relation failing forth on
    three tuples, a certificate that answers the first of them, and an
    unraveling whose world order follows them."""
    listed = {
        "arity": 2,
        "worlds": ["w2", "v", "w10", "w1"],
        "relation": [["w2", "w1", "w1"], ["w2", "w10", "w10"], ["w2", "w1", "w10"],
                     ["w1", "w2", "w2"], ["w10", "w1", "w2"], ["v", "v", "v"]],
        "valuation": {"w2": [], "v": [], "w10": ["q"], "w1": ["p"]},
    }
    name = _write(directory, "listed.json", listed)
    relation = _write(directory, "listed_relation.json", {"pairs": [["w2", "v"]]})
    return [
        ["bisim", "check", name, name, relation],
        ["bisim", "distinguish", name, "w2", name, "v"],
        ["unravel", name, "w2", "--depth", "2"],
    ]


# the options whose value names a file (or, for a bundle, a directory)
# that a run writes
_OUTPUT_OPTIONS = ("--out", "--emit-rmap", "--emit-bundle")


def written(argv: list[str]) -> list[Path]:
    """The paths a run of ``argv`` writes to."""
    return [Path(value) for option, value in zip(argv, argv[1:]) if option in _OUTPUT_OPTIONS]


def file_digests(paths: list[Path]) -> list[str]:
    """``name=sha256`` of every file at or under the paths, in order."""
    files = []
    for path in paths:
        if path.is_dir():
            files += sorted(p for p in path.rglob("*") if p.is_file())
        elif path.exists():
            files.append(path)
    return [f"{p}={hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files]


def run(main, argv: list[str]) -> tuple[str, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as e:
            code = str(e.code)
        except Exception as e:  # a traceback: its text goes into stderr's digest
            code = f"raised-{type(e).__name__}"
            traceback.print_exc()
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose wamlkit is run (default: this repo's)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from wamlkit.cli import main as cli_main

    if not Path(sys.modules["wamlkit"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"wamlkit was not imported from {src}")
    os.environ["COLUMNS"] = "80"  # the width argparse wraps help and usage to
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argvs = corpus(random.Random(args.seed), Path(tmp))
            argvs += large_corpus(random.Random(f"{args.seed}-large"), Path(tmp))
            argvs += parser_corpus()
            argvs += chain_corpus()
            argvs += self_corpus(Path(tmp))
            argvs += proof_corpus(Path(tmp))
            argvs.append(["sat", "dia p & dia ~p", "--arity", "10", "--max-worlds", "2"])
            argvs += json_limit_corpus(Path(tmp))
            argvs += cap_corpus(Path(tmp))
            for formula in ("dia p", "p"):
                argvs.append(["sat", formula, "--arity", "1000000000", "--max-worlds", "2"])
            argvs += order_corpus(Path(tmp))
            runs = [argv + mode for argv in argvs for mode in ([], ["--json"])]
            for number, argv in enumerate(runs):
                outputs = written(argv)
                for path in outputs:  # what an earlier run left there
                    if path.is_dir():
                        shutil.rmtree(path)
                    elif path.is_file():
                        path.unlink()
                code, out, err = run(cli_main, argv)
                digests = [hashlib.sha256(x).hexdigest() for x in (out, err)]
                print(number, code, *digests, *file_digests(outputs), json.dumps(argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
