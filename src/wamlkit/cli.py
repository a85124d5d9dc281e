"""Command-line entry point.

Exit codes: 0 for a positive verdict (true / ok / pass), 1 for a negative
one (false / fail), 2 for usage or input errors and for refusals (a
budget or a cap).  ``--json`` switches any subcommand to structured output
(schema version 1); identical inputs produce byte-identical JSON.

Every handler returns its verdict, its payload and a function building
its text lines; ``main`` alone writes the result and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable

from . import bisim, interp, model, proof, semantics, syntax, translate, unravel
from .errors import WamlError

SCHEMA = 1

# a handler's verdict, its ``--json`` payload (without ``schema`` and
# ``command``) and its text lines, built only without ``--json``
_Result = tuple[bool, dict, Callable[[], list[str]]]


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise WamlError(f"cannot read {path}: {e}") from e


def _write(path: str | Path, data: bytes | dict[str, bytes]) -> None:
    """Write a file, or a directory of the files a dict names."""
    try:
        if isinstance(data, dict):
            Path(path).mkdir(parents=True, exist_ok=True)
            for name, raw in data.items():
                _write(Path(path) / name, raw)
        else:
            Path(path).write_bytes(data)
    except OSError as e:
        raise WamlError(f"cannot write {path}: {e}") from e


def _two_models(args) -> tuple[model.NModel, model.NModel, frozenset[str]]:
    """The left and right models of a bisim subcommand and its alphabet:
    ``--letters`` split at commas, or every letter of the two models.
    Two files of equal bytes are parsed once, and both sides are the same
    model object, which the refinement compares as one copy."""
    raw = _read(args.left)
    left = model.load(raw)
    other = _read(args.right)
    right = left if other == raw else model.load(other)
    if args.letters is None:
        letters = frozenset().union(*left.valuation.values(), *right.valuation.values())
    elif value := args.letters.strip():
        if "" in (parts := [part.strip() for part in value.split(",")]):
            raise WamlError(f"--letters {args.letters!r} has an empty item")
        letters = frozenset(parts)
    else:
        letters = frozenset()
    return left, right, letters


def _relation_pairs(data: object) -> list[list[str]]:
    if not isinstance(data, dict) or "pairs" not in data:
        raise WamlError("relation JSON must be an object with a 'pairs' list")
    pairs = data["pairs"]
    if not isinstance(pairs, list):
        raise WamlError("'pairs' must be a list of [left, right] pairs")
    for i, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2 or not all(isinstance(x, str) for x in p):
            raise WamlError(f"pairs[{i}] must be a pair of world-ids")
    return pairs


def _pass(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a _Result)

def _cmd_mc(args) -> _Result:
    m = model.load(_read(args.model))
    f = syntax.parse(args.formula)
    value = semantics.check(m, args.world, f)
    text = syntax.print_formula(f)
    payload = {"world": args.world, "formula": text, "value": value}
    return value, payload, lambda: [
        f"{'true' if value else 'false'} at {args.world}: {text}"
    ]


def _cmd_sat(args) -> _Result:
    f = syntax.parse(args.formula)
    witness = semantics.bounded_sat(f, args.arity, args.max_worlds, budget=args.budget)
    payload = {"formula": syntax.print_formula(f), "satisfiable": witness is not None}
    if witness is None:
        payload["max_worlds"] = args.max_worlds
        return False, payload, lambda: [f"unsat up to {args.max_worlds} worlds"]
    payload |= {"model": model.model_to_dict(witness.model), "world": witness.point}
    return True, payload, lambda: [
        f"satisfiable at world {witness.point} of:",
        model.save(witness.model).decode().rstrip(),
    ]


def _cmd_bisim_check(args) -> _Result:
    left, right, alphabet = _two_models(args)
    pairs = _relation_pairs(model.read_json(_read(args.relation), "relation"))
    violation = bisim.check_bisim(bisim.PairRelation.from_pairs(left, right, pairs, alphabet))
    payload = {"alphabet": sorted(alphabet), "ok": violation is None}
    if violation is None:
        return True, payload, lambda: ["ok: relation is a bisimulation"]
    payload["violation"] = {
        "pair": list(violation.pair),
        "condition": violation.condition,
        "tuple": list(violation.witness_tuple) if violation.witness_tuple else None,
    }
    return False, payload, lambda: ["not a bisimulation: " + violation.describe()]


def _cmd_bisim_max(args) -> _Result:
    left, right, alphabet = _two_models(args)
    if args.k is None:
        z = bisim.greatest_bisim(left, right, alphabet)
    else:
        z = bisim.k_bisim(left, right, alphabet, args.k)
    payload = {"alphabet": sorted(alphabet), "k": args.k, "pairs": z.image}
    return True, payload, lambda: [
        f"{len(z.pairs)} pair(s)", *(f"  {a} ~ {b}" for a, b in z.pairs)
    ]


def _cmd_bisim_distinguish(args) -> _Result:
    left, right, alphabet = _two_models(args)
    f = bisim.distinguishing_formula(left, args.w, right, args.v, alphabet)
    payload = {"alphabet": sorted(alphabet), "distinguishable": f is not None}
    if f is None:
        return False, payload, lambda: [
            f"{args.w} and {args.v} are bisimilar over the alphabet"
        ]
    payload["formula"] = text = syntax.print_formula(f)
    return True, payload, lambda: [f"true at {args.w}, false at {args.v}: {text}"]


def _cmd_unravel(args) -> _Result:
    m = model.load(_read(args.model))
    result = unravel.unravel(m, args.world, args.depth, max_nodes=args.budget)
    saved = model.save(result.model) if args.out or not args.json else None
    if args.out:
        _write(args.out, saved)
    if args.emit_rmap:
        _write(args.emit_rmap, model.dump_json(result.projection))
    payload = {
        "depth": args.depth,
        "root": result.root,
        "model": model.model_to_dict(result.model),
        "projection": result.projection,
    }
    return True, payload, lambda: [f"root: {result.root}", saved.decode().rstrip()]


def _cmd_translate(args) -> _Result:
    f = syntax.parse(args.formula)
    g = translate.st(f, args.arity, free_var="x")
    if args.format == "tptp":
        if args.ground is None:
            raise WamlError("--format tptp requires --ground <constant>")
        text = translate.tptp_export(g, args.role, args.name, {"x": args.ground})
    else:
        text = translate.render_text(g)
    payload = {
        "arity": args.arity,
        "formula": syntax.print_formula(f),
        "format": args.format,
        "output": text,
    }
    return True, payload, lambda: [text]


def _cmd_proof_check(args) -> _Result:
    script = proof.load_script(_read(args.script))
    report = proof.check_script(script)
    payload = {"ok": report is None}
    if report is not None:
        payload |= {"line": report.line, "reason": report.reason}
        return False, payload, lambda: [f"invalid at line {report.line}: {report.reason}"]
    theorem = syntax.print_formula(script.theorem())
    payload |= {"arity": script.arity, "theorem": theorem}
    return True, payload, lambda: [f"ok: derives {theorem}"]


# the conditions of a counterexample: their payload key and text label
_CONDITIONS = (
    ("models_satisfy", "models satisfy their formulas"),
    ("refutation_valid", "joint refutability derivation"),
    ("roots_indistinguishable", "common-vocabulary indistinguishability"),
)


def _cmd_interp_demo(args) -> _Result:
    bundle = interp.build_counterexample(args.n)
    report = interp.verify_counterexample(bundle, args.sat_bound)
    if args.emit_bundle:
        _write(args.emit_bundle, _bundle_files(bundle))
    conditions = [(key, label, getattr(report, key)) for key, label in _CONDITIONS]
    corroboration = report.joint_sat_corroboration.detail
    payload = {
        "n": args.n,
        "phi": syntax.print_formula(bundle.phi),
        "psi": syntax.print_formula(bundle.psi),
        "conditions": {key: cond.passed for key, _, cond in conditions},
        "details": {key: cond.detail for key, _, cond in conditions}
        | {"corroboration": corroboration},
        "overall": report.passed,
        "note": report.note,
    }
    return report.passed, payload, lambda: [
        f"interpolation counterexample at arity {args.n}",
        *(
            f"condition {i} ({label}): {_pass(cond.passed)} -- {cond.detail}"
            for i, (_, label, cond) in enumerate(conditions, start=1)
        ),
        f"corroboration: {corroboration}",
        f"overall: {_pass(report.passed)}",
        f"note: {report.note}",
    ]


def _bundle_files(bundle: interp.CounterexampleBundle) -> dict[str, bytes]:
    return {
        "left.json": model.save(bundle.left.model),
        "right.json": model.save(bundle.right.model),
        "relation.json": model.dump_json({"pairs": bundle.z.image}),
        "proof.json": proof.save_script(bundle.refutation),
        "formulas.json": model.dump_json(
            {
                "n": bundle.n,
                "phi": syntax.print_formula(bundle.phi),
                "psi": syntax.print_formula(bundle.psi),
                "left_point": bundle.left.point,
                "right_point": bundle.right.point,
                "alphabet": sorted(bundle.z.alphabet),
            }
        ),
    }


def _cmd_experiment_locality(args) -> _Result:
    m = model.load(_read(args.model))
    f = syntax.parse(args.formula)
    sweep = unravel.locality_sweep(
        m, args.world, f, args.max_depth, max_nodes=args.budget
    )
    least = sweep.least_stable_depth
    text = syntax.print_formula(f)
    payload = {
        "formula": text,
        "world": args.world,
        "reference": sweep.reference,
        "sweep": [
            {"depth": depth, "agree": agree}
            for depth, agree in enumerate(sweep.agree)
        ],
        "least_stable_depth": least,
    }
    return True, payload, lambda: [
        "EXPERIMENT locality sweep (no optimality asserted)",
        f"EXPERIMENT formula: {text}; value at {args.world}: {sweep.reference}",
        *(
            f"EXPERIMENT depth {depth}: bounded unraveling "
            f"{'agrees' if agree else 'disagrees'}"
            for depth, agree in enumerate(sweep.agree)
        ),
        "EXPERIMENT least depth agreeing through the sweep: "
        + ("none" if least is None else str(least)),
    ]


# ---------------------------------------------------------------------------
# Parser wiring

def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="structured output")


def _add_budget(sub, default: int, unit: str) -> None:
    sub.add_argument(
        "--budget", type=int, default=default, help=f"{unit} budget (default {default})"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call (argparse builds leave reference cycles behind)."""
    parser = argparse.ArgumentParser(
        prog="wamlkit",
        description="workbench for weakly aggregative modal logic over n-ary models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    mc = subs.add_parser("mc", help="model-check a formula at a world")
    mc.add_argument("model")
    mc.add_argument("world")
    mc.add_argument("formula")
    _add_common(mc)
    mc.set_defaults(handler=_cmd_mc)

    sat = subs.add_parser("sat", help="bounded satisfiability search")
    sat.add_argument("formula")
    sat.add_argument("--arity", type=int, required=True)
    sat.add_argument("--max-worlds", type=int, required=True)
    _add_budget(sat, semantics.DEFAULT_SEARCH_BUDGET, "search step")
    _add_common(sat)
    sat.set_defaults(handler=_cmd_sat)

    bs = subs.add_parser("bisim", help="bisimulation tools")
    bsubs = bs.add_subparsers(dest="subcommand", required=True)

    bc = bsubs.add_parser("check", help="verify a candidate bisimulation")
    bc.add_argument("left")
    bc.add_argument("right")
    bc.add_argument("relation")
    bc.add_argument("--letters", default=None)
    _add_common(bc)
    bc.set_defaults(handler=_cmd_bisim_check)

    bm = bsubs.add_parser("max", help="greatest (or stage-k) bisimulation")
    bm.add_argument("left")
    bm.add_argument("right")
    bm.add_argument("--letters", default=None)
    bm.add_argument("--k", type=int, default=None)
    _add_common(bm)
    bm.set_defaults(handler=_cmd_bisim_max)

    bd = bsubs.add_parser("distinguish", help="separating formula for two points")
    bd.add_argument("left")
    bd.add_argument("w")
    bd.add_argument("right")
    bd.add_argument("v")
    bd.add_argument("--letters", default=None)
    _add_common(bd)
    bd.set_defaults(handler=_cmd_bisim_distinguish)

    un = subs.add_parser("unravel", help="bounded tree unraveling")
    un.add_argument("model")
    un.add_argument("world")
    un.add_argument("--depth", type=int, required=True)
    un.add_argument("--out", default=None)
    un.add_argument("--emit-rmap", default=None)
    _add_budget(un, unravel.DEFAULT_NODE_BUDGET, "node and tuple")
    _add_common(un)
    un.set_defaults(handler=_cmd_unravel)

    tr = subs.add_parser("translate", help="standard translation to first-order")
    tr.add_argument("formula")
    tr.add_argument("--arity", type=int, required=True)
    tr.add_argument("--format", choices=("text", "tptp"), default="text")
    tr.add_argument("--ground", default=None)
    tr.add_argument("--name", default="translation")
    tr.add_argument("--role", choices=("axiom", "conjecture"), default="axiom")
    _add_common(tr)
    tr.set_defaults(handler=_cmd_translate)

    pf = subs.add_parser("proof", help="proof tools")
    psubs = pf.add_subparsers(dest="subcommand", required=True)
    pc = psubs.add_parser("check", help="validate a derivation script")
    pc.add_argument("script")
    _add_common(pc)
    pc.set_defaults(handler=_cmd_proof_check)

    ip = subs.add_parser("interp", help="interpolation counterexamples")
    isubs = ip.add_subparsers(dest="subcommand", required=True)
    demo = isubs.add_parser("demo", help="build and verify a counterexample")
    demo.add_argument("--n", type=int, required=True)
    demo.add_argument("--sat-bound", type=int, default=3)
    demo.add_argument("--emit-bundle", default=None)
    _add_common(demo)
    demo.set_defaults(handler=_cmd_interp_demo)

    ex = subs.add_parser("experiment", help="exploratory sweeps")
    esubs = ex.add_subparsers(dest="subcommand", required=True)
    loc = esubs.add_parser("locality", help="depth sweep of bounded unraveling")
    loc.add_argument("model")
    loc.add_argument("world")
    loc.add_argument("formula")
    loc.add_argument("--max-depth", type=int, default=4)
    _add_budget(loc, unravel.DEFAULT_NODE_BUDGET, "node, tuple and row")
    _add_common(loc)
    loc.set_defaults(handler=_cmd_experiment_locality)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one argv: write the handler's payload (``--json``) or its text
    lines to stdout, and return 0 or 1 from its verdict; a WamlError
    writes one ``error:`` line to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        verdict, payload, lines = args.handler(args)
    except WamlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        path = [args.command, getattr(args, "subcommand", None)]
        payload = {"schema": SCHEMA, "command": "-".join(filter(None, path)), **payload}
        text = model.json_text(payload)
    else:
        text = "".join(f"{line}\n" for line in lines())
    sys.stdout.write(text)
    return 0 if verdict else 1


if __name__ == "__main__":
    raise SystemExit(main())
