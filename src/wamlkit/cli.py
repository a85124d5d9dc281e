"""Command-line entry point.

Exit codes: 0 for a positive verdict (true / ok / pass), 1 for a negative
one (false / fail), 2 for usage or input errors.  ``--json`` switches any
subcommand to structured output (schema version 1); identical inputs
produce byte-identical JSON.
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


def _emit(args, payload: dict, lines: Callable[[], list[str]]) -> None:
    """Print the payload under ``--json``, else the text lines, which are
    built only then."""
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        sys.stdout.write(model.dump_json(payload).decode())
    else:
        for line in lines():
            print(line)


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


def _letters_arg(value: str | None, models: list[model.NModel]) -> frozenset[str]:
    if value is None:
        out: set[str] = set()
        for m in models:
            for ls in m.valuation.values():
                out |= ls
        return frozenset(out)
    value = value.strip()
    if not value:
        return frozenset()
    return frozenset(part.strip() for part in value.split(","))


def _relation_pairs(data: object) -> frozenset[tuple[str, str]]:
    if not isinstance(data, dict) or "pairs" not in data:
        raise WamlError("relation JSON must be an object with a 'pairs' list")
    pairs = data["pairs"]
    if not isinstance(pairs, list):
        raise WamlError("'pairs' must be a list of [left, right] pairs")
    out = set()
    for i, p in enumerate(pairs):
        if (
            not isinstance(p, list)
            or len(p) != 2
            or not all(isinstance(x, str) for x in p)
        ):
            raise WamlError(f"pairs[{i}] must be a pair of world-ids")
        out.add((p[0], p[1]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the exit code)

def _cmd_mc(args) -> int:
    m = model.load(_read(args.model))
    f = syntax.parse(args.formula)
    value = semantics.check(m, args.world, f)
    text = syntax.print_formula(f)
    _emit(
        args,
        {"command": "mc", "world": args.world, "formula": text, "value": value},
        lambda: [f"{'true' if value else 'false'} at {args.world}: {text}"],
    )
    return 0 if value else 1


def _cmd_sat(args) -> int:
    f = syntax.parse(args.formula)
    witness = semantics.bounded_sat(f, args.arity, args.max_worlds, budget=args.budget)
    if witness is None:
        _emit(
            args,
            {
                "command": "sat",
                "formula": syntax.print_formula(f),
                "satisfiable": False,
                "max_worlds": args.max_worlds,
            },
            lambda: [f"unsat up to {args.max_worlds} worlds"],
        )
        return 1
    _emit(
        args,
        {
            "command": "sat",
            "formula": syntax.print_formula(f),
            "satisfiable": True,
            "model": model.model_to_dict(witness.model),
            "world": witness.point,
        },
        lambda: [
            f"satisfiable at world {witness.point} of:",
            model.save(witness.model).decode().rstrip(),
        ],
    )
    return 0


def _cmd_bisim_check(args) -> int:
    left = model.load(_read(args.left))
    right = model.load(_read(args.right))
    pairs = _relation_pairs(model.read_json(_read(args.relation), "relation"))
    alphabet = _letters_arg(args.letters, [left, right])
    z = bisim.PairRelation(left, right, pairs, alphabet)
    violation = bisim.check_bisim(z)
    payload = {
        "command": "bisim-check",
        "alphabet": sorted(alphabet),
        "ok": violation is None,
    }
    if violation is None:
        _emit(args, payload, lambda: ["ok: relation is a bisimulation"])
        return 0
    payload["violation"] = {
        "pair": list(violation.pair),
        "condition": violation.condition,
        "tuple": list(violation.witness_tuple) if violation.witness_tuple else None,
    }
    _emit(args, payload, lambda: ["not a bisimulation: " + violation.describe()])
    return 1


def _cmd_bisim_max(args) -> int:
    left = model.load(_read(args.left))
    right = model.load(_read(args.right))
    alphabet = _letters_arg(args.letters, [left, right])
    if args.k is None:
        z = bisim.greatest_bisim(left, right, alphabet)
    else:
        z = bisim.k_bisim(left, right, alphabet, args.k)
    pairs = z.sorted_pairs
    _emit(
        args,
        {
            "command": "bisim-max",
            "alphabet": sorted(alphabet),
            "k": args.k,
            "pairs": pairs,
        },
        lambda: [f"{len(pairs)} pair(s)"] + [f"  {a} ~ {b}" for a, b in pairs],
    )
    return 0


def _cmd_bisim_distinguish(args) -> int:
    left = model.load(_read(args.left))
    right = model.load(_read(args.right))
    alphabet = _letters_arg(args.letters, [left, right])
    f = bisim.distinguishing_formula(left, args.w, right, args.v, alphabet)
    if f is None:
        _emit(
            args,
            {
                "command": "bisim-distinguish",
                "alphabet": sorted(alphabet),
                "distinguishable": False,
            },
            lambda: [f"{args.w} and {args.v} are bisimilar over the alphabet"],
        )
        return 1
    text = syntax.print_formula(f)
    _emit(
        args,
        {
            "command": "bisim-distinguish",
            "alphabet": sorted(alphabet),
            "distinguishable": True,
            "formula": text,
        },
        lambda: [f"true at {args.w}, false at {args.v}: {text}"],
    )
    return 0


def _cmd_unravel(args) -> int:
    m = model.load(_read(args.model))
    result = unravel.unravel(m, args.world, args.depth, max_nodes=args.budget)
    saved = model.save(result.model) if args.out or not args.json else None
    rmap = {k: result.projection[k] for k in sorted(result.projection)}
    if args.out:
        _write(args.out, saved)
    if args.emit_rmap:
        _write(args.emit_rmap, model.dump_json(rmap))
    _emit(
        args,
        {
            "command": "unravel",
            "depth": args.depth,
            "root": result.root,
            "model": model.model_to_dict(result.model),
            "projection": rmap,
        },
        lambda: [f"root: {result.root}", saved.decode().rstrip()],
    )
    return 0


def _cmd_translate(args) -> int:
    f = syntax.parse(args.formula)
    g = translate.st(f, args.arity, free_var="x")
    if args.format == "tptp":
        if args.ground is None:
            raise WamlError("--format tptp requires --ground <constant>")
        text = translate.tptp_export(g, args.role, args.name, {"x": args.ground})
    else:
        text = translate.render_text(g)
    _emit(
        args,
        {
            "command": "translate",
            "arity": args.arity,
            "formula": syntax.print_formula(f),
            "format": args.format,
            "output": text,
        },
        lambda: [text],
    )
    return 0


def _cmd_proof_check(args) -> int:
    script = proof.load_script(_read(args.script))
    report = proof.check_script(script)
    if report is None:
        theorem = syntax.print_formula(script.theorem())
        _emit(
            args,
            {
                "command": "proof-check",
                "ok": True,
                "arity": script.arity,
                "theorem": theorem,
            },
            lambda: [f"ok: derives {theorem}"],
        )
        return 0
    _emit(
        args,
        {
            "command": "proof-check",
            "ok": False,
            "line": report.line,
            "reason": report.reason,
        },
        lambda: [f"invalid at line {report.line}: {report.reason}"],
    )
    return 1


def _cmd_interp_demo(args) -> int:
    bundle = interp.build_counterexample(args.n)
    report = interp.verify_counterexample(bundle, args.sat_bound)
    if args.emit_bundle:
        _write(args.emit_bundle, _bundle_files(bundle))
    conditions = [
        ("models satisfy their formulas", report.models_satisfy),
        ("joint refutability derivation", report.refutation_valid),
        ("common-vocabulary indistinguishability", report.roots_indistinguishable),
    ]
    _emit(
        args,
        {
            "command": "interp-demo",
            "n": args.n,
            "phi": syntax.print_formula(bundle.phi),
            "psi": syntax.print_formula(bundle.psi),
            "conditions": {
                "models_satisfy": report.models_satisfy.passed,
                "refutation_valid": report.refutation_valid.passed,
                "roots_indistinguishable": report.roots_indistinguishable.passed,
            },
            "details": {
                "models_satisfy": report.models_satisfy.detail,
                "refutation_valid": report.refutation_valid.detail,
                "roots_indistinguishable": report.roots_indistinguishable.detail,
                "corroboration": report.joint_sat_corroboration.detail,
            },
            "overall": report.passed,
            "note": report.note,
        },
        lambda: [
            f"interpolation counterexample at arity {args.n}",
            *(
                f"condition {i} ({label}): {'PASS' if cond.passed else 'FAIL'}"
                f" -- {cond.detail}"
                for i, (label, cond) in enumerate(conditions, start=1)
            ),
            f"corroboration: {report.joint_sat_corroboration.detail}",
            f"overall: {'PASS' if report.passed else 'FAIL'}",
            f"note: {report.note}",
        ],
    )
    return 0 if report.passed else 1


def _bundle_files(bundle: interp.CounterexampleBundle) -> dict[str, bytes]:
    return {
        "left.json": model.save(bundle.left.model),
        "right.json": model.save(bundle.right.model),
        "relation.json": model.dump_json({"pairs": bundle.z.sorted_pairs}),
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


def _cmd_experiment_locality(args) -> int:
    m = model.load(_read(args.model))
    f = syntax.parse(args.formula)
    sweep = unravel.locality_sweep(
        m, args.world, f, args.max_depth, max_nodes=args.budget
    )
    least = sweep.least_stable_depth
    text = syntax.print_formula(f)
    _emit(
        args,
        {
            "command": "experiment-locality",
            "formula": text,
            "world": args.world,
            "reference": sweep.reference,
            "sweep": [
                {"depth": depth, "agree": agree}
                for depth, agree in enumerate(sweep.agree)
            ],
            "least_stable_depth": least,
        },
        lambda: [
            "EXPERIMENT locality sweep (no optimality asserted)",
            f"EXPERIMENT formula: {text}; value at {args.world}: {sweep.reference}",
            *(
                f"EXPERIMENT depth {depth}: bounded unraveling "
                f"{'agrees' if agree else 'disagrees'}"
                for depth, agree in enumerate(sweep.agree)
            ),
            "EXPERIMENT least depth agreeing through the sweep: "
            + ("none" if least is None else str(least)),
        ],
    )
    return 0


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
    _add_budget(loc, unravel.DEFAULT_NODE_BUDGET, "node and tuple")
    _add_common(loc)
    loc.set_defaults(handler=_cmd_experiment_locality)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except WamlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
