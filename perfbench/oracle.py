"""Independent checks of every verdict, run outside the timed region.

Truth of a formula is decided by the standard translation and the
Tarskian first-order evaluator (``wamlkit.translate``), never by the model
checker under test.  Formulas printed by the program are read back with
the small parser below, not with ``wamlkit.syntax.parse``.  Bisimulation
answers are compared with the known answers the cover construction fixes
(see ``workloads.py``).
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

from wamlkit import syntax, translate

from workloads import Query, modal_depth


def to_waml(f) -> syntax.Formula:
    op = f[0]
    if op == "L":
        return syntax.Letter(f[1])
    if op == "T":
        return syntax.Top()
    if op == "F":
        return syntax.Bottom()
    if op == "not":
        return syntax.Not(to_waml(f[1]))
    if op == "box":
        return syntax.Box(to_waml(f[1]))
    if op == "dia":
        return syntax.Diamond(to_waml(f[1]))
    cls = {"and": syntax.And, "or": syntax.Or, "imp": syntax.Implies}[op]
    return cls(to_waml(f[1]), to_waml(f[2]))


_TOKEN = re.compile(r"\s*([~&|()]|[a-z][a-z0-9_]*)")


def read_formula(text: str):
    """Parse printed formula text (``~ & | box dia true false``, the
    connectives of separating formulas) into a tree; ``&`` binds tighter
    than ``|``."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read formula {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def binary(level):
        ops = ("|", "&")
        f = binary(level + 1) if level == 0 else unary()
        while tokens[i] == ops[level]:
            take()
            g = binary(level + 1) if level == 0 else unary()
            f = ("or" if level == 0 else "and", f, g)
        return f

    def unary():
        tok = take()
        if tok == "~":
            return ("not", unary())
        if tok in ("box", "dia"):
            return (tok, unary())
        if tok == "(":
            f = binary(0)
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return f
        if tok == "true":
            return ("T",)
        if tok == "false":
            return ("F",)
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return ("L", tok)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    f = binary(0)
    if tokens[i] != "":
        raise ValueError(f"trailing input in {text!r}")
    return f


def fol_holds(m, world: str, f, arity: int) -> bool:
    """Truth of f at world under the first-order reading.  Quantifiers of
    the translation are guarded by the relation, so only worlds within
    modal-depth many steps of ``world`` can matter; the structure is cut
    down to them first, which keeps the evaluation small."""
    ball = {world}
    frontier = {world}
    for _ in range(modal_depth(f)):
        frontier = {v for t in m.relation if t[0] in frontier for v in t[1:]} - ball
        ball |= frontier
    sub = SimpleNamespace(
        worlds=tuple(sorted(ball)),
        relation={t for t in m.relation if all(v in ball for v in t)},
        valuation={w: m.valuation[w] for w in ball},
    )
    return translate.fol_eval(sub, {"x": world}, translate.st(to_waml(f), arity))


def _structure(data: dict):
    return SimpleNamespace(
        worlds=tuple(data["worlds"]),
        relation={tuple(t) for t in data["relation"]},
        valuation={w: frozenset(ls) for w, ls in data["valuation"].items()},
    )


def _is_bisimulation(pairs: set, left, right) -> bool:
    def succ(m):
        out = {w: [] for w in m.worlds}
        for t in m.relation:
            out[t[0]].append(t[1:])
        return out

    ls, rs = succ(left), succ(right)
    for a, b in pairs:
        if left.valuation[a] != right.valuation[b]:
            return False
        for lt in ls[a]:
            if not any(all(any((u, v) in pairs for u in lt) for v in rt) for rt in rs[b]):
                return False
        for rt in rs[b]:
            if not any(all(any((u, v) in pairs for v in rt) for u in lt) for lt in ls[a]):
                return False
    return True


def check(query: Query, rc: int, out: str) -> str | None:
    """None when the verdict is right; otherwise what is wrong with it."""
    e = query.expect
    if rc == 2:
        return "exit code 2"
    data = json.loads(out)
    command = query.argv[0]
    if command == "sat":
        expected_rc = 0 if e["sat"] else 1
        if rc != expected_rc or data["satisfiable"] != e["sat"]:
            return f"expected {'sat' if e['sat'] else 'unsat'}, got exit {rc}"
        if not e["sat"]:
            return None
        witness = data["model"]
        n = len(witness["worlds"])
        if witness["arity"] != e["arity"] or n > e["max_worlds"]:
            return f"witness has arity {witness['arity']} and {n} worlds"
        if e["min_worlds"] is not None and n != e["min_worlds"]:
            return f"witness has {n} worlds, the minimum is {e['min_worlds']}"
        if not fol_holds(_structure(witness), data["world"], e["formula"], e["arity"]):
            return "witness does not satisfy the formula"
        return None
    if command == "interp":
        if rc != 0 or not all(data["conditions"].values()) or not data["overall"]:
            return f"counterexample conditions {data['conditions']}"
        return None
    if command == "mc":
        value = fol_holds(e["model"], e["world"], e["formula"], 2)
        if data["value"] != value or rc != (0 if value else 1):
            return f"mc says {data['value']}, first-order reading says {value}"
        return None
    if command == "experiment":
        reference = fol_holds(e["model"], e["world"], e["formula"], 2)
        if data["reference"] != reference:
            return "reference value disagrees with the first-order reading"
        depth = modal_depth(e["formula"])
        if not all(row["agree"] for row in data["sweep"] if row["depth"] >= depth):
            return f"an unraveling at depth >= {depth} disagrees with the point"
        return None
    if query.kind in ("bisim-self", "bisim-cross"):
        left, right = e["left"], e["right"]
        pairs = {tuple(p) for p in data["pairs"]}
        expected = {
            (a, b)
            for a in left.worlds
            for b in right.worlds
            if e["base"][(left.fiber[a], right.fiber[b])] is None
        }
        if query.kind == "bisim-self" and not all((w, w) in pairs for w in left.worlds):
            return "self-pair relation misses the identity"
        if pairs != expected:
            return f"{len(pairs)} pairs, the cover construction gives {len(expected)}"
        if not _is_bisimulation(pairs, left, right):
            return "relation is not a bisimulation"
        return None
    if command == "bisim" and query.argv[1] == "distinguish":
        if not e["distinguishable"]:
            return None if rc == 1 else "bisimilar points reported distinguishable"
        if rc != 0:
            return "distinguishable points reported bisimilar"
        f = read_formula(data["formula"])
        at_w = fol_holds(e["left"], e["w"], f, 2)
        at_v = fol_holds(e["right"], e["v"], f, 2)
        if not at_w or at_v:
            return f"formula is {at_w} at w and {at_v} at v"
        return None
    return f"no oracle for {query.argv[:2]}"
