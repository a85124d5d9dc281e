"""Hilbert-style proof checking for the weakly aggregative systems.

The system of arity n extends propositional logic with the axiom schema

    box p0 & ... & box pn -> box OR_{0 <= i < j <= n} (p_i & p_j)

(the pigeonhole weakening of aggregation), the necessitation rule and the
monotonicity rule.  Replacement of provable equivalents under box and
tautological consequence from cited lines are admitted as derived-rule
conveniences.  Diamonds are read as the negated-box abbreviation before
any line is validated, so propositional steps may move between ``dia f``
and ``~box ~f`` freely; box subformulas themselves are opaque atoms for
propositional reasoning.
"""

from __future__ import annotations

from typing import Mapping

from .errors import BudgetExceededError, InvalidArgumentError, ModelLoadError
from .model import dump_json, json_arity, read_json
from .syntax import (
    And,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Letter,
    Node,
    Not,
    bit_pattern,
    compile_formula,
    conj,
    disj,
    fold_program,
    parse,
    print_formula,
    run_program,
)

MAX_TAUTOLOGY_ATOMS = 20


class Justification(Node):
    __slots__ = ()


class TautJust(Justification):
    __slots__ = ()


class KnAxiomJust(Justification):
    # the substitution: sorted (p_i, formula) pairs
    __slots__ = __match_args__ = ("substitution",)


class MPJust(Justification):
    __slots__ = __match_args__ = ("implication", "antecedent")


class NecJust(Justification):
    __slots__ = __match_args__ = ("source",)


class RMJust(Justification):
    __slots__ = __match_args__ = ("source",)


class REJust(Justification):
    # source None: the equivalence is itself tautological
    __slots__ = __match_args__ = ("source",)


class PLFromJust(Justification):
    __slots__ = __match_args__ = ("sources",)


class ProofLine(Node):
    __slots__ = __match_args__ = ("formula", "justification")


class ProofScript(Node):
    __slots__ = __match_args__ = ("arity", "lines")

    def theorem(self) -> Formula:
        return self.lines[-1].formula


class LineReport(Node):
    __slots__ = __match_args__ = ("line", "reason")  # line: 1-based


# ---------------------------------------------------------------------------
# Normalization and propositional abstraction

def _expand_step(node: Formula, op: type, *operands: Formula) -> Formula:
    if op is Diamond:
        return Not(Box(Not(*operands)))
    return op(*operands) if operands else node


def expand_diamonds(f: Formula, memo: dict[Formula, Formula] | None = None) -> Formula:
    """Rewrite every diamond into its negated-box form.  ``memo`` maps
    nodes to their expansions: f is compiled with its nodes as known, so
    none is walked again, and every expansion computed here is added,
    mapped from its node and from itself (an expansion has no diamonds)."""
    memo = {} if memo is None else memo

    def step(node: Formula, op: type | None, *operands: Formula) -> Formula:
        if op is None:
            return memo[node]
        g = memo[node] = _expand_step(node, op, *operands)
        memo[g] = g
        return g

    return fold_program(compile_formula(f, memo), step)[-1]


class _PropositionalAtoms:
    """Letters and boxes: the atoms of the propositional abstraction."""

    def __contains__(self, g: Formula) -> bool:
        return type(g) is Letter or type(g) is Box


def is_tautology(f: Formula, memo: dict[Formula, Formula] | None = None) -> bool:
    """Exact truth-table check after abstracting maximal boxed subformulas
    (syntactically identical boxes share an atom, nothing else does).

    The diamond-free form of f (from ``expand_diamonds(f, memo)``) is
    compiled once with its letters and maximal boxes as known leaves, and
    its program is run once over all 2**k rows of the k atoms: the leaf
    gives atom b the column ``bit_pattern(b, 2**k)``, and f must come out
    true in every row."""
    program = compile_formula(expand_diamonds(f, memo), _PropositionalAtoms())
    atoms = [node for node, op, _, _ in program if op is None]
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise BudgetExceededError(
            f"tautology check over {len(atoms)} atoms exceeds the cap of "
            f"{MAX_TAUTOLOGY_ATOMS}"
        )
    rows = 1 << len(atoms)
    columns = {g: bit_pattern(b, rows) for b, g in enumerate(atoms)}
    full = (1 << rows) - 1
    return run_program(program, full, lambda g, operand: columns[g])[-1] == full


def tautological_consequence(
    premises: list[Formula],
    conclusion: Formula,
    memo: dict[Formula, Formula] | None = None,
) -> bool:
    return is_tautology(Implies(conj(premises), conclusion), memo)


# ---------------------------------------------------------------------------
# The axiom schema

def kn_axiom(arity: int, substitution: Mapping[str, Formula]) -> Formula:
    """The arity-n axiom instance under the substitution for p0..pn, with
    the pairwise disjunction enumerated in lexicographic (i, j) order."""
    if arity < 1:
        raise InvalidArgumentError("arity must be >= 1")
    names = [f"p{i}" for i in range(arity + 1)]
    missing = [p for p in names if p not in substitution]
    if missing:
        raise InvalidArgumentError(f"substitution missing {', '.join(missing)}")
    args = [substitution[p] for p in names]
    pairs = [
        And(args[i], args[j])
        for i in range(arity + 1)
        for j in range(i + 1, arity + 1)
    ]
    return Implies(conj([Box(g) for g in args]), Box(disj(pairs)))


# ---------------------------------------------------------------------------
# Script checking

class _NotEarlier(Exception):
    """A line cites itself or a later line."""


def check_script(script: ProofScript) -> LineReport | None:
    """None when every line validates; otherwise the first invalid line
    with the reason.  A line whose tautology check is over the atom cap is
    no verdict: its ``BudgetExceededError`` is raised again with the line
    number in front.

    Every diamond expansion of the call shares one memo, so each distinct
    subformula of the script is expanded once; the memo lives only as long
    as the call."""
    if script.arity < 1:
        return LineReport(0, f"arity must be >= 1, got {script.arity}")
    if not script.lines:
        return LineReport(0, "script has no lines")
    memo: dict[Formula, Formula] = {}
    norms: list[Formula] = []
    for number, line in enumerate(script.lines, start=1):
        current = expand_diamonds(line.formula, memo)

        def cited(index: int) -> Formula:
            if not 1 <= index < number:
                raise _NotEarlier
            return norms[index - 1]

        try:
            reason = _check_line(script.arity, current, line.justification, cited, memo)
        except BudgetExceededError as e:  # from ``is_tautology`` alone
            raise BudgetExceededError(f"line {number}: {e}") from e
        except _NotEarlier:
            reason = "cited line must be strictly earlier"
        if reason is not None:
            return LineReport(number, reason)
        norms.append(current)
    return None


def _check_line(arity, current, just, cited, memo) -> str | None:
    match just:
        case TautJust():
            if not is_tautology(current, memo):
                return "not a propositional tautology after abstraction"
            return None
        case KnAxiomJust(substitution):
            subst = dict(substitution)
            # the sizes first, so that the names p0..p<arity> are listed
            # only when there are no more of them than substitution entries
            if len(subst) != arity + 1 or set(subst) != {
                f"p{i}" for i in range(arity + 1)
            }:
                return f"substitution domain must be exactly p0..p{arity}"
            expected = expand_diamonds(kn_axiom(arity, subst), memo)
            if current != expected:
                return (
                    "formula is not the stated axiom instance; expected "
                    + print_formula(expected)
                )
            return None
        case MPJust(implication, antecedent):
            impl = cited(implication)
            ante = cited(antecedent)
            if not isinstance(impl, Implies):
                return f"line {implication} is not an implication"
            if impl.left != ante:
                return f"line {antecedent} does not match the antecedent"
            if impl.right != current:
                return "formula does not match the consequent"
            return None
        case NecJust(source):
            src = cited(source)
            if current != Box(src):
                return f"formula is not box applied to line {source}"
            return None
        case RMJust(source):
            src = cited(source)
            if not isinstance(src, Implies):
                return f"line {source} is not an implication"
            if current != Implies(Box(src.left), Box(src.right)):
                return "formula is not the boxed form of the cited implication"
            return None
        case REJust(source):
            if not (
                isinstance(current, Iff)
                and isinstance(current.left, Box)
                and isinstance(current.right, Box)
            ):
                return "formula must be a biconditional between two boxes"
            equivalence = Iff(current.left.operand, current.right.operand)
            if source is None:
                if not is_tautology(equivalence, memo):
                    return "the unboxed biconditional is not a tautology"
                return None
            src = cited(source)
            if src != equivalence:
                return f"line {source} is not the matching biconditional"
            return None
        case PLFromJust(sources):
            premises = [cited(index) for index in sources]
            if not tautological_consequence(premises, current, memo):
                return "not a tautological consequence of the cited lines"
            return None
    return f"unknown justification {just!r}"


# ---------------------------------------------------------------------------
# JSON round-trip

def script_to_dict(script: ProofScript) -> dict:
    lines = []
    for line in script.lines:
        match line.justification:
            case TautJust():
                just: dict = {"kind": "Taut"}
            case KnAxiomJust(substitution):
                just = {
                    "kind": "KnAxiom",
                    "subst": {
                        name: print_formula(g) for name, g in substitution
                    },
                }
            case MPJust(implication, antecedent):
                just = {"kind": "MP", "from": [implication, antecedent]}
            case NecJust(source):
                just = {"kind": "Nec", "from": [source]}
            case RMJust(source):
                just = {"kind": "RM", "from": [source]}
            case REJust(source):
                just = {"kind": "RE"}
                if source is not None:
                    just["from"] = [source]
            case PLFromJust(sources):
                just = {"kind": "PLFrom", "from": list(sources)}
            case other:
                raise TypeError(f"unknown justification {other!r}")
        lines.append({"formula": print_formula(line.formula), "just": just})
    return {"arity": script.arity, "lines": lines}


def _just_from_dict(data: object, where: str) -> Justification:
    if not isinstance(data, dict) or "kind" not in data:
        raise ModelLoadError(f"{where}: justification must carry a kind")
    kind = data["kind"]
    refs = data.get("from", [])
    if not isinstance(refs, list) or not all(type(i) is int for i in refs):
        raise ModelLoadError(f"{where}: 'from' must be a list of line numbers")
    if kind == "Taut":
        return TautJust()
    if kind == "KnAxiom":
        subst = data.get("subst")
        if not isinstance(subst, dict):
            raise ModelLoadError(f"{where}: KnAxiom needs a 'subst' object")
        if not all(isinstance(text, str) for text in subst.values()):
            raise ModelLoadError(f"{where}: 'subst' values must be formula strings")
        pairs = tuple(
            sorted((name, parse(text)) for name, text in subst.items())
        )
        return KnAxiomJust(pairs)
    if kind == "MP":
        if len(refs) != 2:
            raise ModelLoadError(f"{where}: MP cites exactly two lines")
        return MPJust(refs[0], refs[1])
    if kind in ("Nec", "RM"):
        if len(refs) != 1:
            raise ModelLoadError(f"{where}: {kind} cites exactly one line")
        return (NecJust if kind == "Nec" else RMJust)(refs[0])
    if kind == "RE":
        if len(refs) > 1:
            raise ModelLoadError(f"{where}: RE cites at most one line")
        return REJust(refs[0] if refs else None)
    if kind == "PLFrom":
        return PLFromJust(tuple(refs))
    raise ModelLoadError(f"{where}: unknown justification kind {kind!r}")


def script_from_dict(data: object) -> ProofScript:
    if not isinstance(data, dict):
        raise ModelLoadError("proof JSON must be an object")
    arity = json_arity(data.get("arity"))
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ModelLoadError("lines must be a nonempty list")
    lines = []
    for i, raw in enumerate(raw_lines, start=1):
        where = f"lines[{i}]"
        if not isinstance(raw, dict) or "formula" not in raw or "just" not in raw:
            raise ModelLoadError(f"{where}: each line needs formula and just")
        if not isinstance(raw["formula"], str):
            raise ModelLoadError(f"{where}: formula must be a string")
        lines.append(
            ProofLine(parse(raw["formula"]), _just_from_dict(raw["just"], where))
        )
    return ProofScript(arity, tuple(lines))


def load_script(text: bytes | str) -> ProofScript:
    return script_from_dict(read_json(text, "proof"))


def save_script(script: ProofScript) -> bytes:
    return dump_json(script_to_dict(script))
