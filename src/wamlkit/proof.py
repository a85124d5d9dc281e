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
    fold,
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


def expand_diamonds(f: Formula) -> Formula:
    """Rewrite every diamond into its negated-box form: one fold over f,
    each distinct subformula expanded once."""
    return fold(f, _expand_step)


class _PropositionalAtoms:
    """Letters and boxes: the atoms of the propositional abstraction."""

    def __contains__(self, g: Formula) -> bool:
        return type(g) is Letter or type(g) is Box


def _tautological(f: Formula) -> bool:
    # the truth table of a diamond-free f: compiled with its letters and
    # maximal boxes as known leaves, its program is run once over all 2**k
    # rows of the k atoms, atom b taking the column ``bit_pattern(b, 2**k)``
    program = compile_formula(f, _PropositionalAtoms())
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


def is_tautology(f: Formula) -> bool:
    """Exact truth-table check of ``expand_diamonds(f)`` after abstracting
    maximal boxed subformulas (syntactically identical boxes share an
    atom, nothing else does): f must come out true in every row."""
    return _tautological(expand_diamonds(f))


# ---------------------------------------------------------------------------
# The axiom schema

MAX_AXIOM_PAIRS = 1_000  # pairwise disjuncts, refused before any is built


def kn_axiom(arity: int, substitution: Mapping[str, Formula]) -> Formula:
    """The arity-n axiom instance under the substitution for p0..pn, with
    the pairwise disjunction enumerated in lexicographic (i, j) order.
    Raises BudgetExceededError past ``MAX_AXIOM_PAIRS`` disjuncts."""
    if arity < 1:
        raise InvalidArgumentError("arity must be >= 1")
    count = arity * (arity + 1) // 2
    if count > MAX_AXIOM_PAIRS:
        raise BudgetExceededError(
            f"the axiom instance at arity {arity} has {count} disjuncts, over "
            f"the cap of {MAX_AXIOM_PAIRS}"
        )
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
    with the reason.  A line over the atom cap or the axiom cap is no
    verdict: its ``BudgetExceededError`` is raised again with the line
    number in front.  The lines are compiled into one program and the
    diamond expansion is one fold over it, so each distinct subformula is
    expanded once; the checks take their truth tables on those forms."""
    if script.arity < 1:
        return LineReport(0, f"arity must be >= 1, got {script.arity}")
    if not script.lines:
        return LineReport(0, "script has no lines")
    program = compile_formula(conj([line.formula for line in script.lines]))
    norm = dict(zip([i[0] for i in program], fold_program(program, _expand_step)))
    for number, line in enumerate(script.lines, start=1):
        current = norm[line.formula]

        def cited(index: int) -> Formula:
            if not 1 <= index < number:
                raise _NotEarlier
            return norm[script.lines[index - 1].formula]

        try:
            reason = _check_line(script.arity, line, current, cited)
        except BudgetExceededError as e:  # from a cap alone
            raise BudgetExceededError(f"line {number}: {e}") from e
        except _NotEarlier:
            reason = "cited line must be strictly earlier"
        if reason is not None:
            return LineReport(number, reason)
    return None


def _check_line(arity, line, current, cited) -> str | None:
    match line.justification:
        case TautJust():
            if not _tautological(current):
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
            instance = kn_axiom(arity, subst)
            # formulas are hash-consed: a right instance is the line's own
            # formula, and only another one is expanded here
            if instance != line.formula:
                expected = expand_diamonds(instance)
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
                if not _tautological(equivalence):
                    return "the unboxed biconditional is not a tautology"
                return None
            src = cited(source)
            if src != equivalence:
                return f"line {source} is not the matching biconditional"
            return None
        case PLFromJust(sources):
            premises = [cited(index) for index in sources]
            if not _tautological(Implies(conj(premises), current)):
                return "not a tautological consequence of the cited lines"
            return None
    return f"unknown justification {line.justification!r}"


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
