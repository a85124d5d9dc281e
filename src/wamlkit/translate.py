"""Standard translation into first-order logic over one (n+1)-ary relation
symbol, a finite Tarskian evaluator, and TPTP export.

``box f`` becomes a universal over n successor variables: if the relation
holds, the translated body is true at some successor variable.  ``dia f``
becomes the existential mirror with a conjunction over the successors.
The output has exactly one free variable.
"""

from __future__ import annotations

import itertools
import re

from .errors import BudgetExceededError, InvalidArgumentError
from .model import NModel
from .syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Letter,
    Node,
    Not,
    Or,
    Top,
    fold,
)

# The standard translation copies a modal operand once per slot, so its
# size grows as arity**depth; larger translations are refused.
MAX_TRANSLATION_NODES = 1_000_000


class FolFormula(Node):
    """A first-order formula."""

    __slots__ = ()


class LetterPred(FolFormula):
    __slots__ = __match_args__ = ("letter", "var")


class Rel(FolFormula):
    __slots__ = __match_args__ = ("args",)


class FolTop(FolFormula):
    __slots__ = ()


class FolBottom(FolFormula):
    __slots__ = ()


class FolNot(FolFormula):
    __slots__ = __match_args__ = ("operand",)


class FolAnd(FolFormula):
    __slots__ = __match_args__ = ("left", "right")


class FolOr(FolFormula):
    __slots__ = __match_args__ = ("left", "right")


class FolImplies(FolFormula):
    __slots__ = __match_args__ = ("left", "right")


class Forall(FolFormula):
    __slots__ = __match_args__ = ("var", "body")


class Exists(FolFormula):
    __slots__ = __match_args__ = ("var", "body")


def st_size(f: Formula, arity: int) -> int:
    """The number of nodes of ``st(f, arity)``, counted without building it."""

    def step(node: Formula, op: type, *sizes: int) -> int:
        if op is Box or op is Diamond:
            # n copies of the operand under n - 1 binary connectives, the
            # relation atom and its connective, and n quantifiers
            return arity * sizes[0] + 2 * arity + 1
        if op is Iff:
            # two implications under a conjunction, each operand twice
            return 3 + 2 * sum(sizes)
        return 1 + sum(sizes)

    return fold(f, step)


def st(f: Formula, arity: int, free_var: str = "x") -> FolFormula:
    """Standard translation of f with the given free variable.

    Bound variables are y1..yn for the first modal operator reached and
    y1_c..yn_c (c = 1, 2, ...) for each later one, so no variable is ever
    bound twice along a path.  Raises BudgetExceededError when the
    translation would have more than ``MAX_TRANSLATION_NODES`` nodes.
    """
    if arity < 1:
        raise InvalidArgumentError("arity must be >= 1")
    size = st_size(f, arity)
    if size > MAX_TRANSLATION_NODES:
        raise BudgetExceededError(
            f"the translation would have {size} nodes, more than the cap of "
            f"{MAX_TRANSLATION_NODES}"
        )
    counter = 0

    def fresh() -> list[str]:
        nonlocal counter
        suffix = "" if counter == 0 else f"_{counter}"
        counter += 1
        return [f"y{i}{suffix}" for i in range(1, arity + 1)]

    def go(g: Formula, var: str) -> FolFormula:
        match g:
            case Letter(name):
                return LetterPred(name, var)
            case Top():
                return FolTop()
            case Bottom():
                return FolBottom()
            case Not(h):
                return FolNot(go(h, var))
            case And(l, r):
                return FolAnd(go(l, var), go(r, var))
            case Or(l, r):
                return FolOr(go(l, var), go(r, var))
            case Implies(l, r):
                return FolImplies(go(l, var), go(r, var))
            case Iff(l, r):
                return FolAnd(
                    FolImplies(go(l, var), go(r, var)),
                    FolImplies(go(r, var), go(l, var)),
                )
            case Box(h) | Diamond(h):
                join, guard, quantifier = FolOr, FolImplies, Forall
                if type(g) is Diamond:
                    join, guard, quantifier = FolAnd, FolAnd, Exists
                ys = fresh()
                body = go(h, ys[0])
                for y in ys[1:]:
                    body = join(body, go(h, y))
                quantified = guard(Rel((var, *ys)), body)
                for y in reversed(ys):
                    quantified = quantifier(y, quantified)
                return quantified
        raise TypeError(f"not a formula: {g!r}")

    return go(f, free_var)


def free_variables(g: FolFormula) -> frozenset[str]:
    """The variables of g not bound above their occurrence, found by one
    walk over an explicit stack: a quantifier counts its variable as bound
    until the marker ``(var,)`` under its body is popped."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    stack: list = [g]
    while stack:
        match stack.pop():
            case (var,):
                bound[var] -= 1
            case LetterPred(_, var):
                if not bound.get(var):
                    free.add(var)
            case Rel(args):
                free.update(a for a in args if not bound.get(a))
            case FolTop() | FolBottom():
                pass
            case FolNot(h):
                stack.append(h)
            case FolAnd(l, r) | FolOr(l, r) | FolImplies(l, r):
                stack += (r, l)
            case Forall(var, body) | Exists(var, body):
                bound[var] = bound.get(var, 0) + 1
                stack += ((var,), body)
            case h:
                raise TypeError(f"not a first-order formula: {h!r}")
    return frozenset(free)


def fol_eval(m: NModel, assignment: dict[str, str], g: FolFormula) -> bool:
    """Tarskian satisfaction over m viewed as a first-order structure;
    quantifiers range over m.worlds.  A block of like quantifiers is read
    in one loop over tuples of worlds, and an ``FolAnd``/``FolOr`` chain
    in one loop over its operands, so the translation of one modal
    operator is evaluated at one depth of recursion whatever the arity."""
    missing = sorted(free_variables(g) - set(assignment))
    if missing:
        raise InvalidArgumentError(f"unassigned free variables: {', '.join(missing)}")

    def go(h: FolFormula, env: dict[str, str]) -> bool:
        match h:
            case LetterPred(letter, var):
                return letter in m.valuation[env[var]]
            case Rel(args):
                return tuple(env[a] for a in args) in m.relation
            case FolTop():
                return True
            case FolBottom():
                return False
            case FolNot(b):
                return not go(b, env)
            case FolAnd() | FolOr():
                test = all if type(h) is FolAnd else any
                return test(go(p, env) for p in _chain(h, type(h)))
            case FolImplies(l, r):
                return (not go(l, env)) or go(r, env)
            case Forall() | Exists():
                test = all if type(h) is Forall else any
                names, body = _block(h)
                # a variable bound twice in the block takes its inner value
                return test(
                    go(body, {**env, **dict(zip(names, ws))})
                    for ws in itertools.product(m.worlds, repeat=len(names))
                )
        raise TypeError(f"not a first-order formula: {h!r}")

    return go(g, dict(assignment))


def _chain(h: FolFormula, cls: type) -> list[FolFormula]:
    # the operands of the cls chain at h, left to right, off a stack
    operands, stack = [], [h]
    while stack:
        h = stack.pop()
        if type(h) is cls:
            stack += (h.right, h.left)
        else:
            operands.append(h)
    return operands


def _block(h: FolFormula) -> tuple[list[str], FolFormula]:
    # the variables of the block of quantifiers of h's class, outermost
    # first, and the body under them
    cls, names = type(h), []
    while type(h) is cls:
        names.append(h.var)
        h = h.body
    return names, h


# ---------------------------------------------------------------------------
# Rendering

_TPTP_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _render(g: FolFormula, term) -> str:
    match g:
        case LetterPred(letter, var):
            return f"p_{letter}({term(var)})"
        case Rel(args):
            return "r(" + ",".join(term(a) for a in args) + ")"
        case FolTop():
            return "$true"
        case FolBottom():
            return "$false"
        case FolNot(h):
            return "~ " + _render(h, term)
        case FolAnd():
            return "(" + " & ".join(_render(p, term) for p in _chain(g, FolAnd)) + ")"
        case FolOr():
            return "(" + " | ".join(_render(p, term) for p in _chain(g, FolOr)) + ")"
        case FolImplies(l, r):
            return "(" + _render(l, term) + " => " + _render(r, term) + ")"
        case Forall() | Exists():
            symbol = "!" if isinstance(g, Forall) else "?"
            names, body = _block(g)
            joined = ",".join(term(v) for v in names)
            return f"{symbol} [{joined}] : " + _render(body, term)
    raise TypeError(f"not a first-order formula: {g!r}")


def render_text(g: FolFormula) -> str:
    """Plain-text rendering with variables kept verbatim."""
    return _render(g, lambda v: v)


def tptp_export(
    g: FolFormula, role: str, name: str, grounding: dict[str, str]
) -> str:
    """One TPTP fof line for g.  Free variables must all be grounded to
    constants; bound variables are uppercased as TPTP requires."""
    if role not in ("axiom", "conjecture"):
        raise InvalidArgumentError(f"role must be axiom or conjecture, got {role!r}")
    if not _TPTP_NAME_RE.match(name):
        raise InvalidArgumentError(f"{name!r} is not a valid TPTP identifier")
    unground = sorted(free_variables(g) - set(grounding))
    if unground:
        raise InvalidArgumentError(f"ungrounded free variables: {', '.join(unground)}")
    for const in grounding.values():
        if not _TPTP_NAME_RE.match(const):
            raise InvalidArgumentError(f"{const!r} is not a valid TPTP constant")

    def term(v: str) -> str:
        if v in grounding:
            return grounding[v]
        return v[0].upper() + v[1:]

    return f"fof({name}, {role}, {_render(g, term)})."
