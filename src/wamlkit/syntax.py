"""Formula ASTs, parsing, printing, and structural metrics.

Grammar (ASCII): letters ``[a-z][a-z0-9_]*`` (the words ``true``,
``false``, ``box``, ``dia`` are reserved), ``~`` not, ``&`` and, ``|`` or,
``->`` implies, ``<->`` iff, parentheses.  ``~``/``box``/``dia`` bind
tightest, then ``&``, then ``|``, then ``->``, then ``<->``; the two
arrows are right-associative, ``&`` and ``|`` left-associative.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator

from .errors import FormulaParseError


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Letter(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    operand: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    operand: Formula


def conj(parts: list[Formula]) -> Formula:
    """Left-nested conjunction of the parts; ``true`` when there are none."""
    return reduce(And, parts) if parts else Top()


def disj(parts: list[Formula]) -> Formula:
    """Left-nested disjunction of the parts; ``false`` when there are none."""
    return reduce(Or, parts) if parts else Bottom()


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = {"true", "false", "box", "dia"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[a-z][a-z0-9_]*)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<not>~)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise FormulaParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2]
            )
        return tok

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek()[0] == "iff":
            self.take()
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "and":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == "not":
            self.take()
            return Not(self.unary())
        if kind == "box":
            self.take()
            return Box(self.unary())
        if kind == "dia":
            self.take()
            return Diamond(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "ident":
            return Letter(value)
        if kind == "true":
            return Top()
        if kind == "false":
            return Bottom()
        if kind == "lparen":
            f = self.formula()
            self.expect("rparen")
            return f
        raise FormulaParseError(
            f"expected a formula, found {value or 'end of input'!r}", pos
        )


def parse(text: str) -> Formula:
    """Parse formula text into its AST.

    Raises FormulaParseError (with position) on malformed input.
    """
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise FormulaParseError(f"unexpected trailing input {value!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printing

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def _prec(f: Formula) -> int:
    match f:
        case Letter() | Top() | Bottom():
            return _PREC_ATOM
        case Not() | Box() | Diamond():
            return _PREC_UNARY
        case And():
            return _PREC_AND
        case Or():
            return _PREC_OR
        case Implies():
            return _PREC_IMPLIES
        case Iff():
            return _PREC_IFF
    raise TypeError(f"not a formula: {f!r}")


def _render(f: Formula, min_prec: int) -> str:
    match f:
        case Letter(name):
            s = name
        case Top():
            s = "true"
        case Bottom():
            s = "false"
        case Not(g):
            s = "~" + _render(g, _PREC_UNARY)
        case Box(g):
            s = "box " + _render(g, _PREC_UNARY)
        case Diamond(g):
            s = "dia " + _render(g, _PREC_UNARY)
        case And(l, r):
            s = _render(l, _PREC_AND) + " & " + _render(r, _PREC_AND + 1)
        case Or(l, r):
            s = _render(l, _PREC_OR) + " | " + _render(r, _PREC_OR + 1)
        case Implies(l, r):
            s = _render(l, _PREC_IMPLIES + 1) + " -> " + _render(r, _PREC_IMPLIES)
        case Iff(l, r):
            s = _render(l, _PREC_IFF + 1) + " <-> " + _render(r, _PREC_IFF)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if _prec(f) < min_prec:
        return "(" + s + ")"
    return s


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(print_formula(f)) == f``."""
    return _render(f, _PREC_IFF)


# ---------------------------------------------------------------------------
# Structural metrics

def modal_depth(f: Formula) -> int:
    match f:
        case Letter() | Top() | Bottom():
            return 0
        case Not(g):
            return modal_depth(g)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return max(modal_depth(l), modal_depth(r))
        case Box(g) | Diamond(g):
            return modal_depth(g) + 1
    raise TypeError(f"not a formula: {f!r}")


def letters(f: Formula) -> frozenset[str]:
    """The set of letter names occurring in f."""
    match f:
        case Letter(name):
            return frozenset({name})
        case Top() | Bottom():
            return frozenset()
        case Not(g) | Box(g) | Diamond(g):
            return letters(g)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return letters(l) | letters(r)
    raise TypeError(f"not a formula: {f!r}")


def ast_size(f: Formula) -> int:
    match f:
        case Letter() | Top() | Bottom():
            return 1
        case Not(g) | Box(g) | Diamond(g):
            return ast_size(g) + 1
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return ast_size(l) + ast_size(r) + 1
    raise TypeError(f"not a formula: {f!r}")


def formula_key(f: Formula) -> tuple[int, str]:
    """Canonical ordering key: AST size first, rendered text second."""
    return (ast_size(f), print_formula(f))


# ---------------------------------------------------------------------------
# Bit-parallel boolean folding
#
# A mask is an integer whose bit i is the truth value in row i (a world of
# a model, a type of a type space, a row of a truth table); ``full`` has
# every row bit set.


def fold_mask(
    f: Formula, full: int, leaf: Callable[[Formula], int], cache: dict
) -> int:
    """The mask of f: the boolean connectives are folded here, and ``leaf``
    is asked for the mask of each letter and modal formula not yet in
    ``cache``.  Every mask computed is stored in ``cache``."""

    def fold(g: Formula) -> int:
        bits = cache.get(g)
        if bits is not None:
            return bits
        match g:
            case Top():
                bits = full
            case Bottom():
                bits = 0
            case Not(h):
                bits = ~fold(h) & full
            case And(l, r):
                bits = fold(l) & fold(r)
            case Or(l, r):
                bits = fold(l) | fold(r)
            case Implies(l, r):
                bits = (~fold(l) & full) | fold(r)
            case Iff(l, r):
                bits = ~(fold(l) ^ fold(r)) & full
            case Letter() | Box() | Diamond():
                bits = leaf(g)
            case _:
                raise TypeError(f"not a formula: {g!r}")
        cache[g] = bits
        return bits

    return fold(f)


def bit_pattern(b: int, count: int) -> int:
    """The ``count``-row mask whose row t is bit b of t: in a truth table
    over 2**k rows, atom b < k takes this column."""
    pattern = ((1 << (1 << b)) - 1) << (1 << b)
    width = 1 << (b + 1)
    while width < count:
        pattern |= pattern << width
        width <<= 1
    return pattern & ((1 << count) - 1)


# ---------------------------------------------------------------------------
# Canonical enumeration

def enumerate_formulas(
    alphabet: Iterable[str], depth: int, size_budget: int
) -> Iterator[Formula]:
    """Yield formulas over ``alphabet`` with modal depth <= depth and AST
    size <= size_budget, smallest first, duplicate-free.

    Canonical-form policy: formulas are built from letters, ``true``,
    ``false``, ``~``, ``&``, ``|``, ``box`` and ``dia`` only (``->`` and
    ``<->`` are definable and add no distinguishing power), negation is
    never applied to a negation or a constant, and the two operands of a
    binary connective are distinct and canonically ordered.  Within one
    size, formulas come out sorted by their rendered text.
    """
    atoms: list[Formula] = [Letter(a) for a in sorted(set(alphabet))]
    atoms += [Top(), Bottom()]
    by_size: dict[int, list[Formula]] = {}
    depths: dict[Formula, int] = {}

    for size in range(1, size_budget + 1):
        bucket: list[Formula] = []
        if size == 1:
            bucket.extend(atoms)
            for a in atoms:
                depths[a] = 0
        else:
            for g in by_size.get(size - 1, ()):
                if not isinstance(g, (Not, Top, Bottom)):
                    bucket.append(Not(g))
                    depths[Not(g)] = depths[g]
                if depths[g] + 1 <= depth:
                    for wrap in (Box, Diamond):
                        bucket.append(wrap(g))
                        depths[wrap(g)] = depths[g] + 1
            for lsize in range(1, size - 1):
                rsize = size - 1 - lsize
                for a in by_size.get(lsize, ()):
                    ka = formula_key(a)
                    for b in by_size.get(rsize, ()):
                        if ka < formula_key(b):
                            for comb in (And, Or):
                                f = comb(a, b)
                                bucket.append(f)
                                depths[f] = max(depths[a], depths[b])
        bucket.sort(key=print_formula)
        by_size[size] = bucket
        yield from bucket


def random_formula(
    rng: random.Random, alphabet: list[str], nesting: int, fuel: int = 12
) -> Formula:
    """Seed-deterministic random formula with modal depth <= nesting and
    roughly ``fuel`` AST nodes."""
    leaves = [Letter(a) for a in alphabet] + [Top(), Bottom()]
    if fuel <= 1:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return Not(random_formula(rng, alphabet, nesting, fuel - 1))
    if kind in (2, 3) and nesting > 0:
        wrap = Box if kind == 2 else Diamond
        return wrap(random_formula(rng, alphabet, nesting - 1, fuel - 1))
    op = rng.choice([And, Or, Implies, Iff])
    half = (fuel - 1) // 2
    return op(
        random_formula(rng, alphabet, nesting, half),
        random_formula(rng, alphabet, nesting, fuel - 1 - half),
    )
