"""Formula ASTs, parsing, printing, and structural metrics; and the
package's two kinds of immutable value, hash-consed nodes and records.

Grammar (ASCII): letters ``[a-z][a-z0-9_]*`` (the words ``true``,
``false``, ``box``, ``dia`` are reserved), ``~`` not, ``&`` and, ``|`` or,
``->`` implies, ``<->`` iff, parentheses.  ``~``/``box``/``dia`` bind
tightest, then ``&``, then ``|``, then ``->``, then ``<->``; the two
arrows are right-associative, ``&`` and ``|`` left-associative.
"""

from __future__ import annotations

import random
import re
import weakref
from functools import reduce
from operator import attrgetter
from typing import Callable, Container, Iterable, Iterator, Sequence, TypeVar

from .errors import FormulaParseError

_T = TypeVar("_T")


class Node:
    """A hash-consed value: formulas, their first-order translations,
    proof terms and reports.  Building a node whose class and fields equal
    those of a live node returns that node, so equal nodes are one object,
    ``==`` is identity, and building a node neither recurses nor compares
    trees.  Nodes are immutable, and the table holds them weakly: a node
    leaves it with its last reference.  A subclass names its fields in
    ``__slots__ = __match_args__``.  Fields are matched by ``==``, so no
    field may hold a bool in one node and an int in another."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__match_args__}")
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        # the dataclass text, e.g. ``Not(operand=Letter(name='p'))``, built
        # with an explicit stack of values and finished pieces, so that no
        # repr recurses through nested nodes or records
        pieces: list[str] = []
        stack: list = [self]
        while stack:
            g = stack.pop()
            if not isinstance(g, (Node, Record)):
                pieces.append(g)
                continue
            items = [type(g).__qualname__ + "("]
            for i, name in enumerate(g.__match_args__):
                value = getattr(g, name)
                items.append(f"{', ' if i else ''}{name}=")
                items.append(value if isinstance(value, (Node, Record)) else repr(value))
            items.append(")")
            stack += reversed(items)
        return "".join(pieces)

    def __reduce__(self):
        # rebuilt through the constructor, so that a loaded node is interned
        # again; a hash is only meaningful in the process that computed it
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# (class, *fields) -> the live node built from them
_NODES: weakref.WeakValueDictionary[tuple, Node] = weakref.WeakValueDictionary()


class Record:
    """An immutable value that is not interned, for one that holds a model
    or a dict: fields named in ``__match_args__``, given by position or
    keyword, and ``==`` field by field within one class.  Its ``__dict__``
    holds any ``cached_property`` views, which write to it directly."""

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self.__match_args__
        if len(values) > len(fields) or named.keys() != set(fields[len(values):]):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        self.__dict__.update(zip(fields, values), **named)

    __setattr__ = __delattr__ = Node.__setattr__
    __repr__ = Node.__repr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__match_args__)


class Formula(Node):
    """A modal formula."""

    __slots__ = ()


class Letter(Formula):
    __slots__ = __match_args__ = ("name",)


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Iff(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Box(Formula):
    __slots__ = __match_args__ = ("operand",)


class Diamond(Formula):
    __slots__ = __match_args__ = ("operand",)


def conj(parts: list[Formula]) -> Formula:
    """Left-nested conjunction of the parts; ``true`` when there are none."""
    return reduce(And, parts) if parts else Top()


def disj(parts: list[Formula]) -> Formula:
    """Left-nested disjunction of the parts; ``false`` when there are none."""
    return reduce(Or, parts) if parts else Bottom()


# ---------------------------------------------------------------------------
# Notation and parsing

# connective -> (its precedence, prefix, infix, least precedence an operand
# is printed with unparenthesised, per operand); letters have precedence 6,
# and the arrows nest to the right.  This is the one table of the grammar's
# symbols, precedence and grouping: the printer and the parser both read it.
_NOTATION = {
    Top: (6, "true", "", ()),
    Bottom: (6, "false", "", ()),
    Not: (5, "~", "", (5,)),
    Box: (5, "box ", "", (5,)),
    Diamond: (5, "dia ", "", (5,)),
    And: (4, "", " & ", (4, 5)),
    Or: (3, "", " | ", (3, 4)),
    Implies: (2, "", " -> ", (3, 2)),
    Iff: (1, "", " <-> ", (2, 1)),
}

# symbol -> its connective, and the notation of a token that is none
_SYMBOLS = {(prefix + infix).strip(): op for op, (_, prefix, infix, _) in _NOTATION.items()}
_NO_SYMBOL = (0, "", "", ())

# after any whitespace: a letter or reserved word, a parenthesis or a
# symbol (the longest that fits), or else a character that starts no token
_TOKEN_RE = re.compile(
    r"\s*(?:([a-z][a-z0-9_]*|[()]|"
    + "|".join(re.escape(s) for s in sorted(_SYMBOLS, key=len, reverse=True) if not s.isalpha())
    + r")|(\S))"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of text with their positions, and an empty token at the end."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m[2]:
            raise FormulaParseError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append(("", len(text)))
    return tokens


# Formulas deeper than this are rejected: the parser recurses per
# parenthesis and prefix operator (a chain of infix operators of any
# length, arrows included, is read in one loop), and ``translate.st`` and
# pickling per level of the formula tree.  Building a node, hashing,
# ``==`` (identity, since nodes are hash-consed), printing, the metrics
# and the evaluators do not recurse, so they answer on formulas built
# deeper through the API.
MAX_NESTING = 100


class _Parser:
    # formulas are read as (formula, height) pairs, and ``node`` checks
    # the height of every node it builds
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.i = 0

    def node(self, op: type, pos: int, *operands: tuple[Formula, int]) -> tuple[Formula, int]:
        height = 1 + max(h for _, h in operands)
        if height > MAX_NESTING:
            raise FormulaParseError(f"nesting deeper than {MAX_NESTING}", pos)
        return op(*(f for f, _ in operands)), height

    def formula(self, depth: int) -> tuple[Formula, int]:
        """Unary formulas joined by infix connectives, read in one loop.
        Each connective waits on a stack for its right operand, which is
        complete when the formula ends or a connective comes whose left
        bound in ``_NOTATION`` is at most the waiting one's precedence.
        So ``&`` and ``|`` group to the left and the arrows to the right,
        and nodes are built operands first."""
        operands = [self.unary(depth)]
        waiting: list[tuple[int, type, int]] = []  # (precedence, connective, position)
        while True:
            text, pos = self.tokens[self.i]
            op = _SYMBOLS.get(text)
            prec, _, infix, least = _NOTATION.get(op, _NO_SYMBOL)
            bound = least[0] if infix else 0
            while waiting and waiting[-1][0] >= bound:
                _, waiting_op, at = waiting.pop()
                right = operands.pop()
                operands[-1] = self.node(waiting_op, at, operands[-1], right)
            if not infix:
                return operands[0]
            self.i += 1
            waiting.append((prec, op, pos))
            operands.append(self.unary(depth))

    def unary(self, depth: int) -> tuple[Formula, int]:
        """A constant, a letter, a prefix connective applied to a unary
        formula, or a parenthesised formula, inside ``depth`` enclosing
        parentheses and prefix connectives."""
        text, pos = self.tokens[self.i]
        self.i += 1
        op = _SYMBOLS.get(text)
        _, prefix, _, least = _NOTATION.get(op, _NO_SYMBOL)
        if prefix and not least:
            return op(), 0
        if op is None and text[:1].isalpha():
            return Letter(text), 0
        if not prefix and text != "(":
            raise FormulaParseError(f"expected a formula, found {text or 'end of input'!r}", pos)
        if depth == MAX_NESTING:
            raise FormulaParseError(f"nesting deeper than {MAX_NESTING}", pos)
        if prefix:
            return self.node(op, pos, self.unary(depth + 1))
        f = self.formula(depth + 1)
        text, pos = self.tokens[self.i]
        if text != ")":
            raise FormulaParseError(f"expected 'rparen', found {text or 'end of input'!r}", pos)
        self.i += 1
        return f


def parse(text: str) -> Formula:
    """Parse formula text into its AST.

    Raises FormulaParseError (with position) on malformed input, and on
    input nested deeper than ``MAX_NESTING`` parentheses and prefix
    operators or with a formula tree higher than ``MAX_NESTING``.
    """
    parser = _Parser(_tokenize(text))
    f, _ = parser.formula(0)
    rest, pos = parser.tokens[parser.i]
    if rest:
        raise FormulaParseError(f"unexpected trailing input {rest!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Programs and folds
#
# A formula is walked through its program: its distinct subformulas in
# post-order, each with the program indices of its operands.  Printing,
# the metrics and diamond expansion are steps of ``fold`` over it, and the
# bit-parallel evaluators run it through ``run_program``; none of them
# recurses, so nesting depth is no limit.

Instruction = tuple[Formula, type | None, int, int]

# the operands of a node, by its class
_OPERANDS: dict[type, Callable[[Formula], tuple[Formula, ...]]] = {
    **dict.fromkeys((Letter, Top, Bottom), lambda g: ()),
    **dict.fromkeys((Not, Box, Diamond), lambda g: (g.operand,)),
    **dict.fromkeys((And, Or, Implies, Iff), attrgetter("left", "right")),
}


def _operands(g: Formula) -> tuple[Formula, ...]:
    try:
        return _OPERANDS[type(g)](g)
    except KeyError:
        raise TypeError(f"not a formula: {g!r}") from None


def compile_formula(f: Formula, known: Container[Formula] = ()) -> list[Instruction]:
    """The program of f: its distinct subformulas in post-order (operands
    before the formulas they occur in, f last), each as ``(node,
    connective, left, right)`` with the node's class as connective and the
    program indices of its operands, -1 where there is none.  Subformulas
    in ``known`` are not descended into and get connective None."""
    index: dict[Formula, int] = {}
    program: list[Instruction] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g in index:
            continue
        if g in known:
            op, slots = None, []
        else:
            op, operands = type(g), _operands(g)
            slots = []
            for h in operands:
                i = index.get(h)
                if i is None and h in known:
                    i = index[h] = len(program)
                    program.append((h, None, -1, -1))
                slots.append(i)
            if None in slots:
                # revisit g once its operands are in, the left one first
                stack.append(g)
                stack.extend(h for h, i in zip(operands[::-1], slots[::-1]) if i is None)
                continue
        index[g] = len(program)
        a, b = (*slots, -1, -1)[:2]
        program.append((g, op, a, b))
    return program


def fold_program(program: list[Instruction], step: Callable[..., _T]) -> list[_T]:
    """The value of every instruction of a program under ``step``, in
    order: each gets ``step(node, connective, *operand_values)``, where the
    operand values are the ones step gave its operands."""
    values: list = []
    push = values.append
    for node, op, a, b in program:
        if b >= 0:
            push(step(node, op, values[a], values[b]))
        elif a >= 0:
            push(step(node, op, values[a]))
        else:
            push(step(node, op))
    return values


def fold(f: Formula, step: Callable[..., _T]) -> _T:
    """The value of f under ``step``: each distinct subformula g, operands
    first, gets ``step(g, type(g), *operand_values)``, where the operand
    values are the ones step gave g's operands."""
    return fold_program(compile_formula(f), step)[-1]


# ---------------------------------------------------------------------------
# Printing and structural metrics

def _print_step(node: Formula, op: type, *operands: tuple[int, str]) -> tuple[int, str]:
    # the precedence and text of a node from those of its operands
    if op is Letter:
        return 6, node.name
    prec, prefix, infix, least = _NOTATION[op]
    texts = [t if p >= m else f"({t})" for (p, t), m in zip(operands, least)]
    return prec, prefix + infix.join(texts)


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(print_formula(f)) == f``.
    The text is written piece by piece off one explicit stack, so a long
    chain costs the memory of its text, not of every prefix of it."""
    pieces: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if type(g) is str:
            pieces.append(g)
        elif type(g) is Letter:
            pieces.append(g.name)
        else:
            operands = _operands(g)
            _, prefix, infix, least = _NOTATION[type(g)]
            items = [prefix]
            for k, (h, m) in enumerate(zip(operands, least)):
                if k:
                    items.append(infix)
                if type(h) is not Letter and _NOTATION[type(h)][0] < m:
                    items += ("(", h, ")")
                else:
                    items.append(h)
            stack += reversed(items)
    return "".join(pieces)


def _depth_step(node: Formula, op: type, *depths: int) -> int:
    return max(depths, default=0) + (op is Box or op is Diamond)


def modal_depth(f: Formula) -> int:
    return program_depth(compile_formula(f))


def program_depth(program: list[Instruction]) -> int:
    """The modal depth of a program's formula, the last instruction's."""
    return fold_program(program, _depth_step)[-1]


def letters(f: Formula) -> frozenset[str]:
    """The set of letter names occurring in f."""

    def step(g: Formula, op: type, *names: frozenset[str]) -> frozenset[str]:
        return frozenset((g.name,)) if op is Letter else frozenset().union(*names)

    return fold(f, step)


def ast_size(f: Formula) -> int:
    """The number of nodes of f as a tree (a repeated subformula counts
    once per occurrence)."""
    return fold(f, lambda g, op, *sizes: 1 + sum(sizes))


def _key_step(
    node: Formula, op: type, *operands: tuple[int, tuple[int, str]]
) -> tuple[int, tuple[int, str]]:
    # the tree size of a node, and its precedence and text as printed
    size = 1 + sum(s for s, _ in operands)
    return size, _print_step(node, op, *(printed for _, printed in operands))


def formula_key(f: Formula) -> tuple[int, str]:
    """Canonical ordering key: AST size first, rendered text second."""
    return program_keys(compile_formula(f))[-1]


def program_keys(program: list[Instruction]) -> list[tuple[int, str]]:
    """The ``formula_key`` of every instruction's formula, from one fold
    over the program."""
    return [(size, text) for size, (_, text) in fold_program(program, _key_step)]


# ---------------------------------------------------------------------------
# Bit-parallel boolean folding
#
# A mask is an integer whose bit i is the truth value in row i (a world of
# a model, a type of a type space, a row of a truth table); ``full`` has
# every row bit set.  A formula evaluated many times (once per candidate
# model of a search) is compiled once and its program run per candidate.


def run_program(
    program: Sequence[Instruction],
    full: int,
    leaf: Callable[[Formula, int | None], int],
) -> list[int]:
    """The mask of every instruction of a program, in order.  This is the
    one table of the boolean connectives; everything else comes from
    ``leaf(node, operand)``: the mask of a letter or of an instruction
    compiled as known (operand None), and of a box or diamond (operand:
    the mask of its operand).  Every mask lies within ``full``."""
    masks: list[int] = []
    push = masks.append
    for node, op, a, b in program:
        if op is And:
            push(masks[a] & masks[b])
        elif op is Or:
            push(masks[a] | masks[b])
        elif op is Not:
            push(full ^ masks[a])
        elif op is Implies:
            push((full ^ masks[a]) | masks[b])
        elif op is Iff:
            push(full ^ masks[a] ^ masks[b])
        elif op is Top:
            push(full)
        elif op is Bottom:
            push(0)
        else:
            push(leaf(node, masks[a] if a >= 0 else None))
    return masks


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
    for f, _, _, _ in enumeration_program(alphabet, depth, size_budget):
        yield f


def enumeration_program(
    alphabet: Iterable[str], depth: int, size_budget: int
) -> Iterator[Instruction]:
    """The formulas of ``enumerate_formulas``, in its order, as one
    program: each formula comes with its class and the program indices of
    its operands, which it follows, so that running the program gives
    every formula's mask at once."""
    atoms: list[Formula] = [Letter(a) for a in sorted(set(alphabet))]
    atoms += [Top(), Bottom()]
    # per size: (formula, modal depth, printed form, program index), in
    # text order; a new formula gets its depth and printed form from its
    # operands' by the steps of ``modal_depth`` and ``print_formula``
    Entry = tuple[Formula, int, tuple[int, str], int]
    by_size: dict[int, list[Entry]] = {}
    placed = 0  # instructions yielded so far

    def built(op: type, *operands: Entry) -> tuple[Instruction, int, tuple[int, str]]:
        formulas, depths, printed, slots = zip(*operands)
        f = op(*formulas)
        a, b = (*slots, -1)[:2]
        return (f, op, a, b), _depth_step(f, op, *depths), _print_step(f, op, *printed)

    for size in range(1, size_budget + 1):
        if size == 1:
            bucket = [((g, type(g), -1, -1), 0, _print_step(g, type(g))) for g in atoms]
        else:
            bucket = []
            for e in by_size.get(size - 1, ()):
                if not isinstance(e[0], (Not, Top, Bottom)):
                    bucket.append(built(Not, e))
                if e[1] < depth:
                    bucket += [built(Box, e), built(Diamond, e)]
            # binary operands are ordered by (size, text), so the left one
            # is never the larger
            for lsize in range(1, (size - 1) // 2 + 1):
                rsize = size - 1 - lsize
                for a in by_size.get(lsize, ()):
                    for b in by_size.get(rsize, ()):
                        if lsize < rsize or a[2][1] < b[2][1]:
                            bucket += [built(And, a, b), built(Or, a, b)]
        bucket.sort(key=lambda e: e[2][1])
        by_size[size] = [
            (instruction[0], d, printed, placed + k)
            for k, (instruction, d, printed) in enumerate(bucket)
        ]
        placed += len(bucket)
        yield from (instruction for instruction, _, _ in bucket)


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
