import copy
import gc
import hashlib
import pickle
import random
import re
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from wamlkit import proof, semantics
from wamlkit.errors import FormulaParseError
from wamlkit.model import make_model
from wamlkit.syntax import (
    MAX_NESTING,
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Letter,
    Not,
    Or,
    Top,
    ast_size,
    compile_formula,
    conj,
    disj,
    enumerate_formulas,
    enumeration_program,
    formula_key,
    letters,
    modal_depth,
    parse,
    print_formula,
    program_keys,
    run_program,
)

from conftest import random_formula


def test_parse_counterexample_left_formula():
    f = parse("box (~p | ~q) & dia q")
    assert f == And(
        Box(Or(Not(Letter("p")), Not(Letter("q")))), Diamond(Letter("q"))
    )


def test_parse_atom():
    assert parse("p") == Letter("p")
    assert parse("true") == Top()
    assert parse("false") == Bottom()


def test_implication_right_associative():
    assert parse("p -> q -> r") == Implies(
        Letter("p"), Implies(Letter("q"), Letter("r"))
    )
    assert parse("p <-> q <-> r") == Iff(Letter("p"), Iff(Letter("q"), Letter("r")))


def test_precedence_ladder():
    f = parse("~p & q | r -> s <-> t")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert f.left.left == Or(And(Not(Letter("p")), Letter("q")), Letter("r"))


def test_and_or_left_associative():
    assert parse("p & q & r") == And(And(Letter("p"), Letter("q")), Letter("r"))
    assert parse("p | q | r") == Or(Or(Letter("p"), Letter("q")), Letter("r"))


def test_unary_binds_tightest():
    assert parse("box p & dia q") == And(Box(Letter("p")), Diamond(Letter("q")))
    assert parse("~box p") == Not(Box(Letter("p")))
    assert parse("box ~p") == Box(Not(Letter("p")))


def test_parse_error_carries_position():
    with pytest.raises(FormulaParseError) as excinfo:
        parse("p & ?")
    assert excinfo.value.position == 4
    with pytest.raises(FormulaParseError):
        parse("p &")
    with pytest.raises(FormulaParseError):
        parse("(p")
    with pytest.raises(FormulaParseError):
        parse("p q")


def test_print_examples():
    assert print_formula(Box(Letter("p"))) == "box p"
    assert print_formula(And(Box(Letter("p")), Diamond(Letter("q")))) == "box p & dia q"
    assert print_formula(parse("box(~p|~q) & dia q")) == "box (~p | ~q) & dia q"


def test_print_disambiguates_associativity():
    assert print_formula(And(Letter("p"), And(Letter("q"), Letter("r")))) == "p & (q & r)"
    assert print_formula(Implies(Implies(Letter("p"), Letter("q")), Letter("r"))) == "(p -> q) -> r"


def test_round_trip_seeded():
    rng = random.Random(42)
    for _ in range(1000):
        f = random_formula(rng, ["p", "q", "r"], 3)
        assert parse(print_formula(f)) == f


_formulas = st.recursive(
    st.sampled_from([Top(), Bottom()])
    | st.builds(Letter, st.sampled_from(["p", "q", "r_1"])),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Box, sub),
        st.builds(Diamond, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=20,
)


@given(_formulas)
def test_round_trip_property(f):
    assert parse(print_formula(f)) == f


@given(_formulas)
def test_box_increments_modal_depth(f):
    assert modal_depth(Box(f)) == modal_depth(f) + 1
    assert modal_depth(Diamond(f)) == modal_depth(f) + 1


def test_modal_depth_examples():
    assert modal_depth(parse("p")) == 0
    assert modal_depth(parse("box dia p")) == 2
    assert modal_depth(parse("box (~p | ~q) & dia q")) == 1


def test_letters_examples():
    assert letters(parse("box (~p | ~q) & dia q")) == {"p", "q"}
    assert letters(parse("box (p & r) & box (p & ~r)")) == {"p", "r"}
    assert letters(Top()) == frozenset()


def test_enumerate_includes_required_formulas():
    fs = list(enumerate_formulas({"p"}, 0, 2))
    assert Letter("p") in fs
    assert Not(Letter("p")) in fs
    assert Box(Letter("p")) not in fs  # depth 0
    fs = list(enumerate_formulas({"p"}, 1, 3))
    assert Box(Letter("p")) in fs
    assert Diamond(Letter("p")) in fs


def test_enumerate_no_duplicates_and_sorted_by_size():
    fs = list(enumerate_formulas({"p", "q"}, 2, 5))
    assert len(fs) == len(set(fs))
    sizes = [ast_size(f) for f in fs]
    assert sizes == sorted(sizes)
    assert all(modal_depth(f) <= 2 for f in fs)


def _policy_counts(num_letters: int, depth: int, budget: int) -> int:
    """Independent recurrence for the enumeration count: formulas over the
    reduced basis with no double negation, no negated constant, and
    distinct, canonically ordered binary operands."""
    # per size: list of (depth -> count) for each class
    other: list[dict[int, int]] = [{} for _ in range(budget + 1)]  # letters/box/dia/and/or
    nots: list[dict[int, int]] = [{} for _ in range(budget + 1)]
    consts: list[dict[int, int]] = [{} for _ in range(budget + 1)]

    def add(table, size, d, count):
        table[size][d] = table[size].get(d, 0) + count

    add(other, 1, 0, num_letters)
    add(consts, 1, 0, 2)
    for size in range(2, budget + 1):
        for d, count in other[size - 1].items():
            add(nots, size, d, count)
        for table in (other, nots, consts):
            for d, count in table[size - 1].items():
                if d + 1 <= depth:
                    add(other, size, d + 1, 2 * count)  # box and dia
        # binary: unordered pairs of distinct formulas, two connectives
        totals = [
            {
                d: other[s].get(d, 0) + nots[s].get(d, 0) + consts[s].get(d, 0)
                for d in set(other[s]) | set(nots[s]) | set(consts[s])
            }
            for s in range(budget + 1)
        ]
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            if lsize > rsize:
                continue
            for da, ca in totals[lsize].items():
                for db, cb in totals[rsize].items():
                    d = max(da, db)
                    if lsize < rsize:
                        pairs = ca * cb
                    else:
                        pairs = ca * cb if da != db else ca * (ca - 1) // 2
                    if lsize == rsize and da != db and da > db:
                        continue  # counted once from the (db, da) side
                    add(other, size, d, 2 * pairs)
    return sum(
        count
        for size in range(1, budget + 1)
        for table in (other, nots, consts)
        for count in table[size].values()
    )


@pytest.mark.parametrize(
    "alphabet,depth,budget",
    [({"p"}, 1, 4), ({"p", "q"}, 2, 5), ({"p"}, 0, 5)],
)
def test_enumerate_count_matches_recurrence(alphabet, depth, budget):
    fs = list(enumerate_formulas(alphabet, depth, budget))
    assert len(fs) == _policy_counts(len(alphabet), depth, budget)


def test_enumerate_count_frozen():
    # canonical-policy count for one letter, depth 1, size budget 4,
    # cross-checked against the recurrence above
    assert len(list(enumerate_formulas({"p"}, 1, 4))) == 86


def test_enumerate_order_deterministic():
    a = [print_formula(f) for f in enumerate_formulas({"q", "p"}, 1, 4)]
    b = [print_formula(f) for f in enumerate_formulas({"p", "q"}, 1, 4)]
    assert a == b


def test_formula_key_orders_by_size_then_text():
    assert formula_key(Letter("p")) < formula_key(Not(Letter("p")))
    assert formula_key(Letter("p")) < formula_key(Letter("q"))


def test_program_keys_are_formula_keys():
    rng = random.Random(13)
    for _ in range(50):
        f = random_formula(rng, ["p", "q"], 3, fuel=12)
        program = compile_formula(f)
        want = [(ast_size(g), print_formula(g)) for g, _, _, _ in program]
        assert program_keys(program) == want
        assert formula_key(f) == want[-1]


def test_hash_is_tagged_with_the_class():
    # the nodes are kept alive together: a node freed before the next is
    # built could hand its identity on
    p, q = Letter("p"), Letter("q")
    top, bottom = Top(), Bottom()
    assert hash(top) != hash(bottom)
    unary = [c(p) for c in (Not, Box, Diamond)]
    assert len({hash(f) for f in unary}) == 3
    binary = [c(p, q) for c in (And, Or, Implies, Iff)]
    assert len({hash(f) for f in binary}) == 4
    formulas = set(enumerate_formulas({"p", "q"}, 2, 7))
    assert len(formulas) == 22_566
    assert len({hash(f) for f in formulas}) >= 22_000


def test_cached_hash_stays_in_its_process():
    import pickle

    f = parse("box (p & q) -> dia ~(p <-> true)")
    assert {f: 1}[parse(print_formula(f))] == 1
    # another process hashes differently, so the cache is not pickled
    assert b"_hash" not in pickle.dumps(f)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f)


def test_compile_lists_distinct_subformulas_operands_first():
    f = parse("(p & q) | ~(p & q) -> box p")
    program = compile_formula(f)
    nodes = [node for node, _, _, _ in program]
    assert nodes[-1] == f
    assert len(nodes) == len(set(nodes)) == 7
    for k, (node, op, a, b) in enumerate(program):
        assert op is type(node)
        operands = [i for i in (a, b) if i >= 0]
        assert all(i < k for i in operands)
        assert [nodes[i] for i in operands] == [
            getattr(node, name) for name in ("left", "right", "operand") if hasattr(node, name)
        ]
    # the enumeration's program: every formula once, in the enumeration's
    # order, after its operands
    program = list(enumeration_program({"p", "q"}, 2, 5))
    nodes = [node for node, _, _, _ in program]
    assert nodes == list(enumerate_formulas({"p", "q"}, 2, 5))
    for k, (node, op, a, b) in enumerate(program):
        assert op is type(node)
        operands = [i for i in (a, b) if i >= 0]
        assert all(i < k for i in operands)
        assert [nodes[i] for i in operands] == [
            getattr(node, name) for name in ("left", "right", "operand") if hasattr(node, name)
        ]


def test_compile_stops_at_known_subformulas():
    f = parse("box (p & q) & r")
    program = compile_formula(f, {parse("box (p & q)"): 0})
    assert [(node, op) for node, op, _, _ in program] == [
        (parse("box (p & q)"), None),
        (Letter("r"), Letter),
        (f, And),
    ]


def test_run_program_sends_letters_and_known_instructions_to_the_leaf():
    # rows: the four valuations of p (bit 0) and q (bit 1)
    f = parse("(p <-> q) | box (p & q) -> ~q & true")
    program = compile_formula(f, {parse("box (p & q)"), Letter("p")})
    columns = {Letter("p"): 0b1010, Letter("q"): 0b1100, parse("box (p & q)"): 0b0110}
    calls = []

    def leaf(g, operand):
        calls.append((g, operand))
        return columns[g]

    masks = run_program(program, 0b1111, leaf)
    assert masks[-1] == 0b0011
    # one leaf call per letter and per known instruction, none for p & q
    assert sorted(calls, key=repr) == sorted(((g, None) for g in columns), key=repr)
    assert {g: bits for (g, *_), bits in zip(program, masks) if g in columns} == columns


def test_parse_rejects_deep_nesting_at_the_first_excess_level():
    # the 101st prefix operator or parenthesis, and the operator that
    # makes the formula tree 101 high
    for text, position in [
        ("~" * 3000 + "p", 100),
        ("(" * 1200 + "p" + ")" * 1200, 100),
        ("dia (" * 60 + "p" + ")" * 60, 5 * 50),
        (" & ".join(["p"] * 3000), 4 * 100 + 2),
        # the 101st arrow from the right
        (" -> ".join(["p"] * 1001), 4497),
        (" <-> ".join(["p"] * 5001), 29396),
    ]:
        with pytest.raises(FormulaParseError) as exc:
            parse(text)
        assert exc.value.position == position


# The recursive-descent parser that ``parse`` replaced, kept as its
# reference.  It recurses once per arrow, so it is only run on inputs with
# a few hundred operators.
_REF_KEYWORDS = {"true", "false", "box", "dia"}
_REF_PREFIX = {"not": Not, "box": Box, "dia": Diamond}
_REF_TOKEN_RE = re.compile(
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


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "ident" and value in _REF_KEYWORDS:
                kind = value
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _RefParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # enclosing parentheses and prefix operators
        # id of a built node -> its height; every built node stays in the
        # tree, so no id is reused while parsing
        self.height = {}

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

    def enter(self, pos):
        self.open += 1
        if self.open > MAX_NESTING:
            raise FormulaParseError(f"nesting deeper than {MAX_NESTING}", pos)

    def node(self, cls, pos, *operands):
        height = 1 + max(self.height.get(id(g), 0) for g in operands)
        if height > MAX_NESTING:
            raise FormulaParseError(f"nesting deeper than {MAX_NESTING}", pos)
        f = cls(*operands)
        self.height[id(f)] = height
        return f

    def formula(self):
        left = self.implication()
        if self.peek()[0] == "iff":
            pos = self.take()[2]
            return self.node(Iff, pos, left, self.formula())
        return left

    def implication(self):
        left = self.disjunction()
        if self.peek()[0] == "implies":
            pos = self.take()[2]
            return self.node(Implies, pos, left, self.implication())
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.peek()[0] == "or":
            pos = self.take()[2]
            f = self.node(Or, pos, f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek()[0] == "and":
            pos = self.take()[2]
            f = self.node(And, pos, f, self.unary())
        return f

    def unary(self):
        kind, _, pos = self.peek()
        if kind not in _REF_PREFIX:
            return self.atom()
        self.take()
        self.enter(pos)
        f = self.node(_REF_PREFIX[kind], pos, self.unary())
        self.open -= 1
        return f

    def atom(self):
        kind, value, pos = self.take()
        if kind == "ident":
            return Letter(value)
        if kind == "true":
            return Top()
        if kind == "false":
            return Bottom()
        if kind == "lparen":
            self.enter(pos)
            f = self.formula()
            self.expect("rparen")
            self.open -= 1
            return f
        raise FormulaParseError(
            f"expected a formula, found {value or 'end of input'!r}", pos
        )


def _ref_parse(text):
    parser = _RefParser(_ref_tokenize(text))
    f = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise FormulaParseError(f"unexpected trailing input {value!r}", pos)
    return f


def _outcome(parser, text):
    # the formula, or the error's message (which ends in its position)
    try:
        return parser(text)
    except FormulaParseError as e:
        return str(e), e.position


_TOKENS = ["p", "q", "r_1", "true", "false", "(", ")", "~", "box", "dia", "&", "|", "->", "<->"]
_TOKEN_JUNK = ["P", "-", "<", "$", "\t"]


def _random_text(rng):
    """Formula text with fewer than 300 operators: a printed random
    formula with a few characters replaced by tokens or tokens inserted,
    a chain of infix operators around the nesting limit, or a token soup."""
    kind = rng.randrange(20)
    if kind < 10:
        text = print_formula(random_formula(rng, ["p", "q", "r_1"], 3, rng.randint(1, 25)))
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            at = rng.randint(0, len(text))
            token = rng.choice(_TOKENS + _TOKEN_JUNK)
            text = text[:at] + token + rng.choice([text[at + 1 :], " " + text[at:]])
        return text
    if kind == 10:
        operators = rng.sample(["&", "|", "->", "<->"], rng.randint(1, 2))
        operands = ["p", "q", "~p", "(p)", "box q"]
        pieces = [rng.choice(operands)]
        for _ in range(rng.randint(90, 130)):
            pieces += [rng.choice(operators), rng.choice(operands)]
        if rng.random() < 0.2:
            pieces[rng.randrange(len(pieces))] = rng.choice(_TOKENS + _TOKEN_JUNK)
        return " ".join(pieces)
    tokens = rng.choices(_TOKENS, k=rng.randint(0, 40))
    if rng.random() < 0.1:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_TOKEN_JUNK))
    return "".join(t + rng.choice(["", " ", " ", "  "]) for t in tokens)


def test_parse_matches_the_reference_parser():
    rng = random.Random(14)
    texts = [_random_text(rng) for _ in range(20_000)]
    texts += [print_formula(f) for f in enumerate_formulas({"p", "q"}, 2, 6)]
    kinds = set()
    for text in texts:
        expected = _outcome(_ref_parse, text)
        assert _outcome(parse, text) == expected, text
        kinds.add(" ".join(expected[0].split()[:2]) if isinstance(expected, tuple) else "formula")
    # formulas, and every message the parsers give
    assert kinds == {
        "formula", "unexpected character", "expected a", "expected 'rparen',",
        "nesting deeper", "unexpected trailing",
    }


# The recursive printer that ``print_formula`` replaced, kept as its reference.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def _prec(f):
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


def _render(f, min_prec):
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


def test_print_matches_the_reference_printer():
    for f in enumerate_formulas({"p", "q"}, 2, 7):
        assert print_formula(f) == _render(f, _PREC_IFF)
    rng = random.Random(5)
    formulas = [random_formula(rng, ["p", "q", "r"], 3, rng.randint(1, 30)) for _ in range(500)]
    assert {type(f) for g in formulas for f, _, _, _ in compile_formula(g)} >= {Implies, Iff}
    for f in formulas:
        assert print_formula(f) == _render(f, _PREC_IFF)


def test_enumeration_stream_frozen():
    text = "".join(print_formula(f) + "\n" for f in enumerate_formulas({"p", "q"}, 2, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "923adab525b803edb0e93b2b5075fe3d773702c687c1ce3d5df86b350c39787e"
    )


def _chain(wrap, n):
    f = Letter("p")
    for _ in range(n):
        f = wrap(f)
    return f


_LOOP = make_model(1, ["w"], [("w", "w")], {"w": ["p"]})

# the calls that must answer on formulas far deeper than the interpreter's
# recursion limit, built through the API
_CALLS = {
    "hash": lambda f: type(hash(f)),
    "compile_formula": lambda f: len(compile_formula(f)),
    "print_formula": print_formula,
    "modal_depth": modal_depth,
    "letters": letters,
    "ast_size": ast_size,
    "check": lambda f: semantics.check(_LOOP, "w", f),
    "is_tautology": proof.is_tautology,
}


def _deep(f, distinct, text, depth, names, size, value, tautology):
    return f, dict(zip(_CALLS, (int, distinct, text, depth, names, size, value, tautology)))


_DEEP = {
    "not-chain": _deep(_chain(Not, 2000), 2001, "~" * 2000 + "p", 0, {"p"}, 2001, True, False),
    "box-chain": _deep(
        _chain(Box, 2000), 2001, "box " * 2000 + "p", 2000, {"p"}, 2001, True, False
    ),
    "conj": _deep(
        conj([Implies(Letter(f"p{i % 5}"), Letter(f"p{i % 5}")) for i in range(3000)]),
        5 + 5 + 2999,
        " & ".join(f"(p{i % 5} -> p{i % 5})" for i in range(3000)),
        0,
        {f"p{i}" for i in range(5)},
        3 * 3000 + 2999,
        True,
        True,
    ),
}


def test_print_formula_of_a_long_chain_costs_the_memory_of_its_text():
    # a fold keeping the text of every prefix of the chain peaked at about
    # 500 times the text's length here (30 MB for 60 KB of text)
    arg = parse("(p & q | ~r) & (q -> box (p | r)) & dia ~(r <-> q)")
    parts = [And(arg, Letter(f"p{i}")) for i in range(1000)]
    f = disj(parts)
    tracemalloc.start()
    try:
        text = print_formula(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == " | ".join(print_formula(g) for g in parts)
    assert peak < 20 * len(text)


def test_equal_deep_formulas_compare_without_recursion():
    # equal formulas far deeper than the recursion limit, built twice
    for wrap in (Not, Box):
        a, b = _chain(wrap, 2000), _chain(wrap, 2000)
        assert a is b and a == b and not a != b
        assert len(compile_formula(And(a, b))) == 2002
    assert _chain(Not, 2000) != _chain(Box, 2000)
    left = conj([Letter(f"p{i % 7}") for i in range(2000)])
    assert left == conj([Letter(f"p{i % 7}") for i in range(2000)])
    assert left != conj([Letter(f"p{i % 7}") for i in range(1999)] + [Letter("q")])
    assert left != "p0" and left != None  # noqa: E711


def test_equal_formulas_are_one_node():
    for text in ("p", "true", "box p & q", "box (p & q) -> dia ~(p <-> true)"):
        f = parse(text)
        assert f is parse(text) and f is parse(print_formula(f))
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f


def test_nodes_are_immutable():
    f = parse("p & q")
    for name, value in (("left", Letter("r")), ("right", Letter("r")), ("_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    with pytest.raises(AttributeError):
        Letter("p").name = "q"
    with pytest.raises(AttributeError):
        del f.left
    assert print_formula(f) == "p & q" and f is And(Letter("p"), Letter("q"))


def _freed(build):
    # build a formula twice, drop it, and report whether it and its
    # letter left the table, with any error raised while it was freed
    errors = []
    hook, sys.unraisablehook = sys.unraisablehook, lambda u: errors.append(u.exc_type)
    try:
        f = build()
        assert f is build()
        refs = [weakref.ref(f), weakref.ref(Letter("unshared"))]
        del f
        gc.collect()
    finally:
        sys.unraisablehook = hook
    return [r() for r in refs] == [None, None], errors


def test_a_dropped_formula_leaves_the_table():
    assert _freed(lambda: parse("box (unshared & ~unshared) | dia unshared")) == (True, [])


def test_a_chain_past_the_recursion_limit_is_one_node_and_is_freed():
    def build():
        f = Letter("unshared")
        for _ in range(10**5):
            f = Box(f)
        return f

    assert _freed(build) == (True, [])


# the text of the dataclass-generated repr, which sorting by repr relies on
_REPRS = [
    ("p", "Letter(name='p')"),
    ("true", "Top()"),
    ("false", "Bottom()"),
    ("~p", "Not(operand=Letter(name='p'))"),
    ("box p", "Box(operand=Letter(name='p'))"),
    ("dia q", "Diamond(operand=Letter(name='q'))"),
    ("p & q", "And(left=Letter(name='p'), right=Letter(name='q'))"),
    ("p | q", "Or(left=Letter(name='p'), right=Letter(name='q'))"),
    ("p -> q", "Implies(left=Letter(name='p'), right=Letter(name='q'))"),
    ("p <-> q", "Iff(left=Letter(name='p'), right=Letter(name='q'))"),
    (
        "box (p & ~q) -> dia true",
        "Implies(left=Box(operand=And(left=Letter(name='p'), "
        "right=Not(operand=Letter(name='q')))), right=Diamond(operand=Top()))",
    ),
    (
        "~(p_1 | q2) <-> box dia false",
        "Iff(left=Not(operand=Or(left=Letter(name='p_1'), right=Letter(name='q2'))), "
        "right=Box(operand=Diamond(operand=Bottom())))",
    ),
]


def test_repr_keeps_the_dataclass_text_without_recursion():
    for text, expected in _REPRS:
        assert repr(parse(text)) == expected
    assert repr(Letter("it's")) == 'Letter(name="it\'s")'
    for wrap in (Not, Box):
        head = f"{wrap.__name__}(operand="
        assert repr(_chain(wrap, 2000)) == head * 2000 + "Letter(name='p')" + ")" * 2000


@pytest.mark.parametrize("call", list(_CALLS))
@pytest.mark.parametrize("name", sorted(_DEEP))
def test_deep_formula_calls_answer(name, call):
    f, expected = _DEEP[name]
    assert _CALLS[call](f) == expected[call]
