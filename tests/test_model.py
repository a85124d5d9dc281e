import json
import random

import pytest
from hypothesis import given, strategies as st

from wamlkit.errors import InvalidArgumentError, ModelLoadError
from wamlkit.model import (
    NModel,
    PairImage,
    PointedModel,
    dump_json,
    json_text,
    load,
    make_model,
    model_to_dict,
    random_model,
    read_json,
    restrict_valuation,
    save,
    validate,
)
from wamlkit.errors import UnknownWorldError
from wamlkit.bisim import PairRelation, check_bisim, distinguishing_formula
from wamlkit.syntax import print_formula
from wamlkit.unravel import unravel

from conftest import fixture, random_sparse_model


def test_counterexample_fixture_validates():
    m = load(fixture("m2.json").read_bytes())
    assert validate(m) == []
    assert m.arity == 2
    assert m.relation == {("w", "w1", "w2"), ("w", "w3", "w4")}


def test_validate_reports_tuple_length():
    m = NModel(
        arity=3,
        worlds=("a", "b"),
        relation=frozenset({("a", "b", "a")}),
        valuation={"a": frozenset(), "b": frozenset()},
    )
    [violation] = validate(m)
    assert "length 3" in violation and "expected 4" in violation


def test_validate_reports_undeclared_world():
    m = NModel(
        arity=1,
        worlds=("a",),
        relation=frozenset({("a", "ghost")}),
        valuation={"a": frozenset()},
    )
    assert any("ghost" in v for v in validate(m))


def test_save_load_round_trip_is_canonical():
    raw = fixture("m2.json").read_bytes()
    assert save(load(raw)) == raw
    # canonical form is idempotent even from a scrambled source
    scrambled = json.dumps(
        {
            "arity": 2,
            "worlds": ["w4", "w", "w3", "w1", "w2"],
            "relation": [["w", "w3", "w4"], ["w", "w1", "w2"]],
            "valuation": {
                "w": [],
                "w1": ["p"],
                "w2": ["p"],
                "w3": ["q", "p"],
                "w4": ["q"],
            },
        }
    )
    assert save(load(scrambled)) == raw
    assert save(load(save(load(scrambled)))) == save(load(scrambled))


def test_load_keeps_file_world_order():
    text = json.dumps(
        {
            "arity": 1,
            "worlds": ["b", "a"],
            "relation": [],
            "valuation": {"a": [], "b": []},
        }
    )
    assert load(text).worlds == ("b", "a")


def test_cycle_fixture_relation():
    m = load(fixture("cycle.json").read_bytes())
    assert m.relation == {("w", "u", "t"), ("u", "t", "u"), ("t", "w", "v")}


def test_load_rejects_arity_zero():
    text = json.dumps({"arity": 0, "worlds": ["a"], "relation": [], "valuation": {"a": []}})
    with pytest.raises(ModelLoadError, match=">= 1"):
        load(text)


def test_load_rejects_malformed_json():
    with pytest.raises(ModelLoadError, match="malformed"):
        load(b"{nope")
    with pytest.raises(ModelLoadError, match="relation\\[0\\]"):
        load(json.dumps({"arity": 1, "worlds": ["a"], "relation": [[1]], "valuation": {"a": []}}))


def test_json_inputs_are_utf8_only():
    # model, proof and relation files go through one reader
    utf16 = '{"pairs": []}'.encode("utf-16")
    for what in ("model", "proof", "relation"):
        with pytest.raises(ModelLoadError, match=f"^{what} JSON is not UTF-8: "):
            read_json(utf16, what)
        with pytest.raises(ModelLoadError, match="^malformed JSON: "):
            read_json(b"{nope", what)
    assert read_json(b'{"pairs": [["w", "v"]]}', "relation") == {"pairs": [["w", "v"]]}


def _model_text(**changes):
    data = {"arity": 1, "worlds": ["a", "b"], "relation": [["a", "b"]],
            "valuation": {"a": [], "b": ["p"]}}
    return json.dumps({**data, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"valuation": {"a": [], "b": [], "ghost": ["p"]}},
         "invalid model: valuation mentions undeclared world 'ghost'"),
        ({"valuation": {"a": []}}, "invalid model: valuation missing for world 'b'"),
        ({"arity": True}, "arity must be an integer >= 1, got True"),
        ({"arity": 2.0}, "arity must be an integer >= 1, got 2.0"),
        ({"worlds": ["a", "b", 3]}, "worlds must be a list of strings"),
        ({"relation": [["a", "b"], ["a", 1]]}, "relation[1] must be a list of world-ids"),
        ({"relation": [["a", "b"], "ab"]}, "relation[1] must be a list of world-ids"),
        ({"valuation": {"a": [], "b": "p"}}, "valuation['b'] must be a list of letters"),
        ({"valuation": {"a": [], "b": [None]}}, "valuation['b'] must be a list of letters"),
        # the first violation leads; the valuation ones come last
        ({"worlds": ["a", "a"], "relation": [["a", "c"], ["b"]]},
         "invalid model: duplicate world 'a'; tuple ['a', 'c'] mentions undeclared "
         "world 'c'; tuple ['b'] has length 1, expected 2; tuple ['b'] mentions "
         "undeclared world 'b'; valuation mentions undeclared world 'b'"),
    ],
)
def test_load_rejects_each_violation_with_its_message(changes, message):
    with pytest.raises(ModelLoadError) as caught:
        load(_model_text(**changes))
    assert str(caught.value) == message


def test_load_accepts_a_total_valuation():
    m = load(_model_text())
    assert m.valuation == {"a": frozenset(), "b": frozenset({"p"})}
    assert m.relation == {("a", "b")}


def test_random_model_density_extremes():
    m = random_model(2, 1, 0.0, {"p"}, seed=7)
    assert m.worlds == ("w0",)
    assert m.relation == frozenset()
    m = random_model(2, 3, 1.0, set(), seed=7)
    assert len(m.relation) == 27


@pytest.mark.parametrize(
    "arity, num_worlds, density, message",
    [
        (0, 3, 0.5, "arity must be >= 1"),
        (-2, 3, 0.5, "arity must be >= 1"),
        (2, 0, 0.5, "num_worlds must be >= 1"),
        (2, 3, 1.5, "relation_density must be in [0, 1]"),
    ],
    ids=["arity-0", "arity-negative", "no-worlds", "density-over-1"],
)
def test_random_model_refuses_bad_arguments(arity, num_worlds, density, message):
    with pytest.raises(InvalidArgumentError) as caught:
        random_model(arity, num_worlds, density, {"p"}, seed=7)
    assert str(caught.value) == message


def test_random_model_deterministic():
    a = random_model(2, 4, 0.3, {"p", "q"}, seed=99)
    b = random_model(2, 4, 0.3, {"p", "q"}, seed=99)
    assert a == b
    c = random_model(2, 4, 0.3, {"p", "q"}, seed=100)
    assert a != c  # overwhelmingly likely; fixed seeds make it stable


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.floats(0, 1),
    st.integers(0, 10_000),
)
def test_random_model_always_validates(arity, num_worlds, density, seed):
    m = random_model(arity, num_worlds, density, {"p", "q"}, seed=seed)
    assert validate(m) == []


def test_restrict_valuation():
    m = load(fixture("m2.json").read_bytes())
    reduced = restrict_valuation(m, {"p"})
    assert reduced.valuation["w3"] == {"p"}
    assert reduced.valuation["w4"] == frozenset()
    assert restrict_valuation(m, {"p", "q"}) == m
    empty = restrict_valuation(m, set())
    assert all(not v for v in empty.valuation.values())


def test_pointed_model_requires_member_point():
    m = make_model(1, ["a"], [], {})
    assert PointedModel(m, "a").point == "a"
    with pytest.raises(UnknownWorldError):
        PointedModel(m, "b")


def test_models_are_immutable_records():
    m = NModel(arity=1, worlds=("a", "b"), relation=frozenset({("a", "b")}),
               valuation={"a": frozenset({"p"}), "b": frozenset()})
    assert m == make_model(1, ["a", "b"], [("a", "b")], {"a": ["p"]})
    assert m != make_model(1, ["a", "b"], [("a", "b")], {}) and m != (1,)
    for name in ("arity", "relation", "columns"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    with pytest.raises(AttributeError):
        del m.worlds
    # the cached views still fill in, past the refused assignment
    assert m.columns == ([0, 1, 1], [[1]]) and m.letter_masks == {"p": 1}
    assert PointedModel(point="b", model=m).point == "b"
    with pytest.raises(TypeError):
        NModel(1, ("a",), frozenset(), {}, "extra")
    with pytest.raises(TypeError):
        PointedModel(m, model=m)


def _distances(m, w):
    # world -> its number of steps from w, by breadth-first search over
    # the relation as it is stated
    dist, level = {w: 0}, {w}
    while level:
        step = dist[next(iter(level))] + 1
        level = {v for t in m.relation if t[0] in level for v in t[1:]} - dist.keys()
        dist.update(dict.fromkeys(level, step))
    return dist


def test_around_holds_the_worlds_within_reach_and_the_tuples_inside():
    rng = random.Random(31)
    strict = 0
    for _ in range(300):
        m = random_sparse_model(rng)
        w = rng.choice(m.worlds)
        dist = _distances(m, w)
        for depth in range(5):
            near = m.around(w, depth)
            within = {v for v, d in dist.items() if d <= depth}
            if within == set(m.worlds):
                assert near is m
                continue
            strict += 1
            assert near.arity == m.arity
            assert near.worlds == tuple(v for v in m.worlds if v in within)
            assert near.relation == {t for t in m.relation if dist.get(t[0], depth) < depth}
            assert near.valuation == {v: m.valuation[v] for v in near.worlds}
            assert validate(near) == []
            if depth == 0:
                assert near.worlds == (w,) and near.relation == frozenset()
    assert strict > 300


def test_around_returns_the_model_itself_when_every_world_is_reached():
    m = make_model(2, ["a", "b", "c"], [("a", "b", "b"), ("b", "c", "a")], {"a": ["p"]})
    assert m.around("a", 0).worlds == ("a",)
    assert m.around("a", 1).worlds == ("a", "b")
    assert m.around("a", 1).relation == {("a", "b", "b")}
    assert m.around("a", 2) is m and m.around("b", 1) is m
    assert m.around("c", 10**9).worlds == ("c",)
    # a point that is the only world is the whole model, at depth 0 too
    single = make_model(1, ["a"], [("a", "a")], {})
    assert single.around("a", 0) is single
    with pytest.raises(UnknownWorldError, match="unknown world 'x'"):
        m.around("x", 1)


class _CountedRelation(frozenset):
    # a relation that counts how often it is iterated
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_around_reads_the_relation_once_whatever_the_depth():
    # 10**5 tuples that share one slot set, and a chain of 60 worlds that
    # reaches them only at its end: a scan of the relation per level
    # would iterate it 50 times
    hub = [f"h{i}" for i in range(10**5)]
    chain = [f"c{i}" for i in range(60)]
    relation = [(h, "h0", "h1") for h in hub] + list(zip(chain, chain[1:], chain[1:]))
    relation.append((chain[-1], "h0", "h0"))
    m = NModel(
        arity=2,
        worlds=tuple(chain + hub),
        relation=_CountedRelation(relation),
        valuation={w: frozenset() for w in chain + hub},
    )
    for depth, reached in ((0, chain[:1]), (1, chain[:2]), (50, chain[:51]),
                           (10**6, chain + ["h0", "h1"])):
        _CountedRelation.iterations = 0
        assert m.around("c0", depth).worlds == tuple(reached)
        assert _CountedRelation.iterations == (depth > 0)


def test_model_to_dict_sorted():
    m = make_model(1, ["b", "a"], [("b", "a")], {"b": ["q", "p"]})
    d = model_to_dict(m)
    assert d["worlds"] == ["a", "b"]
    assert d["valuation"]["b"] == ["p", "q"]


def test_integer_view_matches_its_definition():
    for arity in (1, 2, 3):
        for seed in range(8):
            drawn = random_model(arity, 1 + seed % 5, 0.3 / arity, {"p", "q"}, seed=seed)
            # one more world, with no tuples and no letters
            m = make_model(
                arity, drawn.worlds + ("idle",), drawn.relation, drawn.valuation
            )

            def bit(w):
                return 1 << m.worlds.index(w)

            assert m.index == {w: m.worlds.index(w) for w in m.worlds}
            sources = {}
            for t in m.relation:
                slots = 0
                for v in t[1:]:
                    slots |= bit(v)
                sources[slots] = sources.get(slots, 0) | bit(t[0])
            assert sorted(m.slot_index) == sorted(sources.items())
            assert all(not s & bit("idle") for _, s in m.slot_index)
            for name in ("p", "q", "never"):
                want = sum(bit(w) for w in m.worlds if name in m.valuation[w])
                assert m.letter_masks.get(name, 0) == want
            assert "never" not in m.letter_masks
            assert m.slot_index is m.slot_index  # computed once per model


def test_positional_view_holds_each_worlds_successor_vectors():
    repeated = make_model(2, "abc", [("a", "b", "b"), ("a", "b", "c"), ("c", "a", "a")], {})
    models = [make_model(1, "ab", [], {}), make_model(1000, "ab", [], {}), repeated]
    for arity in (1, 2, 3):
        for seed in range(10):
            drawn = random_model(arity, 1 + seed % 6, 0.4 / arity, {"p"}, seed=100 + seed)
            models.append(make_model(arity, ("idle",) + drawn.worlds, drawn.relation, {}))
    for m in models:
        offsets, slots = m.columns
        assert len(offsets) == len(m.worlds) + 1 and offsets[-1] == len(m.relation)
        # no list per slot without tuples, whatever the arity
        assert len(slots) == (m.arity if m.relation else 0)
        for i, w in enumerate(m.worlds):
            want = sorted(t[1:] for t in m.relation if t[0] == w)
            rows = zip(*(column[offsets[i]:offsets[i + 1]] for column in slots))
            assert sorted(tuple(m.worlds[v] for v in row) for row in rows) == want, (m, w)
            assert m.vectors(w) == want, (m, w)
            assert sorted(tuple(m.worlds[v] for v in row) for row in m.rows(i)) == want
            # one mask per tuple, in ``rows`` order
            masks = m.row_masks((1).__lshift__)[i]
            assert masks == [sum(1 << v for v in set(row)) for row in m.rows(i)], (m, w)
        assert m.columns is m.columns  # computed once per model
    assert repeated.columns[0] == [0, 2, 2, 3]
    assert [list(models[1].rows(i)) for i in (0, 1)] == [[], []]
    assert models[1].row_masks((1).__lshift__) == [[], []]


def _listed(worlds):
    # one model, read from a file that lists its worlds in the given order
    relation = [["w2", "w1", "w1"], ["w2", "w10", "w10"], ["w2", "w1", "w10"],
                ["w1", "w2", "w2"], ["w10", "w1", "w2"], ["v", "v", "v"]]
    valuation = {"w1": ["p"], "w10": ["q"], "w2": [], "v": []}
    return load(json.dumps(
        {"arity": 2, "worlds": worlds, "relation": relation, "valuation": valuation}
    ))


def test_readers_of_the_vectors_see_them_in_string_order_whatever_the_listing():
    # every tuple of w2 fails forth against v's; by position the first
    # listing puts w10 before w1, by string w1 comes first
    def outputs(m):
        violation = check_bisim(PairRelation.from_pairs(m, m, [("w2", "v")], frozenset()))
        unravelled = unravel(m, "w2", 2).model
        return (
            (violation.pair, violation.condition, violation.witness_tuple),
            print_formula(distinguishing_formula(m, "w2", m, "v", {"p", "q"})),
            unravelled.worlds,
            save(unravelled),
        )

    want = outputs(_listed(["v", "w1", "w10", "w2"]))
    assert want[0] == (("w2", "v"), "forth", ("w2", "w1", "w1"))
    assert want[1] == "dia p"
    for worlds in (["w2", "v", "w10", "w1"], ["w1", "w10", "v", "w2"]):
        assert outputs(_listed(worlds)) == want, worlds


# strings with quotes, backslashes, control characters and non-ASCII text
_text = st.text(st.sampled_from('wv,:#%"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st.characters())


class _Str(str):
    """A str subclass: the writer and ``json.dumps`` encode it as a string."""


# cells of rows that are no plain strings: ints, None, bools, unhashable
# nested lists, and a str subclass
_cells = (
    _text | _text.map(_Str) | st.none() | st.booleans() | st.integers()
    | st.lists(_text, max_size=2)
)
# lists of rows: of strings at one width, mixed (ragged) widths, tuples, an
# empty row; of any cells; of width 1; a single row
_rows = (
    st.lists(st.lists(_text, max_size=3) | st.tuples(_text, _text), max_size=6)
    | st.lists(st.lists(_cells, min_size=1, max_size=3), min_size=1, max_size=6)
    | st.lists(st.tuples(_text) | st.tuples(_cells), min_size=1, max_size=6)
    | st.lists(st.lists(_text, min_size=1, max_size=3), min_size=1, max_size=1)
)
_leaves = st.none() | st.booleans() | st.integers() | st.floats() | _text | _rows
_json_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=25,
)


def _reference(value) -> bytes:
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


@given(_json_values)
def test_dump_json_is_the_bytes_of_json_dumps(value):
    assert dump_json(value) == _reference(value)


def test_dump_json_of_a_large_pair_list():
    # the shape of a ``bisim max`` payload on a 200-world cover with itself
    pairs = [(f"w{i}", f"w{j}") for i in range(200) for j in range(i % 4, 200, 4)]
    payload = {"schema": 1, "command": "bisim-max", "alphabet": ["p", "q"], "k": None,
               "pairs": pairs}
    assert len(pairs) == 10_000
    assert dump_json(payload) == _reference(payload)
    for shallow in ([], [[]], [["w"], []], [("w", "v")], {"": [["w"]], "a": {}}):
        assert dump_json(shallow) == _reference(shallow)


def _image(pairs) -> PairImage:
    # the image of a set of pairs: each left world in sorted order, with the
    # sorted tuple of its right partners
    partners: dict = {}
    for a, b in sorted(set(pairs)):
        partners.setdefault(a, []).append(b)
    return PairImage((a, tuple(bs)) for a, bs in partners.items())


_WRAPS = (
    lambda v: v,
    lambda v: {"schema": 1, "pairs": v, "k": None},
    lambda v: [{"pairs": v}, v],
)


@given(st.lists(st.tuples(_text, _text), max_size=8), st.sampled_from(_WRAPS))
def test_an_image_is_written_as_the_bytes_of_its_pairs(pairs, wrap):
    # at the top, as an object's value and inside a list: each indent
    image, rows = _image(pairs), [list(p) for p in sorted(set(pairs))]
    assert dump_json(wrap(image)) == _reference(wrap(rows))


@pytest.mark.parametrize("pairs", [
    [],
    [("w", "v")],
    [('w"0', "v\\1"), ("w\n2", "vé"), ('w"0', "v€😀"), ("w\n2", "v\\1"), ("é", "\n")],
    [(f"w{i}", f"w{j}") for i in range(200) for j in range(i % 4, 200, 4)],
])
def test_image_writer_edge_cases(pairs):
    # no pairs, one pair, quotes, backslashes, newlines and non-ASCII names,
    # and the 10,000 pairs of a 200-world cover with itself
    payload = {"schema": 1, "command": "bisim-max", "pairs": _image(pairs)}
    expected = _reference({**payload, "pairs": [list(p) for p in sorted(pairs)]})
    assert dump_json(payload) == expected
    assert json_text(payload) == expected.decode()


def test_only_an_image_is_written_as_pairs():
    # the type is checked exactly: a plain dict, or another dict subclass,
    # of the same items is still written as an object
    class Other(dict):
        pass

    items = {"w": ("u", "v"), "x": ("y",)}
    for value in (dict(items), Other(items)):
        assert dump_json(value) == _reference(value)
    assert dump_json(PairImage(items)) == _reference([["w", "u"], ["w", "v"], ["x", "y"]])
    assert dump_json(PairImage()) == _reference([])
