"""Finite n-models: construction, validation, JSON round-trip, random generation.

An n-model has a nonempty ordered world list, an (n+1)-ary accessibility
relation (each tuple pairs a source world with an n-vector of successors)
and a total valuation.  The order of the ``worlds`` tuple fixes iteration
order everywhere downstream; the JSON canonical form sorts everything.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatchError,
    InvalidArgumentError,
    ModelLoadError,
    UnknownWorldError,
)
from .syntax import Record


class NModel(Record):
    # worlds: a tuple; relation: a frozenset of (arity + 1)-tuples;
    # valuation: world -> frozenset of the letters true there
    __match_args__ = ("arity", "worlds", "relation", "valuation")

    def around(self, w: str, depth: int) -> NModel:
        """The neighbourhood of w that decides a formula of modal depth
        ``depth`` there: the worlds within ``depth`` steps of w, in the
        model's order, their valuations, and the tuples of the worlds
        within ``depth - 1`` steps.  A box or diamond nested j deep in the
        formula is read at worlds within j steps, over all of their
        tuples, so the formula has the same truth at w here as in the
        model.  When every world is within reach, the model itself.

        The relation is grouped by source once, and each level reads only
        the tuples of its own worlds, so the cost is the relation's size
        plus the neighbourhood's, whatever the depth.  Unlike ``columns``,
        it builds no view of the whole model."""
        if w not in self.valuation:
            raise UnknownWorldError(f"unknown world {w!r}")
        sourced: dict[str, list[tuple[str, ...]]] = {}
        if depth > 0:
            for t in self.relation:
                sourced.setdefault(t[0], []).append(t)
        reached, level = {w}, {w}
        kept: list[tuple[str, ...]] = []
        for _ in range(depth):
            tuples = [t for u in level for t in sourced.get(u, ())]
            kept += tuples
            level = set().union(*tuples) - reached
            reached |= level
            # once a level adds no world, no later level adds anything
            if not level or len(reached) == len(self.worlds):
                break
        if len(reached) == len(self.worlds):
            return self
        worlds = filter(reached.__contains__, self.worlds)
        return make_model(self.arity, worlds, kept, self.valuation)

    # The integer view of the model: a set of worlds is a mask whose bit i
    # stands for ``worlds[i]``, and a tuple is its source bit plus its slot
    # set, the mask of the worlds in its successor vector.

    @cached_property
    def index(self) -> dict[str, int]:
        """World -> its position in ``worlds``, the bit it owns in a mask."""
        return {w: i for i, w in enumerate(self.worlds)}

    @cached_property
    def columns(self) -> tuple[list[int], list[list[int]]]:
        """The relation by position: world i's tuples are the rows
        ``offsets[i]:offsets[i + 1]``, in no fixed order, and slot k's
        column holds each row's k-th successor position.  With no tuples
        there is no column, whatever the arity."""
        index = self.index
        columns = [list(map(index.__getitem__, c)) for c in zip(*self.relation)]
        sources, *slots = columns or [[]]
        order = sorted(range(len(sources)), key=sources.__getitem__)
        counts = [0] * len(self.worlds)
        for i in sources:
            counts[i] += 1
        offsets = list(itertools.accumulate(counts, initial=0))
        return offsets, [list(map(column.__getitem__, order)) for column in slots]

    def rows(self, i: int) -> Iterator[tuple[int, ...]]:
        """World i's tuples, each as the positions of its successors, in
        ``columns``' row order."""
        offsets, slots = self.columns
        return zip(*(column[offsets[i]:offsets[i + 1]] for column in slots))

    def vectors(self, w: str) -> list[tuple[str, ...]]:
        """The successor vectors of w's tuples, in sorted order: the order
        that fixes a bisimulation violation's tuple, a certificate's bytes
        and an unraveling's worlds."""
        worlds = self.worlds
        return sorted(tuple(map(worlds.__getitem__, row)) for row in self.rows(self.index[w]))

    def row_masks(self, bit: Callable[[int], int]) -> list[list[int]]:
        """Per world, the masks of its tuples in ``rows`` order: each the OR
        of ``bit(v)`` over the positions v of the tuple's successors."""
        offsets, slots = self.columns
        masks = [0] * offsets[-1]
        for column in slots:
            masks = list(map(operator.or_, masks, map(bit, column)))
        return list(map(masks.__getitem__, map(slice, offsets, offsets[1:])))

    @cached_property
    def slot_index(self) -> list[tuple[int, int]]:
        """Each distinct slot set of the relation, with the mask of the
        worlds having a tuple of that slot set."""
        return _slot_index(
            (1 << i, slots)
            for i, row in enumerate(self.row_masks((1).__lshift__))
            for slots in row
        )

    @cached_property
    def letter_masks(self) -> dict[str, int]:
        """Letter -> mask of the worlds where it holds; a letter that holds
        nowhere has no entry."""
        masks: dict[str, int] = {}
        for i, w in enumerate(self.worlds):
            for name in self.valuation[w]:
                masks[name] = masks.get(name, 0) | 1 << i
        return masks


def _slot_index(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Group tuples given as (source world bit, slot set) pairs: each
    distinct slot set with the mask of the worlds having a tuple of that
    slot set."""
    sources: dict[int, int] = {}
    for source, slots in edges:
        sources[slots] = sources.get(slots, 0) | source
    return list(sources.items())


class PointedModel(Record):
    __match_args__ = ("model", "point")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if self.point not in self.model.worlds:
            raise UnknownWorldError(f"point {self.point!r} not among the worlds")


def make_model(
    arity: int,
    worlds: Iterable[str],
    relation: Iterable[tuple[str, ...]],
    valuation: Mapping[str, Iterable[str]],
) -> NModel:
    """Normalize plain containers into an NModel; missing valuation entries
    default to the empty set.  Every NModel is built here."""
    world_tuple = tuple(worlds)
    val = {w: frozenset(valuation.get(w, ())) for w in world_tuple}
    return NModel(
        arity=arity,
        worlds=world_tuple,
        relation=frozenset(map(tuple, relation)),
        valuation=val,
    )


def require_same_arity(left: NModel, right: NModel) -> None:
    """Refuse a pair of models of different arities."""
    if left.arity != right.arity:
        raise ArityMismatchError(f"arities differ: {left.arity} vs {right.arity}")


def validate(m: NModel) -> list[str]:
    """Well-formedness check; the empty list means the model is valid."""
    return _violations(m.arity, m.worlds, m.relation, m.valuation)


def _violations(
    arity: int,
    worlds: Sequence[str],
    relation: Iterable[tuple[str, ...]],
    valuation: Collection[str],
) -> list[str]:
    # every violation, in the order validate reports them
    violations = []
    if arity < 1:
        violations.append(f"arity must be >= 1, got {arity}")
    if not worlds:
        violations.append("worlds must be nonempty")
    seen = set()
    for w in worlds:
        if w in seen:
            violations.append(f"duplicate world {w!r}")
        seen.add(w)
    for t in sorted(relation):
        if len(t) != arity + 1:
            violations.append(
                f"tuple {list(t)} has length {len(t)}, expected {arity + 1}"
            )
        for v in t:
            if v not in seen:
                violations.append(f"tuple {list(t)} mentions undeclared world {v!r}")
    for w in sorted(valuation):
        if w not in seen:
            violations.append(f"valuation mentions undeclared world {w!r}")
    for w in worlds:
        if w not in valuation:
            violations.append(f"valuation missing for world {w!r}")
    return violations


# ---------------------------------------------------------------------------
# JSON round-trip

def model_to_dict(m: NModel) -> dict:
    return {
        "arity": m.arity,
        "worlds": sorted(m.worlds),
        "relation": [list(t) for t in sorted(m.relation)],
        "valuation": {w: sorted(m.valuation[w]) for w in sorted(m.worlds)},
    }


def _all_of(cls: type, items: list) -> bool:
    # isinstance for every item; the set of exact types settles the usual
    # case in one pass at C speed
    return set(map(type, items)) <= {cls} or all(isinstance(x, cls) for x in items)


def _lists_of_strings(items: list) -> bool:
    return _all_of(list, items) and _all_of(str, list(itertools.chain.from_iterable(items)))


def json_arity(arity: object) -> int:
    """The arity a JSON file declares: an integer >= 1, and no bool."""
    if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
        raise ModelLoadError(f"arity must be an integer >= 1, got {arity!r}")
    return arity


def model_from_dict(data: object) -> NModel:
    """The model a JSON object describes: every tuple over declared worlds
    with the declared arity, and a valuation entry for each world and for
    nothing else."""
    if not isinstance(data, dict):
        raise ModelLoadError("model JSON must be an object")
    for key in ("arity", "worlds", "relation", "valuation"):
        if key not in data:
            raise ModelLoadError(f"model JSON missing key {key!r}")
    arity = json_arity(data["arity"])
    worlds = data["worlds"]
    if not isinstance(worlds, list) or not _all_of(str, worlds):
        raise ModelLoadError("worlds must be a list of strings")
    relation = data["relation"]
    if not isinstance(relation, list):
        raise ModelLoadError("relation must be a list of tuples")
    # every declared world is a string, so one pass over the cells shows
    # that each is a declared world-id; a failure, an unhashable cell's
    # TypeError included, falls back to the row search for its message
    declared = set(worlds)
    try:
        cells_declared = _all_of(list, relation) and declared.issuperset(
            itertools.chain.from_iterable(relation)
        )
    except TypeError:
        cells_declared = False
    if not cells_declared and not _lists_of_strings(relation):
        i = next(i for i, t in enumerate(relation) if not _lists_of_strings([t]))
        raise ModelLoadError(f"relation[{i}] must be a list of world-ids")
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise ModelLoadError("valuation must be an object")
    if not _lists_of_strings(list(valuation.values())):
        w = next(w for w, ls in valuation.items() if not _lists_of_strings([ls]))
        raise ModelLoadError(f"valuation[{w!r}] must be a list of letters")
    if not (
        cells_declared
        and len(declared) == len(worlds) > 0
        and set(map(len, relation)) <= {arity + 1}
        and valuation.keys() == declared
    ):
        violations = _violations(arity, worlds, set(map(tuple, relation)), valuation)
        raise ModelLoadError("invalid model: " + "; ".join(violations))
    return make_model(arity, worlds, relation, valuation)


def read_json(text: bytes | str, what: str) -> object:
    """The JSON value of a model, proof or relation file (``what``):
    bytes must be UTF-8, and anything else raises ModelLoadError."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as e:
        raise ModelLoadError(f"{what} JSON is not UTF-8: {e}") from e
    # a JSONDecodeError, arrays nested too deep, or too many digits
    except (ValueError, RecursionError) as e:
        raise ModelLoadError(f"malformed JSON: {e}") from e


class PairImage(dict):
    """A relation as its image: each left world, in sorted order, maps to the
    sorted nonempty tuple of its right partners.  Written as its pairs."""


def json_text(value: object) -> str:
    """What ``json.dumps`` gives with ``indent=2`` and ``sort_keys=True``, and
    a newline (ASCII; tuples and a PairImage's pairs as arrays; string keys).
    The pieces of the text go to one list, joined once at the end."""
    pieces: list[str] = []
    _json_text(value, "", pieces)
    pieces.append("\n")
    return "".join(pieces)


def dump_json(value: object) -> bytes:
    """The canonical JSON file of a value, as ``read_json`` reads it back."""
    return json_text(value).encode()


# leaves go through json's C encoder; with ``indent`` set, ``json.dumps``
# runs its pure-Python encoder over the whole value
_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def _json_text(value: object, indent: str, out: list[str]) -> None:
    # append the canonical text of a value whose first line is at ``indent``
    inner = indent + "  "
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif not isinstance(value, (list, tuple, dict)):
        out.append(_encode_scalar(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) and type(value) is not PairImage else "[]")
    elif type(value) is PairImage:
        _image_text(value, indent, out)
    elif isinstance(value, dict):
        out.append("{\n" + inner)
        for key, item in sorted(value.items()):
            out.append(_encode_str(key) + ": ")
            _json_text(item, inner, out)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "}"
    else:
        out.append("[\n" + inner)
        for item in value:
            _json_text(item, inner, out)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "]"


def _image_text(image: PairImage, indent: str, out: list[str]) -> None:
    # append the text of a nonempty image's pairs: each distinct partner tuple's
    # cells are encoded once, then joined by a separator holding the left world's cell
    inner, cell = indent + "  ", indent + "    "
    close = "\n" + inner + "],\n" + inner
    cells = {right: list(map(_encode_str, right)) for right in set(image.values())}
    out.append("[\n" + inner)
    for left, right in image.items():
        row = "[\n" + cell + _encode_str(left) + ",\n" + cell
        out += row + (close + row).join(cells[right]), close
    out[-1] = "\n" + inner + "]\n" + indent + "]"


def load(text: bytes | str) -> NModel:
    """Parse model JSON; the file's world order becomes the model's order."""
    return model_from_dict(read_json(text, "model"))


def save(m: NModel) -> bytes:
    """Serialize to canonical JSON: worlds, tuples and letter lists sorted."""
    return dump_json(model_to_dict(m))


# ---------------------------------------------------------------------------
# Generation and reducts

def random_model(
    arity: int,
    num_worlds: int,
    relation_density: float,
    alphabet: Iterable[str],
    seed: int,
) -> NModel:
    """Seed-deterministic random model: each candidate (arity+1)-tuple is
    kept with probability ``relation_density``, each letter holds at each
    world with probability 1/2."""
    if arity < 1:
        raise InvalidArgumentError("arity must be >= 1")
    if num_worlds < 1:
        raise InvalidArgumentError("num_worlds must be >= 1")
    if not 0 <= relation_density <= 1:
        raise InvalidArgumentError("relation_density must be in [0, 1]")
    rng = random.Random(seed)
    worlds = tuple(f"w{i}" for i in range(num_worlds))
    relation = [
        t
        for t in itertools.product(worlds, repeat=arity + 1)
        if rng.random() < relation_density
    ]
    letters = sorted(set(alphabet))
    valuation = {
        w: [l for l in letters if rng.random() < 0.5] for w in worlds
    }
    return make_model(arity, worlds, relation, valuation)


def restrict_valuation(m: NModel, alphabet: Iterable[str]) -> NModel:
    """The same model with every valuation intersected with ``alphabet``."""
    keep = frozenset(alphabet)
    return make_model(m.arity, m.worlds, m.relation, {w: m.valuation[w] & keep for w in m.worlds})
