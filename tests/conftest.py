import random
from pathlib import Path

from wamlkit.model import NModel, make_model
from wamlkit.syntax import random_formula  # noqa: F401  (re-exported for tests)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> Path:
    return FIXTURES / name


def random_sparse_model(rng: random.Random) -> NModel:
    """A seeded model of arity 1-3 and 1-9 worlds, each a dead end or the
    source of 1-3 tuples over random worlds: self-loops, repeated slots
    and worlds out of a point's reach all occur."""
    arity = rng.randint(1, 3)
    worlds = [f"w{i}" for i in range(rng.randint(1, 9))]
    relation = [
        (u, *rng.choices(worlds, k=arity))
        for u in worlds
        if rng.random() < 0.7
        for _ in range(rng.randint(1, 3))
    ]
    valuation = {u: [a for a in "pq" if rng.random() < 0.5] for u in worlds}
    return make_model(arity, worlds, relation, valuation)
