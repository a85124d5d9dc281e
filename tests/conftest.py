from pathlib import Path

from wamlkit.syntax import random_formula  # noqa: F401  (re-exported for tests)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> Path:
    return FIXTURES / name
