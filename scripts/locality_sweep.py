#!/usr/bin/env python3
"""Exploratory sweep: how deep must a bounded unraveling be before it
agrees with the original pointed model on a formula?

For random pointed models and random formulas, report the least depth at
which agreement starts and stays within the sweep, next to the formula's
modal depth (which is always sufficient).  Nothing here asserts a minimal
bound; the output is labeled EXPERIMENT throughout.

Usage: python3 scripts/locality_sweep.py [--samples N] [--max-depth L] [--seed S]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wamlkit import syntax, unravel  # noqa: E402
from wamlkit.errors import BudgetExceededError  # noqa: E402
from wamlkit.model import random_model  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=30)
    parser.add_argument("--max-depth", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print("EXPERIMENT least stable agreement depth vs modal depth")
    slack = []
    exceeded = 0  # samples whose unraveling is over the node or tuple budget
    for i in range(args.samples):
        m = random_model(2, rng.randint(2, 4), rng.uniform(0.05, 0.25), {"p", "q"}, seed=i)
        w = m.worlds[rng.randrange(len(m.worlds))]
        nesting = rng.randint(1, args.max_depth)
        f = syntax.random_formula(rng, ["p", "q"], nesting)
        depth = syntax.modal_depth(f)
        try:
            least = unravel.locality_sweep(m, w, f, args.max_depth).least_stable_depth
        except BudgetExceededError as e:
            exceeded += 1
            verdict = f"budget exceeded ({e})"
        else:
            if least is None:
                verdict = f"no stable depth within {args.max_depth}"
            else:
                slack.append(depth - least)
                verdict = f"stable from {least}"
        print(
            f"EXPERIMENT sample {i:3d}: modal depth {depth}, {verdict} "
            f"({syntax.print_formula(f)})"
        )
    if slack:
        print(
            "EXPERIMENT mean slack (modal depth - least stable depth): "
            f"{sum(slack) / len(slack):.2f} over {len(slack)} settled samples"
        )
    if exceeded:
        print(
            f"EXPERIMENT budget exceeded in {exceeded} of {args.samples} samples "
            "(no verdict for them)"
        )
    print("EXPERIMENT note: agreement at the modal depth is guaranteed;")
    print("EXPERIMENT note: anything earlier is opportunistic, not asserted.")


if __name__ == "__main__":
    main()
