#!/usr/bin/env python3
"""Regenerate the bundled fixtures under fixtures/ from code.

The fixtures cover: the two 2-models with a non-aligned bisimulation
(nonaligned_*), the cyclic model used to demonstrate unraveling (cycle),
the interpolation counterexample bundles at arities 2 and 3 (m2/n2/z2/
proof2 and m3/n3/z3/proof3), and a relation from n2 to m2 that fails only
the back condition (z2_back).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wamlkit import interp, model, proof  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)

    nonaligned_left = model.make_model(
        2,
        ["w", "w1", "w2", "w3"],
        [("w", "w1", "w2"), ("w", "w2", "w3")],
        {"w": ["p"], "w1": ["p"], "w2": ["p"]},
    )
    nonaligned_right = model.make_model(
        2,
        ["v", "v1", "v2"],
        [("v", "v1", "v2")],
        {"v": ["p"], "v1": ["p"], "v2": ["p"]},
    )
    (FIXTURES / "nonaligned_left.json").write_bytes(model.save(nonaligned_left))
    (FIXTURES / "nonaligned_right.json").write_bytes(model.save(nonaligned_right))
    pairs = [["w", "v"], ["w1", "v1"], ["w2", "v1"], ["w2", "v2"]]
    (FIXTURES / "z_nonaligned.json").write_bytes(model.dump_json({"pairs": pairs}))

    cycle = model.make_model(
        2,
        ["w", "v", "u", "t"],
        [("w", "u", "t"), ("u", "t", "u"), ("t", "w", "v")],
        {},
    )
    (FIXTURES / "cycle.json").write_bytes(model.save(cycle))

    for n in (2, 3):
        bundle = interp.build_counterexample(n)
        (FIXTURES / f"m{n}.json").write_bytes(model.save(bundle.left.model))
        (FIXTURES / f"n{n}.json").write_bytes(model.save(bundle.right.model))
        pairs = [list(p) for p in bundle.z.pairs]
        (FIXTURES / f"z{n}.json").write_bytes(model.dump_json({"pairs": pairs}))
        (FIXTURES / f"proof{n}.json").write_bytes(
            proof.save_script(bundle.refutation)
        )

    # the converse of z2 without (v2, w3): forth holds at (v, w), and w's
    # tuple (w3, w4) has no answer back, since v2 is related to neither
    pairs = [["v", "w"], ["v1", "w1"], ["v1", "w3"], ["v2", "w2"]]
    (FIXTURES / "z2_back.json").write_bytes(model.dump_json({"pairs": pairs}))

    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
