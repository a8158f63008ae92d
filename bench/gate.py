"""Acceptance criterion 9's per-set injection check as a stand-alone request.

For each seeded set A in the n-cube: draw A with ``random_subset_function``,
run the matching rounds, build the injective extension and check it with
``injection_is_valid``.  No CLI command reaches this pipeline at n = 24, so
the benchmark launches this script as one of its requests.  It calls only
names the acceptance test already imports, and derives each set's seed the
way the test does.

    python bench/gate.py --n 24 --sets 1 --seed 1

Prints one line per set; exits 0 when every injection is valid, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from cubemorph.cube_core import random_subset_function
from cubemorph.random_matching import build_injection, injection_is_valid, run_matching


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gate", description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--sets", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    all_valid = True
    for i, child in enumerate(np.random.SeedSequence(args.seed).spawn(args.sets)):
        rng = np.random.Generator(np.random.PCG64(child))
        a = random_subset_function(args.n, seed=int(rng.integers(0, 2 ** 62)))
        state = run_matching(a)
        valid = injection_is_valid(state, build_injection(state))
        all_valid &= valid
        print(f"set {i} n={args.n} valid={valid} rounds={state.rounds} "
              f"poor_unmatched={state.poor_unmatched_count()}")
    return 0 if all_valid else 1


if __name__ == "__main__":
    sys.exit(main())
