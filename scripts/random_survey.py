#!/usr/bin/env python3
"""Sample random validated algebras and survey their operator spaces.

Useful for spotting law violations or interesting dimension patterns
beyond the bundled corpus.
"""

import argparse
import random

from homlie.cli import _twist_power
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    project_component,
    solve_space,
)


def _basis_size(text: str) -> int:
    """argparse type of --nmax: an integer >= 2, as a free draw needs two
    basis elements."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=_twist_power, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nmax", type=_basis_size, default=3)
    ap.add_argument("--kmax", type=_twist_power, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    for idx, spec in enumerate(sample_algebras(rng, args.count, args.nmax)):
        dims = {kind.value: project_component(
            solve_space(spec, kind, 0, 0), 0).dim for kind in SpaceKind}
        chain = check_inclusion_chain(spec, args.kmax)
        laws = check_bracket_laws(spec, args.kmax)
        print(f"#{idx:<3} {spec.name:<14} n={spec.n} degrees={list(spec.degrees)} "
              f"dims(k=0,even)={dims} "
              f"chain={'ok' if chain.ok else 'VIOLATED'} "
              f"laws={'ok' if laws.ok else 'VIOLATED'}")
        for rep in (chain, laws):
            for c in rep.checks:
                if c.status == "fail":
                    print(f"     fail: {c.name} {c.detail}")


if __name__ == "__main__":
    main()
