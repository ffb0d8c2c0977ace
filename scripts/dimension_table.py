#!/usr/bin/env python3
"""Print the operator-space dimension table for the bundled algebras."""

import argparse

from homlie.catalog import BUILTIN, load_builtin
from homlie.cli import _twist_power
from homlie.spaces import SpaceKind, project_component, solve_space


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=_twist_power, default=2)
    ap.add_argument("--lax", action="store_true",
                    help="drop the twist-commutation constraints")
    args = ap.parse_args()
    strict = not args.lax

    cells = [(k, th) for k in range(args.kmax + 1) for th in (0, 1)]
    for name in BUILTIN:
        spec = load_builtin(name)
        print(f"\n{name} (n={spec.n}, {'strict' if strict else 'lax'}; "
              f"first-component dimensions)")
        print("kind   " + " ".join(f"k={k},d={th}" for k, th in cells))
        for kind in SpaceKind:
            dims = [project_component(
                solve_space(spec, kind, k, th, strict), 0).dim
                for k, th in cells]
            print(f"{kind.value:<6} " + " ".join(f"{d:>7}" for d in dims))


if __name__ == "__main__":
    main()
