#!/usr/bin/env python3
"""Cross-check every partition-function route on every shipped fixture.

For each fixture and a batch of random positive weight draws, prints the
worst relative deviation of each Pfaffian route from the brute-force curve
sum, as measured by ``pfising verify``.  Everything should sit at rounding
level.
"""
import argparse

from pfising.fixtures import fixture_names
from pfising.verify import verify_fixture


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name in fixture_names():
        report = verify_fixture(name, seed=args.seed, draws=args.draws)
        cols = "  ".join(f"{k}:{v:.2e}" for k, v in report.max_deviations.items())
        print(f"{name:16s} {cols}")


if __name__ == "__main__":
    main()
