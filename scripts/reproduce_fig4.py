#!/usr/bin/env python
"""Quality-versus-cutoff dataset: binomial mixture of 1..10 photons, 1000
runs per cutoff, interaction time fixed at the optimum for the initial
mixture. All 30000 runs step in lockstep; takes a second or two.
"""

import sys

from cavityqubits.cli import main

if __name__ == "__main__":
    sys.exit(
        main(
            [
                "fig4",
                "--nmax", "10",
                "--runs", "1000",
                "--cutoffs", "1..30",
                "--seed", "1",
                *sys.argv[1:],
            ]
        )
    )
