#!/usr/bin/env python
"""Quality-versus-cutoff dataset: binomial mixture of 1..10 photons, 1000
runs per cutoff, interaction time fixed at the optimum for the initial
mixture. The 1000 runs step once in lockstep and every cutoff is read off
that one pass; takes about a third of a second, mostly import time.
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
