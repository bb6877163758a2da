"""Set-up probe: import pairrank and build a replicate's inputs, then say "ready".

Started in a fresh interpreter by run.py, which times it from process start
to the "ready" line. Usage: python3 perfbench/probe_setup.py N, where N is
the distribution size to build (0 imports only).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import pairrank  # noqa: E402,F401
from pairrank import voters  # noqa: E402
from workloads import EPSILON_RANGE, MODE, N_VOTERS, SIGMA_RANGE  # noqa: E402

n_items = int(sys.argv[1])
if n_items:
    rng = np.random.default_rng(0)
    dist = voters.make_distribution("exponential", n_items)
    pool = voters.sample_voter_pool(N_VOTERS, SIGMA_RANGE, EPSILON_RANGE, rng)
    voters.SimulatedElectorate(dist, pool, MODE, rng)
print("ready", flush=True)
