"""Seeded argv generators for the three benchmark workloads.

Each workload is an endless stream of *decks* of CLI argv lists. A deck
holds one group of packets per command, drawn by stratified sampling: the
amplitude range is cut into ``size`` strata per axis, packet i of group g
takes xi0 from stratum i and eta0 from stratum (5 i + 2 + g) mod size, and
every packet with i = g (mod 4) is circular (eta0 = xi0, the same string, so
the program sees exact equality). Successive groups visit every stratum
pair once, so xi0 and eta0 are uniform over the square, and every group
mixes small and large packets. The seed draws the position inside each
stratum and the chirality (uniform).

The stratum pattern is the same for every seed and a run measures a whole
number of decks, so each run sees the same mix of cheap and costly packets
and the seed moves the result only through the positions inside the
strata. The same (workload, seed) always yields the same argv sequence;
the program receives only these argv lists.
"""

from __future__ import annotations

import math
import random

# One line per workload: why it is in the benchmark.
WHY = {
    "oracle": (
        "verify: Gauss-Laguerre rule builds and projection quadrature do most "
        "of the op here and nothing in the other workloads"
    ),
    "orbit": (
        "evolve --format json on a 257^2 grid at 64 times: closed-form frames "
        "and spectral synthesis only, no quadrature"
    ),
    "ladder": (
        "coeffs CSV, coeffs JSON and observables at amplitudes 8-20: coefficient "
        "tables of 1e2 to 1e5 entries, serialization beside pure reductions"
    ),
}

# Amplitude ranges. The oracle range stops at 2.5: from about 2.8 upwards
# `verify` fails its coefficient-oracle and circular-support checks (the
# quadrature oracle uses fixed orders whatever the amplitude), and a
# benchmark workload must not contain failing operations. The failure is
# pinned by test_perfbench.test_live_oracle_failure_is_counted.
RANGES = {
    "oracle": (0.0, 2.5),
    "orbit": (0.0, 4.0),
    "ladder": (8.0, 20.0),
}

# Packets per group, one group per command in a deck: fine strata keep the
# mix of cheap and costly packets nearly the same from seed to seed.
_GROUP_SIZE = {"oracle": 12, "orbit": 12, "ladder": 12}
# Ops timed in fresh interpreters per run.
_COLD_OPS = {"oracle": 4, "orbit": 4, "ladder": 9}
# Seconds one deck takes at the parent commit of the benchmark's first
# version (x86-64, 2 cores). A run of S seconds measures round(S / nominal)
# whole decks (at least one), so every commit measured with the same S and
# seed runs exactly the same ops, however fast it is.
NOMINAL_DECK_S = {"oracle": 28.0, "orbit": 19.0, "ladder": 27.0}
_CHIRALITIES = ("retarded", "advanced")
_COMMANDS = {
    "oracle": (("verify",),),
    "orbit": (("evolve", "--grid-points", "257", "--tsteps", "64", "--format", "json"),),
    "ladder": (("coeffs",), ("coeffs", "--format", "json"), ("observables",)),
}


def _packet_group(rng: random.Random, lo: float, hi: float, size: int, g: int):
    """Group ``g``: ``size`` (xi0, eta0, chirality) triples over [lo, hi]^2."""
    width = (hi - lo) / size
    group = []
    for i in range(size):
        xi0 = f"{lo + width * (i + rng.random()):.4f}"
        eta0 = f"{lo + width * ((5 * i + 2 + g) % size + rng.random()):.4f}"
        if i % 4 == g % 4:
            eta0 = xi0
        group.append(["--xi0", xi0, "--eta0", eta0, "--chirality", rng.choice(_CHIRALITIES)])
    return group


def deck(workload: str, rng: random.Random, index: int) -> list[list[str]]:
    """Deck number ``index``: one packet group per command, the commands
    interleaved."""
    lo, hi = RANGES[workload]
    commands = _COMMANDS[workload]
    groups = [_packet_group(rng, lo, hi, _GROUP_SIZE[workload], index) for _ in commands]
    return [
        [command[0], *packets[i], *command[1:]]
        for i in range(_GROUP_SIZE[workload])
        for command, packets in zip(commands, groups)
    ]


def deck_count(workload: str, seconds: float, min_ops: int = 1) -> int:
    """Whole decks a run of ``seconds`` measures, at least ``min_ops`` ops."""
    ops_per_deck = _GROUP_SIZE[workload] * len(_COMMANDS[workload])
    return max(round(seconds / NOMINAL_DECK_S[workload]), math.ceil(min_ops / ops_per_deck), 1)


def cold_ops(workload: str, seed: int) -> list[list[str]]:
    """The argv lists timed in fresh interpreters: ops of the first deck at
    strata spread evenly over the range, the commands taking turns."""
    first = next(decks(workload, seed))
    turns = len(_COMMANDS[workload])
    size, count = _GROUP_SIZE[workload], _COLD_OPS[workload]
    strata = [(2 * k + 1) * size // (2 * count) for k in range(count)]
    return [first[turns * i + k % turns] for k, i in enumerate(strata)]


def decks(workload: str, seed: int):
    """Endless stream of decks for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield deck(workload, rng, index)
        index += 1
