"""Workload inputs for the dyckpeaks benchmark.

Imports nothing from ``dyckpeaks``, so a set-up probe can time the import of
the library and the generation of inputs separately from this module.
"""

from __future__ import annotations

import random

# CLI workloads: one fresh process per command, fixed arguments.
CLI_ARGS = {
    "verify-default": ("verify",),
    "gf-table": ("table", "--method", "gf", "--n-max", "40", "--k-max", "5", "--format", "csv"),
}

# deep-count: single-count queries (kind, k, r, n) answered in one process.
KINDS = ("peak", "valley")
K_MAX = 8
R_MAX = 4
N_MIN, N_MAX = 100, 200
BLOCK = tuple((kind, k) for kind in KINDS for k in range(K_MAX + 1))
CYCLE = len(BLOCK) * (R_MAX + 1)  # queries that hold every (kind, k, r) once
QUERY_COUNT = 40 * CYCLE  # more than a run can answer; the stream repeats if exhausted

# Operations a traced run times, fixed so that its counts repeat exactly.
# deep-count traces one block, which holds every (kind, k) pair once.
TRACED_OPS = {"verify-default": 1, "gf-table": 2, "deep-count": len(BLOCK)}


def make_queries(seed: int, count: int = QUERY_COUNT) -> list[tuple[str, int, int, int]]:
    """The seeded query stream of deep-count.

    The stream is a balanced design in blocks of 18 queries. Block b pairs
    the j-th (kind, k) of BLOCK with r = (j + b) mod 5 and with n drawn from
    slice (5j + 7b) mod 18 of 18 equal slices of N_MIN..N_MAX, so kind, k, r
    and n are uniform over their ranges. The seed draws n within its slice
    and the order of the queries in each block. Every CYCLE = 5 blocks holds
    each (kind, k, r) triple once. Query cost depends mostly on kind, k, r
    and n, so a run of whole cycles has the same mix of costs under every
    seed, and its median latency does not move with the seed.
    """
    rng = random.Random(seed)
    slices = len(BLOCK)
    width = (N_MAX - N_MIN + 1) / slices
    out: list[tuple[str, int, int, int]] = []
    for b in range((count + slices - 1) // slices):
        block = [
            (kind, k, (j + b) % (R_MAX + 1), N_MIN + int((((5 * j + 7 * b) % slices) + rng.random()) * width))
            for j, (kind, k) in enumerate(BLOCK)
        ]
        rng.shuffle(block)
        out.extend(block)
    return out[:count]
