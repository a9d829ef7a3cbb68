"""Workload definitions for the `vsb bench` benchmark.

A workload is a `vsb bench` config without its master seed. One round runs
that config once; round ``r`` of a run with benchmark seed ``s`` gets the
master seed ``round_seed(workload, s, r)``, so a run averages over as many
fresh instances as fit in its time and the same seed always gives the same
inputs. Sizes are chosen so that one round takes a few seconds on one core:
the benchmark makes up to 70 runs of about 35 s each.
"""

from __future__ import annotations

import hashlib

WORKLOADS = {
    # The paper's headline baseline: order search by variance against a
    # random order, on raw and standardized copies. Nearly all time goes to
    # the lasso path in learners.lasso_bic_parents. Eight jobs per round keep
    # the two workers of the 2-worker run evenly loaded.
    "order-search": {
        "graphs": [{"model": "ER", "d": 10, "k": 2}, {"model": "SF", "d": 10, "k": 2}],
        "noise": ["gaussian-ev"],
        "learners": [{"name": "sortnregress"}, {"name": "randomregress"}],
        "repetitions": 4,
        "omegas": [0.3],
    },
    # Continuous learners with the favorable threshold and the
    # equivalence-class metrics. Nearly all time goes to contlearn.golem_fit
    # (Adam steps, the matrix exponential). notears is left out: under the
    # default BLAS threads its 2-worker time varies several-fold from run to
    # run (see README.md). d = 6 bounds a class at 720 members, far below
    # the enumeration cap; 5,000 Adam steps (half the default) keep a round
    # to about 10 s without changing the cost of a step.
    "continuous": {
        "graphs": [{"model": "ER", "d": 6, "k": 1}],
        "noise": ["gaussian-ev", "gaussian-nv"],
        "learners": [
            {"name": "golem-ev", "settings": {"iterations": 5000}},
            {"name": "golem-nv", "settings": {"iterations": 5000}},
        ],
        "repetitions": 2,
        "omegas": [0.3],
        "favorable": True,
        "mec_metrics": True,
    },
    # Fit-free learners at d = 50, so scoring dominates: SID by the graphical
    # criterion (d-separation), thresholding and record writing. Three
    # thresholds expose scores recomputed for learners that ignore them.
    "scoring": {
        "graphs": [{"model": "ER", "d": 40, "k": 2}, {"model": "SF", "d": 40, "k": 2}],
        "noise": ["gaussian-ev", "gaussian-nv"],
        "learners": [{"name": "empty"}, {"name": "varsort-full"}],
        "repetitions": 2,
        "omegas": [0.1, 0.3, 0.5],
        "favorable": True,
    },
}

# The paper's relative claims, checked on the medians of all records of a
# run: (learner, regime) scores a lower median SID than (learner, regime).
CLAIMS = {
    "order-search": [
        (("sortnregress", "raw"), ("sortnregress", "standardized")),
        (("sortnregress", "raw"), ("randomregress", "raw")),
    ],
    "continuous": [
        (("golem-ev", "raw"), ("golem-ev", "standardized")),
    ],
    "scoring": [],
}


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """Master seed of one round, derived from the benchmark seed alone."""
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def round_config(workload: str, seed: int, round_index: int) -> dict:
    return {**WORKLOADS[workload], "seed": round_seed(workload, seed, round_index)}
