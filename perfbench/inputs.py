"""Seeded input generators for the two workloads.

Everything a session runs is drawn here from ``random.Random(seed)``, so the
same seed gives the same job lists.  Jobs are plain JSON-able dicts; the
worker turns them into calls, and the program never sees the seed.

A workload is a sequence of sessions.  Each session is one job list whose
cost does not depend on the seed: the seed orders the jobs and draws their
random content (pairings, curves, eps and tol), so run-to-run spread comes
from the machine, not from which inputs a seed happened to draw.
"""

from __future__ import annotations

import math
import random

from checks import pairing_admissible, pairing_completion, pairing_components

# --------------------------------------------------------------------------
# headline

#: argv of every headline job, keyed by the name of its expected result.
HEADLINE_JOBS = {
    "g4": ["--machine", "torelli", "g4", "--ledger"],
    "g5": ["--machine", "torelli", "g5"],
    "abar4": ["--machine", "torelli", "abar4"],
    "m11": ["--machine", "excess", "m", "--da", "1", "--db", "1"],
    "m21": ["--machine", "excess", "m", "--da", "2", "--db", "1"],
    "m33": ["--machine", "excess", "m", "--da", "3", "--db", "3"],
}


def headline_session(rng: random.Random, k: int) -> list[dict]:
    """All six headline commands in a seed-permuted order."""
    names = sorted(HEADLINE_JOBS)
    rng.shuffle(names)
    return [{"kind": "cli", "check": n, "argv": HEADLINE_JOBS[n]} for n in names]


# --------------------------------------------------------------------------
# census

#: The tree and component jobs, in three slices; session k runs slice
#: k mod 3.  Cold costs at the seed commit (2-core x86-64 host, Python 3.11)
#: run from 0.1 ms to 0.37 s, and each slice costs about 0.55 s, so every
#: session (a slice, a pairing batch and one curve, about 0.9 s) costs
#: about the same and a run holds enough of them for a tail percentile.
#: Jobs over a second, (7, True, 5) trees (1.2 s), (6, 4) components
#: (1.4 s), (7, 4) components (5.5 s) and unbounded g = 7 trees (4.4 s),
#: are left out.
CENSUS_SLICES = (
    [("trees", 6, True, None), ("components", 5, 4), ("components", 4, 4),
     ("components", 4, 3), ("components", 4, 2), ("components", 4, 1),
     ("trees", 4, True, None)],
    [("trees", 4, False, 5), ("trees", 3, False, 5), ("components", 6, 3),
     ("trees", 3, False, 4), ("trees", 3, False, 3), ("trees", 3, False, 2),
     ("trees", 3, False, 1), ("components", 6, 2), ("components", 6, 1),
     ("trees", 5, True, None)],
    [("trees", 7, True, 4), ("components", 7, 3), ("components", 5, 3),
     ("trees", 2, False, 5), ("trees", 2, False, 4), ("trees", 2, False, 3),
     ("trees", 2, False, 2), ("trees", 2, False, 1), ("trees", 4, False, 4),
     ("trees", 4, False, 3), ("trees", 4, False, 2), ("trees", 4, False, 1),
     ("components", 7, 2), ("components", 7, 1), ("components", 5, 2),
     ("components", 5, 1)],
)
PAIRINGS_PER_BATCH = 400
#: An equivalence subset holds this many admissible pairings of one shape
#: and, for each, this many pairings with the same completion.
EQUIVALENCE_BASES = 5
EQUIVALENCE_VARIANTS = 4


def random_pairing(rng: random.Random, genus: int, left: int, right: int) -> list:
    """A random bipartite half-edge pairing as
    ``[genus, left, right, blue, red]``; each color is a partial matching."""
    colors = []
    for _ in range(2):
        ls = list(range(left))
        rs = list(range(right))
        rng.shuffle(ls)
        rng.shuffle(rs)
        k = rng.randint(0, min(left, right))
        colors.append(sorted([i, j] for i, j in zip(ls[:k], rs[:k])))
    return [genus, left, right, colors[0], colors[1]]


def _random_shape(rng: random.Random, max_side: int) -> tuple[int, int, int]:
    return rng.randint(2, 5), rng.randint(1, max_side), rng.randint(1, max_side)


def equivalent_variant(rng: random.Random, p: list) -> list:
    """A pairing with the same completion as ``p``: its completion with one
    random edge taken out of each completed 4-cycle, or left in."""
    genus, left, right, blue, red = pairing_completion(p)
    drop = set()
    for nv, edges in pairing_components([genus, left, right, blue, red]):
        if len(edges) == 4 and nv == 4 and rng.random() < 0.75:
            drop.add(rng.choice(sorted(edges)))
    keep = {c: sorted([i, j] for i, j in es if (c, i, j) not in drop)
            for c, es in (("b", blue), ("r", red))}
    return [genus, left, right, keep["b"], keep["r"]]


def equivalence_subset(rng: random.Random) -> list[list]:
    """Admissible pairings of one random shape, grouped in equivalence
    classes by construction and shuffled, so that ``pairing_equivalent``
    reaches the completion on every pair and answers both ways."""
    genus, left, right = _random_shape(rng, 6)
    left, right = max(left, 3), max(right, 3)
    subset = []
    while len(subset) < EQUIVALENCE_BASES * EQUIVALENCE_VARIANTS:
        p = random_pairing(rng, genus, left, right)
        if pairing_admissible(p):
            subset.append(p)
            subset += [equivalent_variant(rng, p) for _ in range(EQUIVALENCE_VARIANTS - 1)]
    rng.shuffle(subset)
    return subset


def pairing_batch(rng: random.Random) -> dict:
    """Pairings of random shapes for ``check_pairing``, then an equivalence
    subset compared in every ordered pair, itself included."""
    pairings = [random_pairing(rng, *_random_shape(rng, 8)) for _ in range(PAIRINGS_PER_BATCH)]
    first = len(pairings)
    pairings += equivalence_subset(rng)
    idx = range(first, len(pairings))
    return {"kind": "pairings", "pairings": pairings, "equiv": [[a, b] for a in idx for b in idx]}


def census_jobs(rng: random.Random, k: int) -> list[dict]:
    """Census slice ``k`` plus a fresh pairing batch."""
    jobs = []
    for kind, g, *rest in CENSUS_SLICES[k]:
        if kind == "trees":
            jobs.append({"kind": "trees", "g": g, "positive_only": rest[0], "max_edges": rest[1]})
        else:
            jobs.append({"kind": "components", "g": g, "max_edges": rest[0]})
    jobs.append(pairing_batch(rng))
    return jobs


# --------------------------------------------------------------------------
# periods

#: Log-spaced bands of branch-point gaps, from clustered to spread; session
#: k draws one curve from band k mod 3.
GAP_BANDS = ((0.05, 0.15), (0.15, 0.6), (0.6, 2.0))
EPS_RANGE = (0.03, 0.08)
TOL_RANGE = (1e-11, 1e-8)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def random_curve(rng: random.Random, band: tuple[float, float]) -> list[float]:
    """Six increasing positive branch points with gaps drawn from ``band``.

    The first root sits far enough right that the A1 loop, which crosses
    the axis half a cut-length left of it, stays clear of the base point 0
    and of any eps-circle (radius at most 0.08, roots beyond twice that);
    gaps of at least 0.05 keep every contour far outside the 1e-3 branch
    clearance."""
    gaps = [_log_uniform(rng, *band) for _ in range(5)]
    r0 = gaps[0] / 2 + rng.uniform(0.4, 0.8)
    roots = [r0]
    for gap in gaps:
        roots.append(roots[-1] + gap)
    return roots


def period_jobs(rng: random.Random, band: tuple[float, float]) -> list[dict]:
    """For one curve from ``band``: the period matrix, the certificate
    against a second curve that moves only the last branch point, and G_1,
    G_2 by both quadrature rules."""
    roots = random_curve(rng, band)
    roots2 = roots[:5] + [roots[5] + rng.uniform(0.5, 1.5)]
    eps = rng.uniform(*EPS_RANGE)
    tol = _log_uniform(rng, *TOL_RANGE)
    jobs = [{"kind": "period_matrix", "roots": roots, "tol": tol},
            {"kind": "rho4", "curve1": roots, "curve2": roots2, "eps": eps, "tol": tol}]
    jobs += [{"kind": "G", "roots": roots, "i": i, "eps": eps, "tol": tol} for i in (1, 2)]
    return jobs


def census_periods_session(rng: random.Random, k: int) -> list[dict]:
    """Census slice k mod 3, a pairing batch and the period jobs of gap
    band k mod 3, in a seeded order.  The bands cost about the same
    (0.3 s), so the cycle keeps session costs alike.

    Census and periods share a workload because the host's speed drifts for
    tens of seconds at a time: two workloads leave room in the run budget
    for runs long enough to average that drift out, and three did not."""
    jobs = census_jobs(rng, k % len(CENSUS_SLICES)) + period_jobs(rng, GAP_BANDS[k % len(GAP_BANDS)])
    rng.shuffle(jobs)
    return jobs


SESSION_MAKERS = {
    "headline": headline_session,
    "census_periods": census_periods_session,
}


def sessions(workload: str, seed: int):
    """Endless seeded sequence of job lists for ``workload``; the k-th
    list (from 0) is ``SESSION_MAKERS[workload](rng, k)``."""
    make = SESSION_MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    k = 0
    while True:
        yield make(rng, k)
        k += 1
