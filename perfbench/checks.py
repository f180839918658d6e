"""Output checks, run in the benchmark's own process.

Nothing here imports torcycle: each check compares a job's rendered output
with a reference that does not come from the code under test.

* headline: the paper's exact values;
* stable trees: an independent enumeration (Pruefer-decoded free trees,
  genus labels, centre-rooted AHU canonical strings), which also reproduces
  the known positive-genus counts 14, 35 and 85 at g = 5, 6, 7;
* components: counts recorded at the seed commit (``expected/``);
* pairings: a union-find admissibility oracle, and a completion oracle for
  the equivalence (which makes it reflexive and symmetric);
* periods: Im tau symmetric positive definite, contour and segment rules
  agreeing on G_i, and the certificate passing.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))

# --------------------------------------------------------------------------
# headline: the paper's values in --machine form.  The curve side of abar4
# is 16*lambda1 - 2*delta_irr; delta_irr is half the irreducible-boundary
# generator "V 3; E 0-0" (two automorphisms), so that generator carries -1.

LAMBDA1_G4 = "V 4; decor v0:lambda1^1"
HEADLINE_EXPECTED = {
    "g4": {"t*T4": {("16", LAMBDA1_G4)},
           "ledger": {"Z1": "-2", "Z2": "-2", "Z3": "-3", "Z4": "-3",
                      "Z5": "1", "Z6": "1"}},
    "g5": {"t*T5|interior": "48/5*kappa3", "2c3(N)": "454/15*kappa3",
           "multiplicity": "-20"},
    "abar4": {"t*t_*[curve side]": {("16", LAMBDA1_G4), ("-1", "V 3; E 0-0")},
              "conclusion": "16*lambda1 - 2*D"},
    "m11": "-2",
    "m21": "-3",
    "m33": "-20",
}


def _records(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def check_headline(name: str, out: str) -> str | None:
    """None if ``out`` (the --machine stdout) carries the paper's values,
    else a one-line reason."""
    want = HEADLINE_EXPECTED[name]
    recs = _records(out)
    if isinstance(want, str):
        got = out.strip()
        return None if got == want else f"{name}: {got!r} != {want!r}"
    if name == "g4":
        cls = {tuple(r[1:]) for r in recs if r[0] == "t*T4"}
        ledger = {r[1]: r[2] for r in recs if r[0] == "ledger" and r[1] in want["ledger"]}
        if cls != want["t*T4"]:
            return f"g4: class {sorted(cls)}"
        if ledger != want["ledger"]:
            return f"g4: ledger multiplicities {ledger}"
        return None
    if name == "abar4":
        key = "t*t_*[curve side]"
        cls = {tuple(r[1:]) for r in recs if r[0] == key}
        concl = [r[1] for r in recs if r[0] == "conclusion"]
        if cls != want[key]:
            return f"abar4: class {sorted(cls)}"
        if concl != [want["conclusion"]]:
            return f"abar4: conclusion {concl}"
        return None
    values = {r[0]: r[1] for r in recs if len(r) >= 2}
    for key, value in want.items():
        if values.get(key) != value:
            return f"{name}: {key} = {values.get(key)!r} != {value!r}"
    return None


# --------------------------------------------------------------------------
# stable trees

KNOWN_POSITIVE_TREE_COUNTS = {5: 14, 6: 35, 7: 85}


def _pruefer_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _centres(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def _rooted(adj, labels, v, parent) -> str:
    kids = sorted(_rooted(adj, labels, w, v) for w in adj[v] if w != parent)
    return f"{labels[v]}(" + "".join(kids) + ")"


def tree_code(n: int, edges, labels) -> str:
    """Canonical string of a vertex-labelled tree: the least AHU encoding
    over its centres."""
    adj = _adjacency(n, edges)
    return min(_rooted(adj, labels, c, -1) for c in _centres(adj))


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One edge list per isomorphism class of unlabelled trees on n vertices."""
    if n == 1:
        return ((),)
    found = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _pruefer_tree(seq, n)
        found.setdefault(tree_code(n, edges, [""] * n), tuple(edges))
    return tuple(found.values())


def _stable(n: int, edges, genera) -> bool:
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for v in range(n):
        if genera[v] == 0 and degree[v] < 3:
            return False
        if genera[v] == 1 and degree[v] < 1 and n > 1:
            return False
    return True


@lru_cache(maxsize=None)
def expected_trees(g: int, positive_only: bool, max_edges: int | None) -> frozenset:
    """Canonical codes of all genus-labelled stable trees of total genus g."""
    if max_edges is None:
        if not positive_only:
            raise ValueError("the reference needs max_edges with genus-0 vertices")
        max_n = g
    else:
        max_n = max_edges + 1
    low = 1 if positive_only else 0
    codes = set()
    for n in range(1, max_n + 1):
        for edges in free_trees(n):
            for genera in itertools.product(range(low, g + 1), repeat=n):
                if sum(genera) == g and _stable(n, edges, genera):
                    codes.add(tree_code(n, edges, genera))
    return frozenset(codes)


def parse_tree(text: str) -> str:
    """Canonical code of a tree rendered as ``V g0 g1 ..; E a-b ..``."""
    genera, edges = [], []
    for part in text.split(";"):
        tag, _, rest = part.strip().partition(" ")
        if tag == "V":
            genera = [int(x) for x in rest.split()]
        elif tag == "E":
            edges = [tuple(int(x) for x in e.split("-")) for e in rest.split()]
        else:
            raise ValueError(f"unexpected tree field {part!r}")
    return tree_code(len(genera), edges, genera)


def check_trees(job: dict, out: str) -> str | None:
    lines = out.splitlines()
    got = [parse_tree(line) for line in lines]
    want = expected_trees(job["g"], job["positive_only"], job["max_edges"])
    if len(set(got)) != len(got):
        return "duplicate trees"
    if set(got) != want:
        return f"{len(got)} trees, reference has {len(want)}"
    if job["positive_only"] and job["max_edges"] is None:
        known = KNOWN_POSITIVE_TREE_COUNTS.get(job["g"])
        if known is not None and len(got) != known:
            return f"{len(got)} trees, known count {known}"
    return None


# --------------------------------------------------------------------------
# components


@lru_cache(maxsize=None)
def expected_component_counts() -> dict:
    with open(os.path.join(HERE, "expected", "components.json")) as fh:
        return json.load(fh)["counts"]


def check_components(job: dict, out: str) -> str | None:
    lines = out.splitlines()
    want = expected_component_counts()[f"{job['g']},{job['max_edges']}"]
    if len(set(lines)) != len(lines):
        return "duplicate components"
    if len(lines) != want:
        return f"{len(lines)} components, expected {want}"
    return None


# --------------------------------------------------------------------------
# half-edge pairings


def pairing_components(p) -> list[tuple[int, list[tuple[str, int, int]]]]:
    """Connected components of the two-colored bipartite graph, found by
    union-find, as (vertex count, edges); an edge is (color, left, right)."""
    genus, left, right, blue, red = p
    parent = list(range(left + right))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = [("b", i, j) for i, j in blue] + [("r", i, j) for i, j in red]
    for _, i, j in edges:
        parent[find(i)] = find(left + j)
    nodes: dict = {}
    links: dict = {}
    for v in range(left + right):
        nodes[find(v)] = nodes.get(find(v), 0) + 1
    for e in edges:
        links.setdefault(find(e[1]), []).append(e)
    return [(nv, links.get(root, [])) for root, nv in nodes.items()]


def pairing_admissible(p) -> bool:
    """Every component is a path with at most 3 edges or a cycle of length
    2 or 4, and there are at most 2g + 2 two-cycles."""
    two_cycles = 0
    for nv, edges in pairing_components(p):
        ne = len(edges)
        if ne == nv:
            if ne == 2:
                two_cycles += 1
            elif ne != 4:
                return False
        elif ne != nv - 1 or ne > 3:
            return False
    return two_cycles <= 2 * p[0] + 2


def pairing_completion(p) -> tuple:
    """(genus, left, right, blue edges, red edges) after closing every path
    of 3 edges into a 4-cycle; the closing edge joins the path's two ends
    and takes the color their edges lack."""
    genus, left, right, blue, red = p
    colored = {"b": {tuple(e) for e in blue}, "r": {tuple(e) for e in red}}
    for nv, edges in pairing_components(p):
        if len(edges) == 3 and nv == 4:
            lefts = [i for _, i, _ in edges]
            rights = [j for _, _, j in edges]
            (end_l,) = [i for i in lefts if lefts.count(i) == 1]
            (end_r,) = [j for j in rights if rights.count(j) == 1]
            end_color = next(c for c, i, _ in edges if i == end_l)
            colored["r" if end_color == "b" else "b"].add((end_l, end_r))
    return genus, left, right, frozenset(colored["b"]), frozenset(colored["r"])


def check_pairings(job: dict, out: str) -> str | None:
    verdicts, _, equiv = out.partition("\n")
    pairings = job["pairings"]
    want = "".join("T" if pairing_admissible(p) else "F" for p in pairings)
    if verdicts != want:
        return "check_pairing disagrees with the union-find oracle"
    if len(equiv) != len(job["equiv"]):
        return "missing equivalence results"
    completions = {}
    for (a, b), r in zip(job["equiv"], equiv):
        for k in (a, b):
            if k not in completions:
                completions[k] = pairing_completion(pairings[k])
        if r != ("T" if completions[a] == completions[b] else "F"):
            return f"pairing_equivalent({a}, {b}) = {r}, the completion oracle disagrees"
    return None


# --------------------------------------------------------------------------
# periods

SYMMETRY_TOL = 1e-8
#: Contour and segment routes of G_i must agree to this relative tolerance
#: (the same bound the acceptance criterion uses for its eps drift).
RULE_AGREEMENT = 1e-6


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def check_period_matrix(job: dict, out: str) -> str | None:
    tau = [[_complex(r[1:3]) for r in _records(out)[k:k + 2]] for k in (0, 2)]
    scale = max(1.0, max(abs(z) for row in tau for z in row))
    if abs(tau[0][1] - tau[1][0]) > SYMMETRY_TOL * scale:
        return "tau not symmetric"
    a, b, d = tau[0][0].imag, tau[0][1].imag, tau[1][1].imag
    if not (a > 0 and a * d - b * b > 0):
        return "Im tau not positive definite"
    return None


def check_rho4(job: dict, out: str) -> str | None:
    values = {r[0]: r[1:] for r in _records(out)}
    if values.get("passed") != ["true"]:
        return "rho4 certificate did not pass"
    return None


def check_G(job: dict, out: str) -> str | None:
    values = {r[0]: _complex(r[1:3]) for r in _records(out)}
    gc, gs = values["contour"], values["segments"]
    if abs(gc - gs) > RULE_AGREEMENT * max(1.0, abs(gc)):
        return f"G{job['i']}: contour {gc} vs segments {gs}"
    return None


CHECKS = {
    "trees": check_trees,
    "components": check_components,
    "pairings": check_pairings,
    "period_matrix": check_period_matrix,
    "rho4": check_rho4,
    "G": check_G,
}


def check_job(job: dict, out: str) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if job["kind"] == "cli":
        return check_headline(job["check"], out)
    return CHECKS[job["kind"]](job, out)
