"""Component-level combinatorics of the Torelli self-fiber product:
genus-labeled stable trees, components (tree pairs with a genus-preserving
vertex pairing and sign data), the dimension formula, the bipartite
half-edge-pairing admissibility check, and the one-edge intersection
strata in genus 4.

A component is a tuple (T1, T2, nu, sigma) where T1, T2 are trees with all
vertex genera positive, nu is a genus-preserving vertex bijection, and
sigma assigns +, - or +- to vertices of genus >= 2 (+- exactly for genus
2, where hyperellipticity makes both automorphisms of the polarized factor
available).  Two neighboring genus-1 vertices of T1 may not map to
neighbors of T2 (such strata lie in the closure of a genus-2 merger).

Stable trees are enumerated shape first.  The unlabeled trees on n vertices
grow from those on n - 1 by one leaf at every vertex, one kept per least
rooted Aho-Hopcroft-Ullman code (orderly generation of free trees after
Wright-Richmond-Odlyzko-McKay 1986).  Each shape is labeled only by the
stable compositions of g (genus at least 1 below degree 3), which go
through ``tautring.canonicalize``.  A stable leg-free tree on n > 1
vertices has sum_v (2 g(v) - 2 + d(v)) = 2g - 2 with every term positive,
so n <= 2g - 2 (n <= g when every genus is positive).

Component counts are anchored against known lists at genus 2, 4 and 5
(divisor level); counts this module produces for other inputs are new
data, not cross-checked against an external source.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .tautring import (
    Gen,
    _least_relabelings,
    canonicalize,
    make_gen,
    parse_gen,
)

PLUS, MINUS, BOTH = "+", "-", "+-"

#: Hard cap on the genus of unbounded tree enumeration; beyond this the
#: caller must pass max_edges.
UNBOUNDED_GENUS_LIMIT = 8


# --------------------------------------------------------------------------
# stable trees


def _tree_code(edges, n: int) -> str:
    """Least rooted Aho-Hopcroft-Ullman code of a tree on n vertices, over
    all roots: two trees get the same code exactly when isomorphic."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(u, v) for u in adj[v] if u != parent)) + ")"

    return min(code(r, -1) for r in range(n))


def _compositions(total: int, lows: list[int]):
    """Tuples of integers, the i-th at least ``lows[i]``, summing to total,
    by stars and bars: len(lows) - 1 bars among total - sum(lows) stars."""
    stars = total - sum(lows)
    if stars < 0:
        return
    slots = stars + len(lows) - 1
    for bars in itertools.combinations(range(slots), len(lows) - 1):
        ends = (-1, *bars, slots)
        yield tuple(lo + b - a - 1 for lo, a, b in zip(lows, ends, ends[1:]))


def enumerate_stable_trees(
    g: int, positive_only: bool = True, max_edges: int | None = None
) -> list[Gen]:
    """Duplicate-free list of genus-labeled stable trees of total genus g,
    up to isomorphism.  ``positive_only`` excludes genus-0 vertices.  The
    one-vertex genus-1 tree is admitted at g = 1 (the moduli of a single
    unpointed genus-1 factor inside a fiber-product parametrization).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if max_edges is None and g > UNBOUNDED_GENUS_LIMIT:
        raise ValueError(
            f"unbounded enumeration capped at genus {UNBOUNDED_GENUS_LIMIT}; "
            "pass max_edges"
        )
    max_n = g if positive_only else max(1, 2 * g - 2)
    if max_edges is not None:
        max_n = min(max_n, max_edges + 1)
    found: dict = {}
    trees: list[tuple[tuple[int, int], ...]] = [()]
    for n in range(1, max_n + 1):
        if n > 1:  # a new leaf n - 1 at every vertex, one tree per code
            grown = (t + ((v, n - 1),) for t in trees for v in range(n - 1))
            trees = list({_tree_code(t, n): t for t in grown}.values())
        for edges in trees:
            # stability: genus 0 only at degree >= 3 (the lone genus-1
            # vertex is admitted on purpose)
            lows = [int(positive_only or sum(v in e for e in edges) < 3) for v in range(n)]
            for genera in _compositions(g, lows):
                found[canonicalize(make_gen(genera, edges))[0]] = True
    return sorted(found)


# --------------------------------------------------------------------------
# components


class Component(NamedTuple):
    """Irreducible component datum (T1, T2, nu, sigma) in canonical form.

    ``nu[v]`` is the T2-vertex paired with T1-vertex v; ``sigma[v]`` is
    "+", "-", "+-" for genus >= 2 vertices and None below.
    """

    t1: Gen
    t2: Gen
    nu: tuple[int, ...]
    sigma: tuple[str | None, ...]

    def label(self) -> str:
        shape = ",".join(str(x) for x in sorted(self.t1.genera))
        signs = "".join(s for s in self.sigma if s) or ""
        return f"({shape})" + (f"[{signs}]" if signs else "")

    def swap(self) -> "Component":
        inv = [0] * len(self.nu)
        for v, w in enumerate(self.nu):
            inv[w] = v
        sigma2 = [None] * len(self.nu)
        for v, w in enumerate(self.nu):
            sigma2[w] = self.sigma[v]
        return canonical_component(self.t2, self.t1, tuple(inv), tuple(sigma2))

    def to_string(self) -> str:
        from .tautring import gen_to_string

        nu = " ".join(f"{v}>{w}" for v, w in enumerate(self.nu))
        sig = " ".join(
            f"{v}:{s}" for v, s in enumerate(self.sigma) if s is not None
        )
        return (
            f"T1 {gen_to_string(self.t1)} | T2 {gen_to_string(self.t2)} | "
            f"nu: {nu} | sigma: {sig}"
        )

    @classmethod
    def from_string(cls, text: str) -> "Component":
        parts = [p.strip() for p in text.split("|")]
        data = {}
        for p in parts:
            tag, _, rest = p.partition(" ")
            data[tag.rstrip(":")] = rest.strip()
        if missing := [field for field in ("T1", "T2", "nu") if field not in data]:
            raise ValueError(f"component missing field(s) {', '.join(missing)}")
        t1 = parse_gen(data["T1"])
        t2 = parse_gen(data["T2"])
        nu = [0] * t1.n_vertices()
        for item in data["nu"].split():
            v, _, w = item.partition(">")
            nu[int(v)] = int(w)
        sigma: list = [None] * t1.n_vertices()
        for item in data.get("sigma", "").split():
            if not item:
                continue
            v, _, s = item.partition(":")
            sigma[int(v)] = s
        return canonical_component(t1, t2, tuple(nu), tuple(sigma))


def canonical_component(t1: Gen, t2: Gen, nu, sigma) -> Component:
    """Canonical representative under simultaneous relabeling of both
    trees (nu and sigma ride along as vertex colors)."""
    c1, iso1 = _least_relabelings(t1)
    c2, iso2 = _least_relabelings(t2)
    return Component(c1, c2, *min(_carried(nu, sigma, iso1, iso2), key=_nu_sigma_key))


def _carried(nu, sigma, iso1, iso2) -> set:
    """Every (nu, sigma) carried along a vertex map p1 of T1 and p2 of T2:
    the orbit under Aut(T1) x Aut(T2) when the maps are automorphisms."""
    out = set()
    for p1 in iso1:
        for p2 in iso2:
            nu2 = [0] * len(nu)
            sig2: list = [None] * len(nu)
            for v in range(len(nu)):
                nu2[p1[v]] = p2[nu[v]]
                sig2[p1[v]] = sigma[v]
            out.add((tuple(nu2), tuple(sig2)))
    return out


def _nu_sigma_key(pair):
    """Order on (nu, sigma) with None below every sign."""
    nu, sigma = pair
    return nu, tuple(x or "" for x in sigma)


def _elliptic_pairs_ok(t1: Gen, t2: Gen, nu) -> bool:
    e2 = {(min(a, b), max(a, b)) for (a, b, _, _) in t2.edges}
    for (a, b, _, _) in t1.edges:
        if t1.genera[a] == 1 and t1.genera[b] == 1:
            img = (min(nu[a], nu[b]), max(nu[a], nu[b]))
            if img in e2:
                return False
    return True


def enumerate_components(g: int, max_edges: int | None = None) -> list[Component]:
    """All components (T1, T2, nu, sigma) of the genus-g fiber product up
    to simultaneous relabeling.  ``max_edges`` defaults to 1 for g >= 4
    (divisor-level scope)."""
    if g < 2:
        raise ValueError("component enumeration needs genus >= 2")
    if max_edges is None and g >= 4:
        max_edges = 1
    trees = enumerate_stable_trees(g, positive_only=True, max_edges=max_edges)
    # the trees are canonical, so their maps onto the canonical form are
    # their automorphisms
    autos = {t: _least_relabelings(t)[1] for t in trees}
    out = []
    for t1 in trees:
        for t2 in trees:
            if sorted(t1.genera) != sorted(t2.genera):
                continue
            # one least element per orbit; the elliptic rule and the sign
            # choices are invariant under the automorphisms
            seen: set = set()
            for nu in _genus_preserving_bijections(t1, t2):
                if not _elliptic_pairs_ok(t1, t2, nu):
                    continue
                for sigma in _sign_choices(t1):
                    if (nu, sigma) not in seen:
                        orbit = _carried(nu, sigma, autos[t1], autos[t2])
                        seen |= orbit
                        out.append(Component(t1, t2, *min(orbit, key=_nu_sigma_key)))
    return sorted(out, key=lambda c: (c.t1, c.t2, *_nu_sigma_key((c.nu, c.sigma))))


def _genus_preserving_bijections(t1: Gen, t2: Gen):
    """Vertex bijections nu: T1 -> T2 with g(nu(v)) = g(v), one product of
    permutations within each genus class; the genus multisets must agree."""
    by_genus: dict[int, list[int]] = {}
    for w, gw in enumerate(t2.genera):
        by_genus.setdefault(gw, []).append(w)
    sources = [[v for v, gv in enumerate(t1.genera) if gv == gw] for gw in by_genus]
    nu = [0] * len(t1.genera)
    for images in itertools.product(*map(itertools.permutations, by_genus.values())):
        for vs, ws in zip(sources, images):
            for v, w in zip(vs, ws):
                nu[v] = w
        yield tuple(nu)


def _sign_choices(t1: Gen):
    options = []
    for gv in t1.genera:
        if gv >= 3:
            options.append((PLUS, MINUS))
        elif gv == 2:
            options.append((BOTH,))
        else:
            options.append((None,))
    yield from itertools.product(*options)


def component_dimension(comp: Component) -> int:
    """sum over T1 vertices of 3g(v) - 3 + 2 d(v) - [g(v) = 1]."""
    t1 = comp.t1
    total = 0
    for v, gv in enumerate(t1.genera):
        total += 3 * gv - 3 + 2 * t1.valence(v) - (1 if gv == 1 else 0)
    return total


# --------------------------------------------------------------------------
# bipartite half-edge pairings


class MalformedPairingError(ValueError):
    pass


class _HalfEdgePairingFields(NamedTuple):
    genus: int
    left: int
    right: int
    blue: tuple[tuple[int, int], ...] = ()
    red: tuple[tuple[int, int], ...] = ()


class HalfEdgePairing(_HalfEdgePairingFields):
    """Bipartite multigraph on the half edges at a paired vertex: blue
    edges record the identity-side pairing, red ones the involution side.
    No ``__slots__``: the memos below need a ``__dict__``."""

    def __new__(cls, genus: int, left: int, right: int, blue=(), red=()):
        for (color, edges) in (("blue", blue), ("red", red)):
            seen_l: set[int] = set()
            seen_r: set[int] = set()
            for (i, j) in edges:
                if not (0 <= i < left and 0 <= j < right):
                    raise MalformedPairingError("half-edge index out of range")
                if i in seen_l or j in seen_r:
                    raise MalformedPairingError(
                        f"vertex with two {color} edges"
                    )
                seen_l.add(i)
                seen_r.add(j)
        return super().__new__(cls, genus, left, right, blue, red)

    def nodes(self):
        return [("L", i) for i in range(self.left)] + [
            ("R", j) for j in range(self.right)
        ]

    def colored_edges(self):
        return [(("L", i), ("R", j), "b") for (i, j) in self.blue] + [
            (("L", i), ("R", j), "r") for (i, j) in self.red
        ]

    # computed once per pairing; the frozen fields never change them
    @cached_property
    def _verdict(self) -> PairingVerdict:
        return check_pairing(self)

    @cached_property
    def _completion(self) -> frozenset:
        return completion(self)


class PairingVerdict(NamedTuple):
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def _components_of(p: HalfEdgePairing):
    """Connected components, in order of their first node, as (node count,
    edge count, ends), over integer node ids L i -> i and R j -> left + j.
    A node has at most one edge of each color, so a component is a path or
    a cycle: walk it from its first node, blue first then red, until the
    walk stops at an end or closes back at the start."""
    left, n = p.left, p.left + p.right
    colors = ([-1] * n, [-1] * n)  # the blue and the red neighbor of each node
    for color, edges in zip(colors, (p.blue, p.red)):
        for (i, j) in edges:
            color[i], color[left + j] = left + j, i
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        nv, ne, ends = 1, 0, []
        for first in (0, 1):
            u, c = start, first
            while (v := colors[c][u]) >= 0 and v != start:
                seen[v] = True
                nv, ne, u, c = nv + 1, ne + 1, v, 1 - c
            if v == start:  # a cycle
                ne += 1
                break
            ends.append(u)
        comps.append((nv, ne, ends))
    return comps


def check_pairing(p: HalfEdgePairing) -> PairingVerdict:
    """Admissibility: every cycle has length 2 or 4, every path length at
    most 3, and at most 2g+2 cycles of length 2 (those pin Weierstrass
    points).  The first failing component in node order is reported."""
    two_cycles = 0
    for nv, ne, _ in _components_of(p):
        if ne == nv:  # cycle
            if ne == 2:
                two_cycles += 1
            elif ne != 4:
                return PairingVerdict(False, f"cycle of length {ne}")
        elif ne > 3:  # path (possibly a single vertex)
            return PairingVerdict(False, f"path of length {ne}")
    bound = 2 * p.genus + 2
    if two_cycles > bound:
        return PairingVerdict(
            False, f"{two_cycles} two-cycles exceed the bound {bound}"
        )
    return PairingVerdict(True)


def completion(p: HalfEdgePairing) -> frozenset:
    """Close every length-3 path into a 4-cycle (two edges of each color):
    the closing edge joins its two ends, one on each side, in the color
    missing there.  The completed edge set of (i, j, color) triples is the
    equivalence-class invariant."""
    edges = {(i, j, "b") for (i, j) in p.blue} | {(i, j, "r") for (i, j) in p.red}
    for nv, ne, ends in _components_of(p):
        if ne == 3 and nv == 4:
            i, j = min(ends), max(ends) - p.left
            # an end's one edge is blue exactly when the path is b-r-b
            edges.add((i, j, "r" if any(i == e[0] for e in p.blue) else "b"))
    return frozenset(edges)


def pairing_equivalent(p: HalfEdgePairing, q: HalfEdgePairing) -> bool:
    if not p._verdict or not q._verdict:
        raise ValueError("equivalence is defined for admissible pairings")
    if (p.left, p.right, p.genus) != (q.left, q.right, q.genus):
        return False
    return p._completion == q._completion


# --------------------------------------------------------------------------
# intersections at the divisor level, genus 4


class IntersectionStratum(NamedTuple):
    name: str
    first: str
    second: str
    dimension: int
    divisorial: bool
    pushforward: str
    note: str = ""


def _find_g4_components():
    comps = enumerate_components(4, max_edges=1)
    named = {}
    for c in comps:
        genera = sorted(c.t1.genera)
        if genera == [4]:
            named["Delta+" if c.sigma[0] == PLUS else "Delta-"] = c
        elif genera == [1, 3]:
            s = next(x for x in c.sigma if x)
            named["A+" if s == PLUS else "A-"] = c
        elif genera == [2, 2]:
            named["B"] = c
    return named


def one_edge_intersections(g: int = 4) -> list[IntersectionStratum]:
    """The divisor-level intersection strata of the genus-4 fiber product:
    Z1..Z4 of dimension 8 (full half-edge pairing added to the one-edge
    components, matching signs), plus the hyperelliptic-supported
    Delta+ . Delta- overlap flagged as non-divisorial."""
    if g != 4:
        raise ValueError("one-edge intersection table implemented for genus 4")
    named = _find_g4_components()
    for key in ("Delta+", "Delta-", "A+", "A-", "B"):
        if key not in named:
            raise RuntimeError("genus-4 component enumeration incomplete")

    out = []
    # Delta^s meets A^s: pair the half edges at the genus-3 vertices with
    # the pairing colored by the sign; dimensions 1 + (9 - 3 + 1 + 1 - 1)
    for sign, d_name, a_name, zname in (
        (PLUS, "Delta+", "A+", "Z1"),
        (MINUS, "Delta-", "A-", "Z2"),
    ):
        pairing = HalfEdgePairing(
            genus=3, left=1, right=1,
            blue=(((0, 0),) if sign == PLUS else ()),
            red=(((0, 0),) if sign == MINUS else ()),
        )
        assert check_pairing(pairing)
        dim = _paired_dimension_13(named[a_name], m_g3=1)
        out.append(
            IntersectionStratum(
                zname, d_name, a_name, dim, dim == 8, "delta_A",
                "full half-edge pairing at the genus-3 factor",
            )
        )
    # Delta^s meets B: blue (resp. red) pairing at both genus-2 vertices
    for sign, d_name, zname in ((PLUS, "Delta+", "Z3"), (MINUS, "Delta-", "Z4")):
        pairing = HalfEdgePairing(
            genus=2, left=1, right=1,
            blue=(((0, 0),) if sign == PLUS else ()),
            red=(((0, 0),) if sign == MINUS else ()),
        )
        assert check_pairing(pairing)
        dim = _paired_dimension_22()
        out.append(
            IntersectionStratum(
                zname, d_name, "B", dim, dim == 8, "delta_B",
                "matching node identification on both genus-2 factors",
            )
        )
    # Delta+ meets Delta-: supported on hyperelliptic curves, codim >= 2
    out.append(
        IntersectionStratum(
            "Delta+Delta-", "Delta+", "Delta-", 2 * 4 - 1, False, "",
            "hyperelliptic-supported; excluded from the divisor ledger",
        )
    )
    return out


def _paired_dimension_13(a_comp: Component, m_g3: int) -> int:
    """(1,3)-component with m matched half-edge pairs at the genus-3
    vertices: genus-1 factor keeps d + d' - 1, the genus-3 factor drops one
    modulus per matched pair."""
    total = 0
    for v, gv in enumerate(a_comp.t1.genera):
        d1 = a_comp.t1.valence(v)
        d2 = a_comp.t2.valence(a_comp.nu[v])
        if gv == 1:
            total += d1 + d2 - 1
        else:
            total += 3 * gv - 3 + d1 + d2 - m_g3
    return total


def _paired_dimension_22() -> int:
    """(2,2)-component with one matched pair at each vertex: per genus-2
    vertex the bipartite graph has one non-2-cycle component, so the factor
    is (2g-1) + 1 = 4 dimensional."""
    return 2 * ((2 * 2 - 1) + 1)
