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

Trees and components are built once per process and per layer (one genus,
one vertex count; bounded memos), and a call returns the union of its
layers.  The unlabeled trees on n vertices grow from those on n - 1 by one
leaf at every vertex, one kept per Aho-Hopcroft-Ullman code rooted at the
centre (orderly generation of free trees after Wright-Richmond-Odlyzko-McKay
1986).  Each shape is labeled only by the stable compositions of g (genus at
least 1 below degree 3), one per code with the genera as vertex labels, and
one ``tautring._least_relabelings`` search per class gives the tree and the
automorphisms its components read.  A stable leg-free tree on n > 1
vertices has sum_v (2 g(v) - 2 + d(v)) = 2g - 2 with every term positive,
so n <= 2g - 2 (n <= g when every genus is positive).

Component counts are anchored against known lists at genus 2, 4 and 5
(divisor level); counts this module produces for other inputs are new
data, not cross-checked against an external source.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import validated_make
from .tautring import (
    Gen,
    _class_bijections,
    _least_relabelings,
    check_stability,
    gen_to_string,
    make_gen,
    parse_gen,
)

PLUS, MINUS, BOTH = "+", "-", "+-"

#: Hard cap on the genus of unbounded tree enumeration; beyond this the
#: caller must pass max_edges.
UNBOUNDED_GENUS_LIMIT = 8


# --------------------------------------------------------------------------
# stable trees


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    """One free tree per isomorphism class on n vertices, as (edges,
    adjacency, centres): each shape on n - 1 vertices with a new leaf n - 1
    at every vertex, one kept per unlabeled code."""
    if n == 1:
        return (((), ((),), (0,)),)
    kept: dict = {}
    for edges, adj, _ in _shapes(n - 1):
        for v in range(n - 1):
            grown = (*adj[:v], (*adj[v], n - 1), *adj[v + 1:], (v,))
            centres = _centres(grown)
            kept.setdefault(_code((0,) * n, grown, centres),
                            (edges + ((v, n - 1),), grown, centres))
    return tuple(kept.values())


def _centres(adj) -> tuple[int, ...]:
    """The centre or bicentre of a tree: what is left after peeling leaves."""
    left = set(range(len(adj)))
    while len(left) > 2:
        left -= {v for v in left if sum(u in left for u in adj[v]) == 1}
    return tuple(sorted(left))


def _code(labels, adj, centres) -> tuple:
    """Aho-Hopcroft-Ullman code of a vertex-labeled tree rooted at its
    centre, least over a bicentre: equal exactly for isomorphic trees."""

    def rooted(v: int, parent: int) -> tuple:
        return labels[v], tuple(sorted(rooted(u, v) for u in adj[v] if u != parent))

    return min(rooted(c, -1) for c in centres)


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


def _vertex_bound(g: int, positive_only: bool, max_edges: int | None) -> int:
    """The most vertices of an enumerated tree, once the arguments pass."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if max_edges is None and g > UNBOUNDED_GENUS_LIMIT:
        raise ValueError(f"unbounded enumeration capped at genus {UNBOUNDED_GENUS_LIMIT}; "
                         "pass max_edges")
    if max_edges is not None and max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    max_n = g if positive_only else max(1, 2 * g - 2)
    return max_n if max_edges is None else min(max_n, max_edges + 1)


@lru_cache(maxsize=64)
def _trees_on(g: int, positive_only: bool, n: int) -> MappingProxyType:
    """The layer of canonical trees on n vertices, each mapped to its
    automorphisms and its two edge sets (``_edge_sets``).  One
    ``_least_relabelings`` per class gives the maps p_0..p_k onto the
    representative; its automorphisms are p_i p_0^-1."""
    layer = {}
    for edges, adj, centres in _shapes(n):
        # stability: genus 0 only at degree >= 3 (the lone genus-1
        # vertex is admitted on purpose)
        lows = [int(positive_only or len(a) < 3) for a in adj]
        classes: dict = {}
        for genera in _compositions(g, lows):
            classes.setdefault(_code(genera, adj, centres), genera)
        for genera in classes.values():
            t, maps = _least_relabelings(make_gen(genera, edges))
            back = sorted(range(n), key=maps[0].__getitem__)
            layer[t] = (tuple(tuple(p[v] for v in back) for p in maps), *_edge_sets(t))
    return MappingProxyType(layer)


def enumerate_stable_trees(g: int, positive_only: bool = True,
                           max_edges: int | None = None) -> list[Gen]:
    """Duplicate-free list of genus-labeled stable trees of total genus g,
    up to isomorphism.  ``positive_only`` excludes genus-0 vertices.  The
    one-vertex genus-1 tree is admitted at g = 1 (the moduli of a single
    unpointed genus-1 factor inside a fiber-product parametrization).
    """
    layers = range(1, _vertex_bound(g, positive_only, max_edges) + 1)
    return sorted(t for n in layers for t in _trees_on(g, positive_only, n))


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

    def to_string(self) -> str:
        nu = " ".join(f"{v}>{w}" for v, w in enumerate(self.nu))
        sig = " ".join(f"{v}:{s}" for v, s in enumerate(self.sigma) if s is not None)
        return (
            f"T1 {gen_to_string(self.t1)} | T2 {gen_to_string(self.t2)} | "
            f"nu: {nu} | sigma: {sig}"
        )

    @classmethod
    def from_string(cls, text: str) -> "Component":
        """Parse ``to_string`` output; what is not a component raises ValueError."""
        data: dict[str, str] = {}
        for field in text.split("|"):
            tag, _, rest = field.strip().partition(" ")
            if (tag := tag.rstrip(":")) in data:
                raise ValueError(f"repeated component field {tag!r}")
            data[tag] = rest.strip()
        if missing := [field for field in ("T1", "T2", "nu") if field not in data]:
            raise ValueError(f"component missing field(s) {', '.join(missing)}")
        if unknown := sorted(set(data) - {"T1", "T2", "nu", "sigma"}):
            raise ValueError(f"unknown component field(s) {', '.join(map(repr, unknown))}")
        t1, t2 = parse_gen(data["T1"]), parse_gen(data["T2"])
        for t in (t1, t2):
            check_stability(t, "ct")
            if min(t.genera) < 1 or t != make_gen(t.genera, [e[:2] for e in t.edges]):
                raise ValueError("component trees have positive genera, no legs, no decorations")
        pairs = sorted(_int_pair(item, ">", "nu") for item in data["nu"].split())
        nu = tuple(w for _, w in pairs)
        if ([v for v, _ in pairs] != list(range(len(t1.genera)))
                or sorted(zip(t1.genera, nu)) != sorted(zip(t2.genera, itertools.count()))):
            raise ValueError("nu must be a genus-preserving bijection of the vertices")
        items = data.get("sigma", "").split()
        signs = dict(_int_pair(item, ":", "sigma", str) for item in items)
        sigma = tuple(signs.get(v) for v in range(len(nu)))
        if (sorted(items) != sorted(f"{v}:{s}" for v, s in enumerate(sigma) if s)
                or sigma not in _sign_choices(t1)):
            raise ValueError("sigma must be +- at genus 2, + or - above, and absent below")
        if not _elliptic_pairs_ok(_edge_sets(t1)[0], _edge_sets(t2)[1], nu):
            raise ValueError("neighboring genus-1 vertices of T1 map to neighbors of T2")
        return canonical_component(t1, t2, nu, sigma)


def _int_pair(item: str, sep: str, field: str, second=int) -> tuple:
    """(int v, second(w)) from ``item`` = ``v<sep>w``; a ValueError names it."""
    try:
        v, w = item.split(sep)
        return int(v), second(w)
    except ValueError:
        raise ValueError(f"bad {field} token {item!r}") from None


def canonical_component(t1: Gen, t2: Gen, nu, sigma) -> Component:
    """Canonical representative under simultaneous relabeling of both
    trees (nu and sigma ride along as vertex colors), least in tuple order:
    sigma is None exactly below genus 2, so no None meets a sign."""
    c1, iso1 = _least_relabelings(t1)
    c2, iso2 = _least_relabelings(t2)
    return Component(c1, c2, *min(_carried(nu, sigma, iso1, iso2)))


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


def _edge_sets(t: Gen) -> tuple[tuple, frozenset]:
    """The two sides of the elliptic rule: the edges of t between genus-1
    vertices, and every edge of t in both orientations."""
    return (tuple((a, b) for (a, b, _, _) in t.edges if t.genera[a] == t.genera[b] == 1),
            frozenset(e for (a, b, _, _) in t.edges for e in ((a, b), (b, a))))


def _elliptic_pairs_ok(elliptic1, edges2, nu) -> bool:
    """No edge of T1 between genus-1 vertices (``elliptic1``) maps onto an
    edge of T2 (``edges2``, both orientations)."""
    return not any((nu[a], nu[b]) in edges2 for (a, b) in elliptic1)


def enumerate_components(g: int, max_edges: int | None = None) -> list[Component]:
    """All components (T1, T2, nu, sigma) of the genus-g fiber product up
    to simultaneous relabeling.  ``max_edges`` defaults to 1 for g >= 4
    (divisor-level scope)."""
    if g < 2:
        raise ValueError("component enumeration needs genus >= 2")
    bound = _vertex_bound(g, True, 1 if max_edges is None and g >= 4 else max_edges)
    return sorted(c for n in range(1, bound + 1) for c in _components_on(g, n))


@lru_cache(maxsize=64)
def _components_on(g: int, n: int) -> tuple[Component, ...]:
    """The components over the layer of trees on n vertices, sorted."""
    layer = _trees_on(g, True, n)
    by_genera: dict = {}
    for t in layer:
        by_genera.setdefault(tuple(sorted(t.genera)), []).append(t)
    out = []
    for t1, (autos1, elliptic1, _) in layer.items():
        sigmas = _sign_choices(t1)
        for t2 in by_genera[tuple(sorted(t1.genera))]:
            autos2, _, edges2 = layer[t2]
            # one least element per orbit.  The sign choices are invariant
            # under the automorphisms, so a seen (nu, sigmas[0]) means every
            # (nu, sigma) is seen; the elliptic rule is invariant too
            seen: set = set()
            for nu in _genus_preserving_bijections(t1, t2):
                if (nu, sigmas[0]) in seen or not _elliptic_pairs_ok(elliptic1, edges2, nu):
                    continue
                for sigma in sigmas:
                    if (nu, sigma) not in seen:
                        orbit = _carried(nu, sigma, autos1, autos2)
                        seen |= orbit
                        out.append(Component(t1, t2, *min(orbit)))
    return tuple(sorted(out))


def _genus_preserving_bijections(t1: Gen, t2: Gen):
    """Vertex bijections nu: T1 -> T2 with g(nu(v)) = g(v), one product of
    permutations within each genus class; the genus multisets must agree."""
    by_genus: dict[int, list[int]] = {}
    for w, gw in enumerate(t2.genera):
        by_genus.setdefault(gw, []).append(w)
    return _class_bijections([([v for v, gv in enumerate(t1.genera) if gv == gw], ws)
                              for gw, ws in by_genus.items()])


def _sign_choices(t1: Gen) -> list:
    """Every sigma: None below genus 2, +- at genus 2, + or - above."""
    options = {0: (None,), 1: (None,), 2: (BOTH,)}
    return list(itertools.product(*(options.get(gv, (PLUS, MINUS)) for gv in t1.genera)))


def component_dimension(comp: Component) -> int:
    """sum over T1 vertices of 3g(v) - 3 + 2 d(v) - [g(v) = 1]."""
    t1 = comp.t1
    return sum(3 * gv - 3 + 2 * t1.valence(v) - (gv == 1) for v, gv in enumerate(t1.genera))


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

    _make = validated_make

    def __new__(cls, genus: int, left: int, right: int, blue=(), red=()):
        if min(genus, left, right) < 0:
            raise MalformedPairingError("genus, left and right must be >= 0")
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
    names = {"(4)[+]": "Delta+", "(4)[-]": "Delta-", "(1,3)[+]": "A+", "(1,3)[-]": "A-",
             "(2,2)[+-+-]": "B"}
    return {names[c.label()]: c for c in enumerate_components(4, max_edges=1)}


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
    # Delta^s meets A^s: the half edges at the genus-3 vertices paired, blue
    # (resp. red) by the sign; Delta^s meets B: the same pairing at both
    # genus-2 vertices
    for zname, sign, other, genus, push, note in (
        ("Z1", PLUS, "A+", 3, "delta_A", "full half-edge pairing at the genus-3 factor"),
        ("Z2", MINUS, "A-", 3, "delta_A", "full half-edge pairing at the genus-3 factor"),
        ("Z3", PLUS, "B", 2, "delta_B", "matching node identification on both genus-2 factors"),
        ("Z4", MINUS, "B", 2, "delta_B", "matching node identification on both genus-2 factors"),
    ):
        matched = ((0, 0),)
        pairing = HalfEdgePairing(
            genus=genus, left=1, right=1,
            blue=matched if sign == PLUS else (), red=matched if sign == MINUS else (),
        )
        assert check_pairing(pairing)
        dim = _paired_dimension(named[other])
        d_name = "Delta+" if sign == PLUS else "Delta-"
        out.append(IntersectionStratum(zname, d_name, other, dim, dim == 8, push, note))
    # Delta+ meets Delta-: supported on hyperelliptic curves, codim >= 2
    out.append(
        IntersectionStratum(
            "Delta+Delta-", "Delta+", "Delta-", 2 * 4 - 1, False, "",
            "hyperelliptic-supported; excluded from the divisor ledger",
        )
    )
    return out


def _paired_dimension(comp: Component) -> int:
    """Dimension of a component with one matched half-edge pair at each
    vertex: a vertex of genus g keeps d + d' - 1 points of its two valences
    d, d', so it contributes 3g - 3 + d + d' - 1 (d + d' - 1 at genus 1)."""
    return sum(
        3 * gv - 3 + comp.t1.valence(v) + comp.t2.valence(comp.nu[v]) - 1
        for v, gv in enumerate(comp.t1.genera)
    )
