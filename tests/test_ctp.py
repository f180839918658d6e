import heapq
import itertools
import random

import pytest

from torcycle import ctp
from torcycle.ctp import (
    BOTH,
    MINUS,
    PLUS,
    Component,
    HalfEdgePairing,
    MalformedPairingError,
    PairingVerdict,
    _carried,
    _compositions,
    _genus_preserving_bijections,
    _shapes,
    _sign_choices,
    canonical_component,
    check_pairing,
    completion,
    component_dimension,
    enumerate_components,
    enumerate_stable_trees,
    one_edge_intersections,
    pairing_equivalent,
)
from torcycle.grammar import parse_component
from torcycle.tautring import _least_relabelings, canonicalize, gen_to_string, make_gen


class TestTrees:
    def test_genus1(self):
        trees = enumerate_stable_trees(1, positive_only=True)
        assert len(trees) == 1
        assert trees[0].genera == (1,)

    def test_genus2(self):
        trees = enumerate_stable_trees(2, positive_only=True)
        shapes = sorted(tuple(sorted(t.genera)) for t in trees)
        assert shapes == [(1, 1), (2,)]

    def test_genus4_divisor_level(self):
        trees = enumerate_stable_trees(4, positive_only=True, max_edges=1)
        shapes = sorted(tuple(sorted(t.genera)) for t in trees)
        assert shapes == [(1, 3), (2, 2), (4,)]

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_stable_trees(9)

    @pytest.mark.parametrize("g, count", [(5, 14), (6, 35), (7, 85)])
    def test_known_positive_counts(self, g, count):
        assert len(enumerate_stable_trees(g)) == count

    def test_genus8_unbounded(self):
        # 231 also comes out of the brute-force Pruefer enumeration
        assert len(enumerate_stable_trees(8)) == 231

    @pytest.mark.parametrize("g, count", [(5, 30), (6, 105), (7, 380)])
    def test_known_unbounded_counts(self, g, count):
        # with genus-0 vertices; cross-checked against networkx's
        # nonisomorphic_trees with genus labels up to isomorphism
        assert len(enumerate_stable_trees(g, positive_only=False)) == count

    def test_genus3_with_genus0_vertices(self):
        trees = enumerate_stable_trees(3, positive_only=False)
        shapes = sorted(tuple(sorted(t.genera)) for t in trees)
        assert shapes == [(0, 1, 1, 1), (1, 1, 1), (1, 2), (3,)]

    @pytest.mark.parametrize("g", range(1, 7))
    @pytest.mark.parametrize("positive_only", (True, False))
    @pytest.mark.parametrize("max_edges", (None, 1, 2, 3, 4, 5))
    def test_vs_per_labeling_loop(self, g, positive_only, max_edges):
        assert enumerate_stable_trees(g, positive_only, max_edges) == \
            per_labeling_trees(g, positive_only, max_edges)

    @pytest.mark.parametrize("max_edges", (1, 2, 3, 4))
    def test_genus7_vs_per_labeling_loop(self, max_edges):
        assert enumerate_stable_trees(7, True, max_edges) == per_labeling_trees(7, True, max_edges)

    def test_shape_counts(self):
        # free trees on n vertices, OEIS A000055
        assert [len(_shapes(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]
        for n in range(1, 9):
            codes = {least_tree_code(edges, n) for edges, _, _ in _shapes(n)}
            assert len(codes) == len(_shapes(n))

    @pytest.mark.parametrize("args, searches", [((6,), 35), ((7, True, 4), 54)])
    def test_one_search_per_tree(self, monkeypatch, args, searches):
        # from cold layers one _least_relabelings per tree returned (not per
        # stable labeling: 57 and 107), and none for the components over
        # the same layers, which read the automorphisms from the trees
        calls = []

        def counted(gen):
            calls.append(gen)
            return _least_relabelings(gen)

        monkeypatch.setattr(ctp, "_least_relabelings", counted)
        clear_layers()
        trees = enumerate_stable_trees(*args)
        assert len(trees) == len(calls) == searches
        enumerate_components(args[0], max(len(t.genera) for t in trees) - 1)
        assert len(calls) == searches

    @pytest.mark.parametrize("g", (5, 6))
    def test_layers_in_any_order(self, g):
        # warm layers serve a later call whatever its bound
        clear_layers()
        for max_edges in (*range(g), *reversed(range(g))):
            assert enumerate_stable_trees(g, True, max_edges) == \
                per_labeling_trees(g, True, max_edges)
            assert enumerate_stable_trees(g, False, max_edges) == \
                per_labeling_trees(g, False, max_edges)
            assert enumerate_components(g, max_edges) == per_pair_components(g, max_edges)

    @pytest.mark.parametrize("call", [
        lambda: enumerate_stable_trees(3, max_edges=-1),
        lambda: enumerate_stable_trees(3, False, -2),
        lambda: enumerate_components(3, -1),
        lambda: enumerate_components(9, -1),
    ])
    def test_negative_max_edges(self, call):
        with pytest.raises(ValueError, match="max_edges must be >= 0"):
            call()

    # unbounded with genus-0 vertices is left out: the oracle's 3g-vertex
    # sweep does not finish
    @pytest.mark.parametrize("g", range(1, 6))
    @pytest.mark.parametrize("positive_only, max_edges", [
        (True, None), *((po, e) for po in (True, False) for e in range(5))])
    def test_vs_pruefer_oracle(self, g, positive_only, max_edges):
        assert enumerate_stable_trees(g, positive_only, max_edges) == \
            reference_stable_trees(g, positive_only, max_edges)


def clear_layers():
    ctp._trees_on.cache_clear()
    ctp._components_on.cache_clear()


def pruefer_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All labeled trees on n vertices via reverse Pruefer decoding."""
    if n == 1:
        return [()]
    out = []
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for s in seq:
            edges.append((heapq.heappop(leaves), s))
            degree[s] -= 1
            if degree[s] == 1:
                heapq.heappush(leaves, s)
        edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
        out.append(tuple(edges))
    return out


def reference_stable_trees(g, positive_only, max_edges):
    """Brute force: every genus tuple summing to g on every labeled tree,
    up to 3g vertices (or max_edges + 1), canonicalized and deduplicated."""
    max_n = (g if positive_only else 3 * g) if max_edges is None else max_edges + 1
    lo = 1 if positive_only else 0
    found = {}
    for n in range(1, max_n + 1):
        labeled = pruefer_trees(n)
        for genera in itertools.product(range(lo, g + 1), repeat=n):
            if sum(genera) != g:
                continue
            for edges in labeled:
                degree = [sum(v in e for e in edges) for v in range(n)]
                if any((gv == 0 and d < 3) or (gv == 1 and d < 1 and n > 1)
                       for gv, d in zip(genera, degree)):
                    continue
                found[canonicalize(make_gen(genera, edges))[0]] = True
    return sorted(found)


def least_tree_code(edges, n: int) -> str:
    """Least rooted Aho-Hopcroft-Ullman string code of a tree on n
    vertices, over all roots."""
    adj = [[] for _ in range(n)]
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)

    def code(v, parent):
        return "(" + "".join(sorted(code(u, v) for u in adj[v] if u != parent)) + ")"

    return min(code(r, -1) for r in range(n))


def per_labeling_trees(g, positive_only, max_edges):
    """The shapes regrown on every call, one per least string code, and
    every stable composition of every shape sent through canonicalize."""
    max_n = g if positive_only else max(1, 2 * g - 2)
    if max_edges is not None:
        max_n = min(max_n, max_edges + 1)
    found = {}
    trees = [()]
    for n in range(1, max_n + 1):
        if n > 1:
            grown = (t + ((v, n - 1),) for t in trees for v in range(n - 1))
            trees = list({least_tree_code(t, n): t for t in grown}.values())
        for edges in trees:
            degree = [sum(v in e for e in edges) for v in range(n)]
            lows = [int(positive_only or d < 3) for d in degree]
            for genera in _compositions(g, lows):
                found[canonicalize(make_gen(genera, edges))[0]] = True
    return sorted(found)


def elliptic_pairs_ok(t1, t2, nu):
    """No edge between genus-1 vertices of T1 maps onto an edge of T2,
    read off the two trees on every call."""
    e2 = {(min(a, b), max(a, b)) for (a, b, _, _) in t2.edges}
    for (a, b, _, _) in t1.edges:
        if t1.genera[a] == 1 and t1.genera[b] == 1:
            if (min(nu[a], nu[b]), max(nu[a], nu[b])) in e2:
                return False
    return True


def nu_sigma_key(pair):
    """Order on (nu, sigma) with None below every sign."""
    nu, sigma = pair
    return nu, tuple(x or "" for x in sigma)


def per_pair_components(g, max_edges):
    """The orbit walk with the elliptic rule tested on every bijection
    before the seen orbits, and the edge sets rebuilt for every test."""
    if max_edges is None and g >= 4:
        max_edges = 1
    trees = enumerate_stable_trees(g, positive_only=True, max_edges=max_edges)
    autos = {t: _least_relabelings(t)[1] for t in trees}
    out = []
    for t1 in trees:
        for t2 in trees:
            if sorted(t1.genera) != sorted(t2.genera):
                continue
            seen = set()
            for nu in _genus_preserving_bijections(t1, t2):
                if not elliptic_pairs_ok(t1, t2, nu):
                    continue
                for sigma in _sign_choices(t1):
                    if (nu, sigma) not in seen:
                        orbit = _carried(nu, sigma, autos[t1], autos[t2])
                        seen |= orbit
                        out.append(Component(t1, t2, *min(orbit, key=nu_sigma_key)))
    return sorted(out, key=lambda c: (c.t1, c.t2, *nu_sigma_key((c.nu, c.sigma))))


def reference_bijections(t1, t2):
    """Product filter: every genus-respecting choice of images, kept when
    the images are distinct."""
    by_genus = {}
    for w, gw in enumerate(t2.genera):
        by_genus.setdefault(gw, []).append(w)
    slots = [by_genus[gv] for gv in t1.genera]
    return {c for c in itertools.product(*slots) if len(set(c)) == len(c)}


def reference_components(g, max_edges):
    """Brute force: every admissible (nu, sigma) made least over every pair
    of automorphisms of the two trees, one at a time."""
    trees = enumerate_stable_trees(g, max_edges=max_edges)
    found = set()
    for t1 in trees:
        for t2 in trees:
            if sorted(t1.genera) != sorted(t2.genera):
                continue
            auts = [_least_relabelings(t)[1] for t in (t1, t2)]
            for nu in _genus_preserving_bijections(t1, t2):
                if not elliptic_pairs_ok(t1, t2, nu):
                    continue
                for sigma in _sign_choices(t1):
                    best = None
                    for p1, p2 in itertools.product(*auts):
                        nu2, sig2 = [0] * len(nu), [None] * len(nu)
                        for v in range(len(nu)):
                            nu2[p1[v]], sig2[p1[v]] = p2[nu[v]], sigma[v]
                        key = (tuple(nu2), tuple(x or "" for x in sig2))
                        if best is None or key < best[0]:
                            best = key, Component(t1, t2, tuple(nu2), tuple(sig2))
                    found.add(best[1])
    return found


class TestComponents:
    @pytest.mark.parametrize("g, max_edges", [(2, None), (3, None), (4, 2), (4, 3), (5, 2), (5, 3)])
    def test_orbit_walk_vs_least_over_aut_pairs(self, g, max_edges):
        comps = enumerate_components(g, max_edges)
        assert len(comps) == len(set(comps))
        assert set(comps) == reference_components(g, max_edges)

    @pytest.mark.parametrize("g, max_edges", [
        *((g, e) for g in range(2, 7) for e in (None, 0, 1, 2, 3)), (5, 4)])
    def test_vs_per_pair_loop(self, g, max_edges):
        assert enumerate_components(g, max_edges) == per_pair_components(g, max_edges)

    def test_genus7_five_edges(self):
        assert len(enumerate_components(7, 5)) == 4861

    def test_each_tree_rendered_once(self):
        comps = enumerate_components(7, 3)
        gen_to_string.cache_clear()
        lines = [c.to_string() for c in comps]
        info = gen_to_string.cache_info()
        assert len(lines) == 338 and info.hits + info.misses == 2 * len(lines)
        assert info.misses == len({t for c in comps for t in (c.t1, c.t2)}) == 30

    @pytest.mark.parametrize("g", range(1, 6))
    def test_bijections_vs_product_filter(self, g):
        trees = enumerate_stable_trees(g)
        for t1 in trees:
            for t2 in trees:
                if sorted(t1.genera) != sorted(t2.genera):
                    continue
                got = list(_genus_preserving_bijections(t1, t2))
                assert len(got) == len(set(got))
                assert set(got) == reference_bijections(t1, t2)

    def test_genus4_divisor_level(self):
        comps = enumerate_components(4, max_edges=1)
        assert len(comps) == 5
        labels = sorted(c.label() for c in comps)
        assert labels == ["(1,3)[+]", "(1,3)[-]", "(2,2)[+-+-]", "(4)[+]", "(4)[-]"]

    def test_genus5_zero_edges(self):
        comps = enumerate_components(5, max_edges=0)
        assert len(comps) == 2
        assert {c.sigma[0] for c in comps} == {PLUS, MINUS}

    def test_genus2(self):
        comps = enumerate_components(2, max_edges=None)
        # single-vertex [2] forced +-; the 1-1 pairings die by the elliptic
        # pair condition
        assert len(comps) == 1
        assert comps[0].sigma == (BOTH,)

    def test_swap_closure(self):
        # (T2, T1, nu^-1) is a component whenever (T1, T2, nu) is
        def swap(c):
            inv = tuple(sorted(range(len(c.nu)), key=c.nu.__getitem__))
            return canonical_component(c.t2, c.t1, inv, tuple(c.sigma[v] for v in inv))

        comps = enumerate_components(4, max_edges=1)
        assert {swap(c) for c in comps} == set(comps)

    def test_dimensions_genus4(self):
        comps = enumerate_components(4, max_edges=1)
        dims = sorted((c.label(), component_dimension(c)) for c in comps)
        assert dims == [
            ("(1,3)[+]", 9),
            ("(1,3)[-]", 9),
            ("(2,2)[+-+-]", 10),
            ("(4)[+]", 9),
            ("(4)[-]", 9),
        ]

    def test_zero_edge_dimension_is_3g_minus_3(self):
        for g in range(2, 9):
            comps = enumerate_components(g, max_edges=0)
            for c in comps:
                assert component_dimension(c) == 3 * g - 3

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_from_string_accepts_exactly_the_components(self, g):
        # every vertex map and every sign choice (or none) at every vertex,
        # over every pair of positive-genus trees with at most two edges:
        # parsed exactly when it lies in the orbit of an enumerated
        # component, and then to it
        comps = set(enumerate_components(g, 2))
        autos = {t: _least_relabelings(t)[1] for t in enumerate_stable_trees(g, max_edges=2)}
        members = {(c.t1, c.t2, *pair): c for c in comps
                   for pair in _carried(c.nu, c.sigma, autos[c.t1], autos[c.t2])}
        for t1, t2 in itertools.product(autos, repeat=2):
            n = len(t1.genera)
            if len(t2.genera) != n:
                continue
            for nu in itertools.permutations(range(n)):
                for sigma in itertools.product((None, PLUS, MINUS, BOTH), repeat=n):
                    text = Component(t1, t2, nu, sigma).to_string()
                    if (t1, t2, nu, sigma) in members:
                        assert parse_component(text) == members[t1, t2, nu, sigma]
                    else:
                        with pytest.raises(ValueError):
                            parse_component(text)

    def test_roundtrip_serialization(self):
        comps = enumerate_components(4, max_edges=1)
        for c in comps:
            assert parse_component(c.to_string()) == c


class TestPairings:
    def test_single_two_cycle(self):
        p = HalfEdgePairing(2, 1, 1, blue=((0, 0),), red=((0, 0),))
        assert check_pairing(p)

    def test_six_cycle_rejected(self):
        p = HalfEdgePairing(
            5, 3, 3,
            blue=((0, 0), (1, 1), (2, 2)),
            red=((0, 1), (1, 2), (2, 0)),
        )
        verdict = check_pairing(p)
        assert not verdict
        assert "cycle of length 6" in verdict.reason

    def test_two_cycle_bound(self):
        blue = tuple((i, i) for i in range(7))
        red = tuple((i, i) for i in range(7))
        p = HalfEdgePairing(2, 7, 7, blue=blue, red=red)
        verdict = check_pairing(p)
        assert not verdict
        assert "exceed" in verdict.reason

    def test_malformed(self):
        with pytest.raises(MalformedPairingError):
            HalfEdgePairing(2, 2, 1, blue=((0, 0), (1, 0)))

    def test_long_path_rejected(self):
        p = HalfEdgePairing(
            5, 3, 2,
            blue=((0, 0), (1, 1)),
            red=((1, 0), (2, 1)),
        )
        verdict = check_pairing(p)
        assert not verdict
        assert "path of length 4" in verdict.reason

    def test_equivalent_three_paths(self):
        # both are length-3 paths obtained from the same completed 4-cycle
        # by deleting one edge
        p = HalfEdgePairing(3, 2, 2, blue=((0, 0), (1, 1)), red=((1, 0),))
        q = HalfEdgePairing(3, 2, 2, blue=((0, 0),), red=((1, 0), (0, 1)))
        assert pairing_equivalent(p, q)
        assert completion(p) == completion(q)

    def test_inequivalent_complementary_coloring(self):
        p = HalfEdgePairing(3, 2, 2, blue=((0, 0), (1, 1)), red=((1, 0),))
        q = HalfEdgePairing(3, 2, 2, blue=((0, 1),), red=((0, 0), (1, 1)))
        assert not pairing_equivalent(p, q)

    def test_inadmissible_raises(self):
        bad = HalfEdgePairing(
            5, 3, 3,
            blue=((0, 0), (1, 1), (2, 2)),
            red=((0, 1), (1, 2), (2, 0)),
        )
        good = HalfEdgePairing(5, 3, 3, blue=((0, 0),))
        for p, q in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError):
                pairing_equivalent(p, q)
        assert pairing_equivalent(good, good)

    def test_reflexive(self):
        p = HalfEdgePairing(3, 2, 2, blue=((0, 0), (1, 1)), red=((1, 0),))
        assert pairing_equivalent(p, p)

    def test_two_vs_four_cycle(self):
        p = HalfEdgePairing(3, 2, 2, blue=((0, 0), (1, 1)), red=((0, 0), (1, 1)))
        q = HalfEdgePairing(3, 2, 2, blue=((0, 0), (1, 1)), red=((0, 1), (1, 0)))
        assert not pairing_equivalent(p, q)


def random_pairing(rng, max_side=10):
    left = rng.randint(1, max_side)
    right = rng.randint(1, max_side)
    blue = []
    red = []
    for color, acc in (("b", blue), ("r", red)):
        ls = list(range(left))
        rs = list(range(right))
        rng.shuffle(ls)
        rng.shuffle(rs)
        k = rng.randint(0, min(left, right))
        acc.extend(zip(ls[:k], rs[:k]))
    return HalfEdgePairing(rng.randint(2, 5), left, right, tuple(blue), tuple(red))


def oracle_check(p: HalfEdgePairing):
    """Independent union-find decomposition."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    nodes = p.nodes()
    for v in nodes:
        parent[v] = v
    edges = p.colored_edges()
    for (u, v, _) in edges:
        union(u, v)
    comp_edges: dict = {}
    comp_verts: dict = {}
    for v in nodes:
        comp_verts.setdefault(find(v), set()).add(v)
    for (u, v, c) in edges:
        comp_edges.setdefault(find(u), []).append((u, v, c))
    two_cycles = 0
    for root, verts in comp_verts.items():
        ne = len(comp_edges.get(root, []))
        nv = len(verts)
        if ne == nv:
            if ne == 2:
                two_cycles += 1
            elif ne != 4:
                return False
        elif ne == nv - 1:
            if ne > 3:
                return False
        else:
            return False
    return two_cycles <= 2 * p.genus + 2


def generic_components(p: HalfEdgePairing):
    """The generic decomposition ``ctp`` used before its chain walk: a DFS
    over ("L", i)/("R", j) nodes, components as (vertex set, edge set)."""
    adj: dict = {v: [] for v in p.nodes()}
    for (u, v, c) in p.colored_edges():
        adj[u].append((v, c))
        adj[v].append((u, c))
    seen: set = set()
    comps = []
    for start in p.nodes():
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        verts = {start}
        edges = set()
        while stack:
            u = stack.pop()
            for (v, c) in adj[u]:
                edges.add((tuple(sorted((u, v))), c))
                if v not in seen:
                    seen.add(v)
                    verts.add(v)
                    stack.append(v)
        comps.append((verts, edges))
    return comps


def generic_check(p: HalfEdgePairing) -> PairingVerdict:
    """Verdict and reason of the generic check, first failure in node order."""
    two_cycles = 0
    for verts, edges in generic_components(p):
        ne, nv = len(edges), len(verts)
        if ne == nv:
            if ne == 2:
                two_cycles += 1
            elif ne != 4:
                return PairingVerdict(False, f"cycle of length {ne}")
        elif ne == nv - 1:
            if ne > 3:
                return PairingVerdict(False, f"path of length {ne}")
        else:
            return PairingVerdict(False, "component is neither path nor cycle")
    bound = 2 * p.genus + 2
    if two_cycles > bound:
        return PairingVerdict(False, f"{two_cycles} two-cycles exceed the bound {bound}")
    return PairingVerdict(True)


def generic_completion(p: HalfEdgePairing) -> frozenset:
    """The generic completion: each 3-path closed by the color its ends miss."""
    edges = {(tuple(sorted((u, v))), c) for (u, v, c) in p.colored_edges()}
    for verts, comp_edges in generic_components(p):
        if len(comp_edges) == 3 and len(verts) == 4:
            degree: dict = {}
            colors: dict = {}
            for (pair, c) in comp_edges:
                for x in pair:
                    degree[x] = degree.get(x, 0) + 1
                    colors.setdefault(x, []).append(c)
            ends = [x for x in verts if degree[x] == 1]
            edges.add((tuple(sorted(ends)), "r" if set(colors[ends[0]]) == {"b"} else "b"))
    return frozenset(edges)


def as_generic(edges: frozenset) -> frozenset:
    """``completion``'s (i, j, color) triples in the generic edge form."""
    return frozenset(((("L", i), ("R", j)), c) for (i, j, c) in edges)


def mixed_pairing(rng, max_side=8):
    """A random pairing with sides up to ``max_side`` whose red matching
    often repeats blue edges (2-cycles) and whose colors are often empty."""
    genus, left, right = rng.randint(1, 5), rng.randint(1, max_side), rng.randint(1, max_side)
    colors = []
    for _ in range(2):
        ls, rs = list(range(left)), list(range(right))
        rng.shuffle(ls)
        rng.shuffle(rs)
        k = rng.choice((0, rng.randint(0, min(left, right)), min(left, right)))
        colors.append(list(zip(ls[:k], rs[:k])))
    blue, red = colors
    if rng.random() < 0.4:  # red repeats blue edges, keeps its own elsewhere
        shared = blue if rng.random() < 0.5 else [e for e in blue if rng.random() < 0.5]
        used_l, used_r = {i for i, _ in shared}, {j for _, j in shared}
        red = shared + [(i, j) for (i, j) in red if i not in used_l and j not in used_r]
    return HalfEdgePairing(genus, left, right, tuple(blue), tuple(red))


class TestPairingOracle:
    def test_vs_bruteforce_10k(self):
        rng = random.Random(424242)
        for _ in range(10_000):
            p = random_pairing(rng)
            assert bool(check_pairing(p)) == oracle_check(p)

    def test_verdict_and_reason_vs_generic_walk(self):
        rng = random.Random(161616)
        seen = dict.fromkeys(("shared", "empty", "side 8", "ok", "cycle", "path", "two-cycles"), 0)
        for _ in range(20_000):
            p = mixed_pairing(rng)
            verdict = check_pairing(p)
            assert verdict == generic_check(p), p
            seen["shared"] += bool(set(p.blue) & set(p.red))
            seen["empty"] += not p.blue or not p.red
            seen["side 8"] += max(p.left, p.right) == 8
            reason = verdict.reason
            seen["ok" if verdict else "two-cycles" if "two" in reason else reason.split()[0]] += 1
        assert min(seen.values()) > 100, seen

    def test_completion_vs_generic_walk(self):
        rng = random.Random(424242)
        for _ in range(10_000):
            p = random_pairing(rng)
            assert as_generic(completion(p)) == generic_completion(p), p

    def test_equivalence_vs_generic_completion(self):
        # the families of test_equivalence_laws and of one shape, where the
        # completions decide
        rng = random.Random(777)
        families = [[], []]
        while len(families[0]) < 60:
            p = random_pairing(rng, max_side=5)
            if check_pairing(p):
                families[0].append(p)
        while len(families[1]) < 60:
            p = mixed_pairing(rng, max_side=3)
            p = HalfEdgePairing(3, 3, 3, p.blue, p.red) if max(p.left, p.right) == 3 else None
            if p is not None and check_pairing(p):
                families[1].append(p)
        hits = 0
        for valid in families:
            for p in valid:
                for q in valid:
                    want = ((p.left, p.right, p.genus) == (q.left, q.right, q.genus)
                            and generic_completion(p) == generic_completion(q))
                    assert pairing_equivalent(p, q) == want
                    hits += want and p is not q
        assert hits > 0

    def test_equivalence_laws(self):
        rng = random.Random(777)
        valid = []
        while len(valid) < 60:
            p = random_pairing(rng, max_side=5)
            if check_pairing(p):
                valid.append(p)
        for p in valid:
            assert pairing_equivalent(p, p)
        for p in valid:
            for q in valid:
                assert pairing_equivalent(p, q) == pairing_equivalent(q, p)
        for p in valid:
            for q in valid:
                for r in valid:
                    if pairing_equivalent(p, q) and pairing_equivalent(q, r):
                        assert pairing_equivalent(p, r)


class TestIntersections:
    def test_z_table(self):
        table = {z.name: z for z in one_edge_intersections(4)}
        for name in ("Z1", "Z2", "Z3", "Z4"):
            assert table[name].dimension == 8
            assert table[name].divisorial

    def test_pushforwards(self):
        table = {z.name: z for z in one_edge_intersections(4)}
        assert table["Z1"].pushforward == "delta_A"
        assert table["Z2"].pushforward == "delta_A"
        assert table["Z3"].pushforward == "delta_B"
        assert table["Z4"].pushforward == "delta_B"

    def test_diagonal_overlap_flagged(self):
        table = {z.name: z for z in one_edge_intersections(4)}
        dd = table["Delta+Delta-"]
        assert not dd.divisorial
        assert dd.dimension == 7
        assert "hyperelliptic" in dd.note
