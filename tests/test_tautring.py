import ast
import functools
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torcycle import ctp
from torcycle import tautring as tr
from torcycle.algebra import _accumulate
from torcycle.grammar import parse_gen
from torcycle.tautring import (
    ModuliSpec,
    ProductClass,
    TautClass,
    UnstableGraphError,
    boundary_gen,
    canonicalize,
    delta_sep,
    delta_total,
    gen_to_string,
    glue_spaces,
    kappa,
    kappa1_expand,
    lam,
    make_gen,
    multiply,
    one,
    one_edge_graphs,
    psi,
    pullback_forgetful,
    pullback_gluing,
    pushforward_forgetful,
    pushforward_gluing,
    zero,
)

F = Fraction
SRC = pathlib.Path(__file__).parent.parent / "src"


def aut_order(gen):
    """|Aut| of a generator, decorations and half-edges included."""
    return canonicalize(gen)[1]


def monomial(space, kappa_mon=(), lam_mon=(), psi_mon=None):
    """The interior monomial kappa^a lambda^b psi^c on ``space``."""
    return TautClass(space, {tr._trivial_gen(space, kappa_mon, lam_mon, psi_mon): 1})


def delta_zero_pair(space, p, x):
    """Divisor of curves where markings p, x sit on a rational tail."""
    return TautClass(space, {boundary_gen(space, 0, (p, x)): 1})


M4 = ModuliSpec(4, ())
M41 = ModuliSpec(4, ("p",))
M11 = ModuliSpec(1, ("p",))


class TestCanonicalize:
    def test_single_vertex(self):
        g = make_gen((4,))
        assert aut_order(g) == 1

    def test_two_genus2(self):
        g = make_gen((2, 2), [(0, 1)])
        assert aut_order(g) == 2

    def test_one_three(self):
        g = make_gen((1, 3), [(0, 1)])
        assert aut_order(g) == 1

    def test_self_edge(self):
        g = make_gen((3,), [(0, 0)])
        assert aut_order(g) == 2

    def test_self_edge_decorated(self):
        g = make_gen((3,), [(0, 0, 1, 0)])
        assert aut_order(g) == 1

    def test_decoration_breaks_symmetry(self):
        g = make_gen((2, 2), [(0, 1, 1, 0)])
        assert aut_order(g) == 1

    def test_decorated_fold(self):
        a = make_gen((2, 2), [(0, 1, 1, 0)])
        b = make_gen((2, 2), [(0, 1, 0, 1)])
        assert canonicalize(a)[0] == canonicalize(b)[0]

    def test_idempotent(self):
        g = make_gen((1, 2, 1), [(0, 1), (1, 2)])
        c1, _ = canonicalize(g)
        c2, _ = canonicalize(c1)
        assert c1 == c2

    def test_chain_symmetry(self):
        g = make_gen((1, 2, 1), [(0, 1), (1, 2)])
        assert aut_order(g) == 2

    def test_random_relabeling_invariance(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            nv = rng.randint(1, 6)
            genera = [rng.randint(1, 6) for _ in range(nv)]
            edges = []
            for w in range(1, nv):
                v = rng.randrange(w)
                edges.append((v, w))
            kap = {rng.randrange(nv): [(rng.randint(1, 3), 1)]} if rng.random() < 0.5 else {}
            g = make_gen(genera, edges, [], kap)
            perm = list(range(nv))
            rng.shuffle(perm)
            h = tr._apply_perm(g, perm)
            cg, ag = canonicalize(g)
            ch, ah = canonicalize(h)
            assert cg == ch
            assert ag == ah


def _isomorphisms_by_scan(a, b):
    """Reference oracle: every order of a's vertices, kept when it gives b.
    Orders grow vertex by vertex in ``itertools.permutations`` order, and
    one is cut as soon as a placed vertex, or the edges between placed
    vertices, disagree with b; every kept order meets both conditions, so
    the list is that of the scan over all n! orders."""
    def local(g, v):
        return (g.genera[v], g.kappa[v], g.lam[v],
                sorted((lab, e) for (lab, w, e) in g.legs if w == v))

    def between(g, v, u):
        return sorted([(x, y) for (p, q, x, y) in g.edges if (p, q) == (v, u)]
                      + [(y, x) for (p, q, x, y) in g.edges if (q, p) == (v, u)])

    n, found = a.n_vertices(), []

    def grow(p):
        v = len(p)
        if v == n:
            if tr._apply_perm(a, p) == b:
                found.append(list(p))
            return
        for w in range(n):
            if w in p or local(a, v) != local(b, w):
                continue
            p.append(w)
            if all(between(a, v, u) == between(b, w, p[u]) for u in range(v + 1)):
                grow(p)
            p.pop()

    if n == b.n_vertices():
        grow([])
    return found


def _least_relabelings_by_whole_gens(gen):
    """The search as first written, kept as the oracle of the map order:
    vertex invariants read vertex by vertex, every candidate built as a
    whole ``Gen`` and compared as one."""
    nv = gen.n_vertices()
    base = []
    for v in range(nv):
        legs_v = tuple(sorted((lab, e) for (lab, lv, e) in gen.legs if lv == v))
        ends = [av for (a, _, av, _) in gen.edges if a == v]
        ends += [aw for (_, b, _, aw) in gen.edges if b == v]
        base.append((gen.genera[v], tuple(sorted(ends)), legs_v, gen.kappa[v], gen.lam[v]))
    adj = {v: [] for v in range(nv)}
    for (a, b, _, _) in gen.edges:
        adj[a].append(b)
        adj[b].append(a)
    groups = {}
    for v in range(nv):
        groups.setdefault((base[v], tuple(sorted(base[u] for u in adj[v]))), []).append(v)
    classes, start = [], 0
    for _, vs in sorted(groups.items(), key=lambda kv: kv[0]):
        classes.append((vs, range(start, start + len(vs))))
        start += len(vs)
    best, maps = None, []
    for perm in tr._class_bijections(classes):
        cand = tr._apply_perm(gen, perm)
        if best is None or cand < best:
            best, maps = cand, [perm]
        elif cand == best:
            maps.append(perm)
    return best, maps


#: Run in a fresh interpreter, so that no memo is warm: the three headline
#: pipelines, cold, recording every generator they admit and counting the
#: permutation searches that ``_least_relabelings`` enters.
HEADLINE_ADMISSIONS = """
import json
from torcycle import pipeline, tautring as tr
admitted, entered = set(), []
admit, bijections = tr._admit, tr._class_bijections
def recorded_admit(space, gen):
    admitted.add(repr(tuple(gen)))
    return admit(space, gen)
def counted_bijections(classes):
    entered.append(len(classes))
    return bijections(classes)
tr._admit, tr._class_bijections = recorded_admit, counted_bijections
pipeline.t_pullback_g4()
pipeline.t_pushforward_Abar4()
pipeline.t_pullback_g5()
print(json.dumps({"entered": len(entered), "admitted": sorted(admitted)}))
"""


@functools.lru_cache(maxsize=1)
def headline_admissions() -> tuple[int, tuple[tr.Gen, ...]]:
    """(searches entered, generators admitted) of the cold headline pipelines."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HEADLINE_ADMISSIONS], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    out = json.loads(proc.stdout)
    return out["entered"], tuple(tr.Gen(*ast.literal_eval(g)) for g in out["admitted"])


def _random_decorated_graph(rng, nv, genera):
    """A generator built field by field, not through ``make_gen``: edges
    (self edges among them) with their ends in either order, legs unsorted,
    psi exponents on both, and a kappa or lambda monomial at some vertices."""
    edges = tuple((rng.randrange(nv), rng.randrange(nv), rng.randint(0, 2), rng.randint(0, 2))
                  for _ in range(rng.randint(0, 4)))
    legs = tuple((lab, rng.randrange(nv), rng.randint(0, 2))
                 for lab in rng.sample("pqrs", rng.randint(0, 4)))
    decor = [[((1, 1),), ((2, 1),), ((1, 2),), ()][rng.randrange(4)] for _ in range(2 * nv)]
    return tr.Gen(tuple(genera), edges, legs, tuple(decor[:nv]), tuple(decor[nv:]))


def _random_decorated_tree(rng):
    nv = rng.randint(1, 6)
    genera = [rng.choice((1, 1, 2)) for _ in range(nv)]
    edges = [(rng.randrange(w), w, rng.choice((0, 0, 0, 1)), rng.choice((0, 0, 0, 1)))
             for w in range(1, nv)]
    legs = [(lab, rng.randrange(nv)) for lab in ("p", "q")[: rng.choice((0, 0, 1, 2))]]
    kap = {rng.randrange(nv): [(1, 1)]} if rng.random() < 0.3 else {}
    return make_gen(genera, edges, legs, kap)


class TestOneSearch:
    """canonicalize and |Aut| come from one search, which finds every vertex
    map onto the canonical form; the deleted scan over every vertex order is
    the oracle, and the search as first written fixes the order of the
    maps."""

    def check(self, a, b):
        c, maps = tr._least_relabelings(a)
        assert (c, maps) == _least_relabelings_by_whole_gens(a)
        assert len(set(maps)) == len(maps)
        assert set(maps) == {tuple(m) for m in _isomorphisms_by_scan(a, c)}
        assert (tr._least_relabelings(b)[0] == c) == bool(_isomorphisms_by_scan(a, b))
        assert canonicalize(a)[1] == len(maps) * tr._halfedge_factor(c)

    def test_random_decorated_trees(self):
        rng = random.Random(20261018)
        symmetric = 0
        for _ in range(300):
            a = _random_decorated_tree(rng)
            perm = list(range(a.n_vertices()))
            rng.shuffle(perm)
            self.check(a, tr._apply_perm(a, perm))
            self.check(a, _random_decorated_tree(rng))
            symmetric += aut_order(a) > 1
        assert symmetric > 25  # many trees have more than one map

    def test_symmetric_22_relabelings(self):
        for edge in ((0, 1), (0, 1, 1, 0)):
            g = make_gen((2, 2), [edge])
            for perm in ([0, 1], [1, 0]):
                self.check(g, tr._apply_perm(g, perm))
        g = make_gen((2, 2), [(0, 1)])
        assert sorted(tr._least_relabelings(g)[1]) == [(0, 1), (1, 0)]

    def test_stable_self_edge_graphs(self):
        for g in (make_gen((3,), [(0, 0)]), make_gen((3,), [(0, 0, 1, 0)]),
                  make_gen((1, 1), [(0, 0), (1, 1), (0, 1)])):
            for perm in itertools.permutations(range(g.n_vertices())):
                self.check(g, tr._apply_perm(g, list(perm)))
        assert aut_order(make_gen((1, 1), [(0, 0), (1, 1), (0, 1)])) == 8

    def test_pruned_scan_is_the_full_scan(self):
        rng = random.Random(20261021)
        trees = [_random_decorated_tree(rng) for _ in range(40)]
        loops = (make_gen((1, 1), [(0, 0), (1, 1), (0, 1)]),
                 make_gen((1, 1, 1), [(0, 1, 1, 0), (1, 2), (2, 2)]))
        pairs = list(zip(trees, trees[1:]))
        pairs += [(a, tr._apply_perm(a, rng.sample(range(a.n_vertices()), a.n_vertices())))
                  for a in trees]
        pairs += [(g, tr._apply_perm(g, list(perm)))
                  for g in loops for perm in itertools.permutations(range(g.n_vertices()))]
        for a, b in pairs:
            full = [list(p) for p in itertools.permutations(range(a.n_vertices()))
                    if tr._apply_perm(a, list(p)) == b]
            assert _isomorphisms_by_scan(a, b) == full

    def test_one_vertex_closed_form(self):
        # self edges unnormalized, (0, 0, 1, 0) among them, and legs unsorted
        rng = random.Random(20261022)
        gens = [tr.Gen((3,), ((0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 2, 1)),
                       (("q", 0, 1), ("p", 0, 0)), (((1, 1),),), ((),))]
        gens += [_random_decorated_graph(rng, 1, (rng.randint(0, 3),)) for _ in range(200)]
        with mock.patch.object(tr, "_class_bijections", side_effect=AssertionError):
            assert all(tr._least_relabelings(a)[1] == [(0,)] for a in gens)
        for a in gens:
            # the scan oracle compares with written-out generators
            b = tr._apply_perm(a._replace(edges=a.edges[::-1], legs=a.legs[::-1]), [0])
            self.check(a, b)
            self.check(a, tr._apply_perm(gens[0], [0]))

    def test_forced_labelings(self):
        # distinct genera, or legs on one of two equal vertices, leave every
        # class a single vertex: the one map is written down, not searched
        rng = random.Random(20261023)
        gens = [make_gen((1, 1), [(0, 1)], [("p", 0)]), make_gen((1, 2, 3), [(0, 1), (1, 2)]),
                make_gen((2, 1), [(0, 1, 1, 0), (1, 1)], [("q", 1, 2)])]
        for _ in range(200):
            nv = rng.randint(2, 4)
            gens.append(_random_decorated_graph(rng, nv, rng.sample(range(5), nv)))
        with mock.patch.object(tr, "_class_bijections", side_effect=AssertionError):
            assert all(len(tr._least_relabelings(a)[1]) == 1 for a in gens)
        for a in gens:
            perm = rng.sample(range(a.n_vertices()), a.n_vertices())
            self.check(a, tr._apply_perm(a, perm))
            other = gens[rng.randrange(len(gens))]
            self.check(a, tr._apply_perm(other, range(other.n_vertices())))

    def test_headline_generators(self):
        # every generator the three headline pipelines admit, relabeled
        rng = random.Random(20261024)
        _, gens = headline_admissions()
        assert len(gens) > 90 and any(g.n_vertices() > 1 for g in gens)
        for a in gens:
            perm = rng.sample(range(a.n_vertices()), a.n_vertices())
            self.check(a, tr._apply_perm(a, perm))

    def test_headline_searches_bounded(self):
        # of the canonical searches of the cold headline pipelines, only
        # the symmetric (2, 2) graphs of genus 4 leave a class of two
        # vertices; every other one is a lone vertex or a forced labeling
        entered, _ = headline_admissions()
        assert entered <= 2

    @pytest.mark.parametrize("positive_only", [True, False])
    def test_census_trees(self, positive_only):
        # every tree of the census layers g <= 6 (up to 10 vertices),
        # relabeled, comes back as itself with every map onto it
        rng = random.Random(20261020)
        for g in range(1, 7):
            for t in ctp.enumerate_stable_trees(g, positive_only):
                perm = list(range(t.n_vertices()))
                rng.shuffle(perm)
                a = tr._apply_perm(t, perm)
                assert tr._least_relabelings(a)[0] == t
                self.check(a, t)


def _stability_by_vertex(gen, policy):
    """check_stability's message (None when stable), each valence counted
    vertex by vertex from its definition."""
    for v, g in enumerate(gen.genera):
        valence = sum((a == v) + (b == v) for (a, b, _, _) in gen.edges)
        valence += sum(lv == v for (_, lv, _) in gen.legs)
        if g < 0:
            return f"vertex {v} has negative genus"
        if 2 * g - 2 + valence <= 0:
            return f"vertex {v} (genus {g}, valence {valence}) is unstable"
    if policy == "ct":
        if any(a == b for (a, b, _, _) in gen.edges):
            return "self edge not allowed on compact type"
        if len(gen.edges) != gen.n_vertices() - 1 or not tr._is_connected(gen):
            return "compact type dual graph must be a tree"
    elif not tr._is_connected(gen):
        return "graph must be connected"
    return None


def _prunable_by_vertex(gen):
    """_prunable from its definition: some vertex's decoration degree
    exceeds 3g - 3 + valence, or it carries a lambda_i with i > g."""
    for v, g in enumerate(gen.genera):
        degree = sum(i * e for (i, e) in gen.kappa[v] + gen.lam[v])
        degree += sum(e for (_, lv, e) in gen.legs if lv == v)
        degree += sum(av for (a, _, av, _) in gen.edges if a == v)
        degree += sum(aw for (_, b, _, aw) in gen.edges if b == v)
        valence = sum((a == v) + (b == v) for (a, b, _, _) in gen.edges)
        valence += sum(lv == v for (_, lv, _) in gen.legs)
        if degree > 3 * g - 3 + valence or any(i > g for (i, _) in gen.lam[v]):
            return True
    return False


class TestStability:
    def test_one_pass_checks_match_definitions(self):
        rng = random.Random(20261025)
        messages, pruned = set(), 0
        for _ in range(2000):
            nv = rng.randint(1, 4)
            gen = _random_decorated_graph(rng, nv, [rng.randint(-1, 3) for _ in range(nv)])
            for policy in ("ct", "stable"):
                try:
                    tr.check_stability(gen, policy)
                    message = None
                except UnstableGraphError as err:
                    message = str(err)
                assert message == _stability_by_vertex(gen, policy), (gen, policy)
                messages.add(message and message.split(" (")[0].split()[0])
            if min(gen.genera) >= 0:
                assert tr._prunable(gen) == _prunable_by_vertex(gen), gen
                pruned += tr._prunable(gen)
        # every verdict is met: stable, each kind of message, pruned or not
        assert messages == {None, "vertex", "self", "compact", "graph"}
        assert 200 < pruned < 1800

    def test_unstable_named(self):
        g = make_gen((0, 4), [(0, 1)])
        with pytest.raises(UnstableGraphError, match="vertex 0"):
            TautClass(M4, {g: F(1)})

    def test_selfedge_rejected_on_ct(self):
        g = make_gen((3,), [(0, 0)])
        with pytest.raises(UnstableGraphError):
            TautClass(M4, {g: F(1)})


ADMISSION_SPACES = [(g, n) for g in range(1, 5) for n in range(3) if 2 * g - 2 + n > 0]
SMALL_FRACTIONS = [F(0), F(1), F(-1), F(2), F(-1, 2), F(1, 3), F(-5, 6)]


def _span_basis(space):
    """Interior monomials, the one-edge boundary generators and
    lambda-decorated boundary terms of one ambient."""
    basis = [one(space), kappa(space, 1), kappa(space, 2)]
    basis += [lam(space, i) for i in range(1, space.genus + 1)]
    basis += [psi(space, m) for m in space.markings]
    for cg, _ in one_edge_graphs(space):
        boundary = TautClass(space, {cg: F(1)})
        basis += [boundary, multiply(lam(space), boundary)]
    return basis


def _combine(space, basis, coeffs):
    out = zero(space)
    for c, cls in zip(coeffs, basis):
        out = out + c * cls
    return out


def _divisor_span(space):
    """lambda_1, kappa_1, delta_total, the psi_p, and their pairwise products."""
    divisors = [lam(space), kappa(space, 1), delta_total(space)]
    divisors += [psi(space, m) for m in space.markings]
    return divisors + [multiply(d, e) for i, d in enumerate(divisors) for e in divisors[i:]]


class TestAdmission:
    """Public constructors validate; arithmetic of admitted classes keeps
    every term admitted and refuses to mix ambients."""

    def test_genus_mismatch(self):
        with pytest.raises(ValueError, match="genus"):
            TautClass(M4, {make_gen((3,)): F(1)})

    def test_marking_mismatch(self):
        with pytest.raises(ValueError, match="markings"):
            TautClass(M4, {make_gen((4,), (), [("p", 0)]): F(1)})
        with pytest.raises(ValueError, match="markings"):
            TautClass(M41, {make_gen((4,)): F(1)})

    @pytest.mark.parametrize("where", ["kappa", "lam"])
    def test_index_zero_is_not_a_generator(self, where):
        # kappa_0 = 2g - 2 + n and lambda_0 = 1 are scalars
        with pytest.raises(ValueError, match="kappa_0 and lambda_0 are scalars"):
            make_gen((2,), (), [("p", 0)], **{where: {0: [(0, 1)]}})

    def test_product_factor_genus_mismatch(self):
        # the genus-2 generator on the genus-1 factor is refused as TautClass
        # refuses it
        spaces = [ModuliSpec(1, ("p",)), ModuliSpec(3, ("q", "y"))]
        wrong = make_gen((2,), (), [("z", 0)])
        right = make_gen((3,), (), [("q", 0), ("y", 0)])
        with pytest.raises(ValueError, match="genus does not match"):
            TautClass(spaces[0], {wrong: F(1)})
        with pytest.raises(ValueError, match="genus does not match"):
            ProductClass(spaces, {(wrong, right): F(1)})

    def test_product_factor_marking_mismatch(self):
        spaces = [ModuliSpec(1, ("p",)), ModuliSpec(3, ("q", "y"))]
        with pytest.raises(ValueError, match="markings do not match"):
            ProductClass(spaces, {(make_gen((1,), (), [("z", 0)]),
                                   make_gen((3,), (), [("q", 0), ("y", 0)])): F(1)})

    def test_product_factor_unstable(self):
        spaces = [ModuliSpec(0, ("a", "b", "c")), M11]
        with pytest.raises(UnstableGraphError):
            ProductClass(spaces, {(make_gen((0, 0), [(0, 1)], [("a", 0), ("b", 1), ("c", 1)]),
                                   make_gen((1,), (), [("p", 0)])): F(1)})

    @pytest.mark.parametrize("size", [1, 3])
    def test_product_key_length(self, size):
        spaces = [ModuliSpec(1, ("p",)), ModuliSpec(3, ("q", "y"))]
        key = (make_gen((1,), (), [("p", 0)]),) * size
        with pytest.raises(ValueError, match="one generator per factor"):
            ProductClass(spaces, {key: F(1)})

    def test_product_factor_pruned(self):
        # psi_p^2 on M_{1,{p}} exceeds its dimension, so the term vanishes
        spaces = [M11, ModuliSpec(3, ("q", "y"))]
        pc = ProductClass(spaces, {(make_gen((1,), (), [("p", 0, 2)]),
                                    make_gen((3,), (), [("q", 0), ("y", 0)])): F(1)})
        assert pc.is_zero()

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_taut_ambient_mismatch(self, op):
        a, b = lam(M4), lam(M41)
        with pytest.raises(ValueError, match="ambient mismatch"):
            a + b if op == "add" else a - b

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_product_factor_mismatch(self, op):
        a = ProductClass.from_factors([one(M4), one(M11)])
        b = ProductClass.from_factors([one(M41), one(M11)])
        with pytest.raises(ValueError, match="factor mismatch"):
            a + b if op == "add" else a - b

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_stays_admitted(self, data):
        g, n = data.draw(st.sampled_from(ADMISSION_SPACES))
        space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
        basis = _span_basis(space)
        coeffs = st.lists(st.sampled_from(SMALL_FRACTIONS), min_size=len(basis),
                          max_size=len(basis))
        a = _combine(space, basis, data.draw(coeffs))
        b = _combine(space, basis, data.draw(coeffs))
        s = data.draw(st.sampled_from(SMALL_FRACTIONS))
        # a minus its boundary terms: the interior part
        interior = a - TautClass(space, {g: c for g, c in a.terms.items() if g.edges})
        assert all(not g.edges for g in interior.terms)
        for result in (a + b, a - b, s * a, interior):
            assert result == TautClass(space, result.terms)
        total = a + b
        for gen in set(a.terms) | set(b.terms):
            assert total.coefficient(gen) == a.coefficient(gen) + b.coefficient(gen)
        pc = ProductClass.from_factors([a, b])
        for result in (pc, pc + pc, pc - s * pc):
            assert result == ProductClass(result.spaces, result.terms)


class TestKernelLaws:
    """Laws of the sparse kernel on random spans, and its accumulation
    helper against the pairwise fold of ``+``."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_laws(self, data):
        g, n = data.draw(st.sampled_from(ADMISSION_SPACES))
        space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
        basis = _span_basis(space)
        coeffs = st.lists(st.sampled_from(SMALL_FRACTIONS), min_size=len(basis),
                          max_size=len(basis))
        a, b, c = (_combine(space, basis, data.draw(coeffs)) for _ in range(3))
        s, t = (data.draw(st.sampled_from(SMALL_FRACTIONS)) for _ in range(2))
        parts = [(s, a), (t, b), (1, c), (-1, a)]
        fold = zero(space)
        for scale, x in parts:
            fold = fold + scale * x
        assert TautClass._carry(space, _accumulate((k, x.terms) for k, x in parts)) == fold
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero() and ((-1) * a + a).is_zero()
        assert s * (a + b) == s * a + s * b
        assert (s + t) * a == s * a + t * a
        pc = ProductClass.from_factors([a, b])
        assert (pc - pc).is_zero()
        assert s * pc + t * pc == (s + t) * pc


def _normalized(c) -> bool:
    """Every coefficient of c is an int, or a Fraction that is not integral:
    no float and no Fraction n/1."""
    return all(type(x) is int or (type(x) is F and x.denominator > 1) for x in c.terms.values())


def _as_fractions(c):
    """c with every coefficient a Fraction, past the normalizing
    constructors: the input of the Fraction-only reference computation."""
    return type(c)._carry(c._ambient(), {k: F(x) for k, x in c.terms.items()})


EXACT_SPACES = [M4, ModuliSpec(2, ("p", "q"))]
#: ints, proper fractions, and Fractions that are integers (2/1, -3/1)
MIXED_SCALARS = [0, 1, -1, 2, F(2), F(-3), F(-1, 2), F(1, 3), F(-5, 6), F(4, 3)]


class TestExactCoefficients:
    """Integral coefficients are ints and the others Fractions, through sums,
    scalar multiples and products; the numbers are those of the same
    computation with every input coefficient a Fraction."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_int_when_integral(self, data):
        space = data.draw(st.sampled_from(EXACT_SPACES))
        divisors = [lam(space), kappa(space, 1), delta_total(space)]
        divisors += [psi(space, m) for m in space.markings]
        divisors += [TautClass(space, {cg: 1}) for cg, _ in one_edge_graphs(space)]
        basis = _span_basis(space)
        scalars = st.sampled_from(MIXED_SCALARS)
        d = _combine(space, divisors, data.draw(st.lists(scalars, min_size=len(divisors),
                                                         max_size=len(divisors))))
        a = _combine(space, basis, data.draw(st.lists(scalars, min_size=len(basis),
                                                      max_size=len(basis))))
        s, t = data.draw(scalars), data.draw(scalars)

        def compute(a, d, s, t):
            pc = ProductClass.from_factors([d, a])
            return [a + d, a - s * d, s * a, d * t, (-1) * a, multiply(d, a), multiply(d, d),
                    multiply(s * d, t * a), pc, t * pc - pc,
                    ProductClass.from_factors([d, d]) * ProductClass.from_factors([s * d, d])]

        fast = compute(a, d, s, t)
        slow = compute(_as_fractions(a), _as_fractions(d), F(s), F(t))
        for got, want in zip(fast, slow):
            assert _normalized(got), got.terms
            assert got == want

    def test_constructors_and_builders(self):
        for space in EXACT_SPACES:
            bare = tr._trivial_gen(space)
            for c in (*_span_basis(space), delta_total(space), kappa(space, 0),
                      TautClass(space, {bare: F(6, 3)}), TautClass(space, {bare: 2.5})):
                assert _normalized(c), c.terms
            spaces = glue_spaces(space, boundary_gen(space, 1, ()))
            pc = ProductClass(spaces, {tuple(map(tr._trivial_gen, spaces)): F(6, 3)})
            assert list(pc.terms.values()) == [2] and _normalized(pc)

    def test_rejection_is_not_memoized(self):
        # an unstable generator raises on every admission, not only the first
        unstable = make_gen((0, 4), [(0, 1)])
        for _ in range(2):
            with pytest.raises(UnstableGraphError, match="vertex 0"):
                tr._admit(M4, unstable)
        ok = make_gen((4,))
        assert tr._admit(M4, ok) is tr._admit(M4, ok)


class TestOneEdgeGraphs:
    def test_genus4_closed(self):
        gens = one_edge_graphs(M4)
        assert len(gens) == 2  # (1,3) and (2,2)
        auts = sorted(a for _, a in gens)
        assert auts == [1, 2]

    def test_genus4_stable(self):
        gens = one_edge_graphs(ModuliSpec(4, (), "stable"))
        assert len(gens) == 3  # adds the self-edge graph
        assert any(v == w for g, _ in gens for (v, w, _, _) in g.edges)

    def test_m11_ct_empty(self):
        assert one_edge_graphs(M11) == ()

    def test_m21_single(self):
        gens = one_edge_graphs(ModuliSpec(2, ("p",)))
        assert len(gens) == 1
        assert gens[0][1] == 1


class TestMultiply:
    def test_lambda_square(self):
        c = multiply(lam(M4), lam(M4))
        assert c == TautClass(M4, {make_gen((4,), (), (), {}, {0: [(1, 2)]}): F(1)})

    def test_lambda_on_generator(self):
        gen = boundary_gen(M4, 1, ())
        c = multiply(lam(M4), TautClass(M4, {gen: F(1)}))
        expect = TautClass(
            M4,
            {
                make_gen((1, 3), [(0, 1)], (), {}, {0: [(1, 1)]}): F(1),
                make_gen((1, 3), [(0, 1)], (), {}, {1: [(1, 1)]}): F(1),
            },
        )
        assert c == expect

    def test_bilinear(self):
        a = 3 * lam(M4) - delta_total(M4)
        b = 2 * delta_sep(M4, 1) + lam(M4)
        c = one(M4) + kappa(M4, 2)
        lhs = multiply(a + b, c)
        rhs = multiply(a, c) + multiply(b, c)
        assert lhs == rhs

    def test_commutes_on_divisors(self):
        d1 = delta_total(M4)
        d2 = 13 * lam(M4) - 2 * delta_total(M4)
        assert multiply(d1, d2) == multiply(d2, d1)

    def test_delta_square_symmetric_routes(self):
        dA = delta_sep(M4, 1)
        dB = delta_sep(M4, 2)
        assert multiply(dA, dB) == multiply(dB, dA)

    def test_degree_additive(self):
        d = delta_total(M4)
        c = kappa(M4, 2) + multiply(lam(M4), lam(M4))
        prod = multiply(d, c)
        assert {gen.degree() for gen in prod.terms} <= {3}

    def test_excess_on_B(self):
        # [B,1]^2 = xi_*(2(-psi-psibar)) on the (2,2) graph
        genB = boundary_gen(M4, 2, ())
        sq = multiply(TautClass(M4, {genB: F(1)}), TautClass(M4, {genB: F(1)}))
        expect = -4 * TautClass(M4, {boundary_gen(M4, 2, (), exps=(1, 0)): F(1)})
        assert sq == expect

    def test_kappa1_expand_idempotent(self):
        c = kappa(M41, 1)
        e1 = kappa1_expand(c)
        assert kappa1_expand(e1) == e1
        assert e1 == 12 * lam(M41) + psi(M41, "p") - delta_total(M41)

    def test_kappa1_expand_commutes_with_multiply(self):
        d = lam(M41)
        c = kappa(M41, 1)
        assert kappa1_expand(multiply(d, c)) == multiply(d, kappa1_expand(c))

    @given(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=3,
            max_size=3,
        ),
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinearity_random_divisors(self, xs, ys):
        basis = (lam(M4), delta_sep(M4, 1), delta_sep(M4, 2))
        d1 = sum((x * b for x, b in zip(xs, basis)), zero(M4))
        d2 = sum((y * b for y, b in zip(ys, basis)), zero(M4))
        target = kappa(M4, 2) + delta_total(M4)
        lhs = multiply(d1 + d2, target)
        rhs = multiply(d1, target) + multiply(d2, target)
        assert lhs == rhs
        assert multiply(d1, d2) == multiply(d2, d1)


class TestTable1Gluing:
    def setup_method(self):
        self.graph = tr._undecorated(boundary_gen(M4, 2, ()))
        self.spaces = glue_spaces(M4, self.graph)

    def test_lambda_row(self):
        pc = pullback_gluing(lam(M4), self.graph)
        expect = ProductClass.from_factors([lam(self.spaces[0]), one(self.spaces[1])]) + ProductClass.from_factors(
            [one(self.spaces[0]), lam(self.spaces[1])]
        )
        assert pc == expect

    def test_kappa_row(self):
        pc = pullback_gluing(kappa(M4, 2), self.graph)
        expect = ProductClass.from_factors(
            [kappa(self.spaces[0], 2), one(self.spaces[1])]
        ) + ProductClass.from_factors([one(self.spaces[0]), kappa(self.spaces[1], 2)])
        assert pc == expect

    def test_delta_row(self):
        # xi^* delta = delta x 1 + 1 x delta - psi_h x 1 - 1 x psi_hbar
        pc = pullback_gluing(delta_total(M4), self.graph)
        s0, s1 = self.spaces
        h0 = [m for m in s0.markings if m.startswith("__e")][0]
        h1 = [m for m in s1.markings if m.startswith("__e")][0]
        expect = (
            ProductClass.from_factors([delta_total(s0), one(s1)])
            + ProductClass.from_factors([one(s0), delta_total(s1)])
            - ProductClass.from_factors([psi(s0, h0), one(s1)])
            - ProductClass.from_factors([one(s0), psi(s1, h1)])
        )
        assert pc == expect

    def test_delta_row_A_graph(self):
        graph = tr._undecorated(boundary_gen(M4, 1, ()))
        spaces = glue_spaces(M4, graph)
        pc = pullback_gluing(delta_total(M4), graph)
        s0, s1 = spaces
        h0 = [m for m in s0.markings if m.startswith("__e")][0]
        h1 = [m for m in s1.markings if m.startswith("__e")][0]
        expect = (
            ProductClass.from_factors([delta_total(s0), one(s1)])
            + ProductClass.from_factors([one(s0), delta_total(s1)])
            - ProductClass.from_factors([psi(s0, h0), one(s1)])
            - ProductClass.from_factors([one(s0), psi(s1, h1)])
        )
        assert pc == expect

    def test_glue_pushforward_B(self):
        pc = ProductClass.from_factors([one(sp) for sp in self.spaces])
        cls = pushforward_gluing(M4, self.graph, pc)
        assert cls == TautClass(M4, {boundary_gen(M4, 2, ()): F(1)})
        assert F(1, 2) * cls == delta_sep(M4, 2)

    def test_lambda_splits_over_vertices(self):
        # c(xi^*E) = c(E_0) c(E_1): lambda_2 restricts to lambda_2 x 1 +
        # lambda_1 x lambda_1 + 1 x lambda_2, lambda_4 to lambda_2 x lambda_2
        s0, s1 = self.spaces
        pc = pullback_gluing(lam(M4, 2), self.graph)
        assert pc == (
            ProductClass.from_factors([lam(s0, 2), one(s1)])
            + ProductClass.from_factors([lam(s0, 1), lam(s1, 1)])
            + ProductClass.from_factors([one(s0), lam(s1, 2)])
        )
        assert pullback_gluing(lam(M4, 4), self.graph) == ProductClass.from_factors(
            [lam(s0, 2), lam(s1, 2)]
        )

    def test_lambda_above_genus_vanishes(self):
        assert lam(ModuliSpec(2, ("p",)), 3).is_zero()
        assert not lam(ModuliSpec(2, ("p",)), 2).is_zero()

    @pytest.mark.parametrize("g, markings, g1", [
        (4, (), 1), (4, (), 2), (4, (), 3), (2, ("p", "q"), 1),
    ], ids=["M4-g1", "M4-g2", "M4-g3", "M2pq-g1"])
    def test_kappa1_cubed(self, g, markings, g1):
        # the factor products of a pulled-back kappa_1^3 nest one gluing
        # pullback inside another, on factor spaces that carry slots
        space = ModuliSpec(g, markings)
        graph = boundary_gen(space, g1, ())
        single = pullback_gluing(kappa(space, 1), graph)
        cubed = pullback_gluing(monomial(space, [(1, 3)]), graph)
        assert cubed == single * single * single
        assert not cubed.is_zero()

    def test_glue_pushforward_decorated(self):
        graphA = tr._undecorated(boundary_gen(M4, 1, ()))
        spacesA = glue_spaces(M4, graphA)
        s0, s1 = spacesA
        h0 = [m for m in s0.markings if m.startswith("__e")][0]
        pc = ProductClass.from_factors([psi(s0, h0), one(s1)])
        cls = pushforward_gluing(M4, graphA, pc)
        assert cls == TautClass(M4, {boundary_gen(M4, 1, (), exps=(1, 0)): F(1)})


def _separating(space):
    return [g for g, _ in one_edge_graphs(space) if all(a != b for (a, b, _, _) in g.edges)]


class TestBoundaryPullback:
    """xi_Gamma^* of a one-edge boundary generator, read off its two sides."""

    SPACES = [M4, ModuliSpec(3, ("p",)), M41, ModuliSpec(2, ("p", "q")),
              ModuliSpec(3, ("p", "q")), ModuliSpec(2, ("p", "q"), "stable"), ModuliSpec(5, ())]

    def test_ring_homomorphism(self):
        # xi^*(d y) = xi^*d . xi^*y: d y carries the kappa, lambda and psi
        # decorations of y onto d's vertices, or is a two-edge graph, whose
        # pullback is outside the one-edge calculus
        checked, failed = 0, []
        for space in self.SPACES:
            seps = _separating(space)
            ys = [kappa(space, 1), kappa(space, 2), lam(space, 1), lam(space, 2)]
            ys += [psi(space, p) for p in space.markings]
            ys += [TautClass(space, {g: F(1)}) for g in seps]
            for dgen, graph, y in itertools.product(seps, seps, ys):
                d = TautClass(space, {dgen: F(1)})
                try:
                    lhs = pullback_gluing(tr._mul_poly(d, y), graph)
                except tr.UnsupportedOperation as exc:
                    assert "one-edge graphs only" in str(exc)
                    continue
                checked += 1
                if lhs != pullback_gluing(d, graph) * pullback_gluing(y, graph):
                    failed.append((space, gen_to_string(graph), str(d), str(y)))
        assert failed == []
        assert checked >= 400

    def test_symmetric_side_counted_once(self):
        # both sides of the (2,2) graph split the genus-3 vertex of the
        # (1,3) graph; with unequal edge psi the two splits differ and each
        # is counted once, with no |Aut| factor of the undecorated graph
        delta = TautClass(M4, {boundary_gen(M4, 2, (), exps=(1, 0)): F(1)})
        pc = pullback_gluing(delta, boundary_gen(M4, 1, ()))
        assert len(pc.terms) == 2
        assert set(pc.terms.values()) == {F(1)}
        # so xi_A^*(delta_B^2) = (xi_A^* delta_B)^2
        dB, graph = delta_sep(M4, 2), boundary_gen(M4, 1, ())
        assert pullback_gluing(multiply(dB, dB), graph) == (
            pullback_gluing(dB, graph) * pullback_gluing(dB, graph))


def _pull_free_by_products(up, gen, x):
    """The earlier forgetful pullback of a free monomial, kept as an oracle:
    the product, by ``_mul_poly``, of its pulled-back factors lambda_i,
    kappa_i - psi_x^i, and psi_p^b less the rational tail through p and x."""
    factors = [lam(up, i) for (i, e) in gen.lam[0] for _ in range(e)]
    for (i, e) in gen.kappa[0]:
        factors += [kappa(up, i) - psi(up, x, i)] * e
    for (lab, _, b) in gen.legs:
        if b:
            tail = boundary_gen(up, 0, (lab, x), exps=(0, b - 1))
            factors.append(psi(up, lab, b) - TautClass(up, {tail: 1}))
    acc = one(up)
    for factor in factors:
        acc = tr._mul_poly(factor, acc)
    return acc


@st.composite
def pullback_cases(draw):
    """A free monomial (psi exponents up to 3) or a decorated one-edge class
    on M_{g,n}, g <= 4 and n <= 3, on either policy."""
    g = draw(st.integers(0, 4))
    n = draw(st.integers(3 if g == 0 else 1 if g == 1 else 0, 3))
    space = ModuliSpec(g, ("p", "q", "r")[:n], draw(st.sampled_from(("ct", "stable"))))
    graphs = one_edge_graphs(space)
    if graphs and draw(st.booleans()):
        gen, _ = draw(st.sampled_from(graphs))
        (a, b, _, _), = gen.edges
        edge = (a, b, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        legs = [(lab, v, draw(st.integers(0, 2))) for (lab, v, _) in gen.legs]
        kap = {draw(st.integers(0, gen.n_vertices() - 1)): [(draw(st.integers(1, 2)), 1)]}
        return TautClass(space, {make_gen(gen.genera, [edge], legs, kap): 1})
    kap = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2))
    lm = [(draw(st.integers(1, g)), 1)] if g and draw(st.booleans()) else []
    psis = {lab: draw(st.integers(0, 3)) for lab in space.markings}
    return TautClass(space, {tr._trivial_gen(space, kap, lm, psis): 1})


class TestForgetful:
    @given(pullback_cases())
    @settings(max_examples=80, deadline=None)
    def test_pull_closed_form_matches_products(self, c):
        # the closed form against the factor-by-factor product it replaced
        got = pullback_forgetful(c, "x")
        with mock.patch.object(tr, "_pull_free_forgetful", _pull_free_by_products):
            assert got == pullback_forgetful(c, "x")

    def test_pull_closed_form_random_monomials(self):
        rng = random.Random(20261020)
        nonzero = 0
        for _ in range(200):
            down, gen, x = _random_free_monomial(rng)
            gen = tr._trivial_gen(down, gen.kappa[0], gen.lam[0],
                                  {lab: e for (lab, _, e) in gen.legs if lab != x})
            up = down.with_extra_marking(x)
            got = tr._pull_free_forgetful(up, gen, x)
            assert got == _pull_free_by_products(up, gen, x), gen_to_string(gen)
            nonzero += not got.is_zero()
        assert nonzero > 60

    def test_pull_kappa(self):
        up = pullback_forgetful(kappa(M41.without_marking("p").with_extra_marking("p"), 2), "x")
        space_up = M41.with_extra_marking("x")
        assert up == kappa(space_up, 2) - psi(space_up, "x", 2)

    def test_pull_lambda(self):
        up = pullback_forgetful(lam(M41), "x")
        assert up == lam(M41.with_extra_marking("x"))

    def test_pull_psi(self):
        space_up = M41.with_extra_marking("x")
        up = pullback_forgetful(psi(M41, "p"), "x")
        assert up == psi(space_up, "p") - delta_zero_pair(space_up, "p", "x")

    def test_pull_delta(self):
        space_up = M41.with_extra_marking("x")
        up = pullback_forgetful(delta_total(M41), "x")
        expect = delta_total(space_up) - delta_zero_pair(space_up, "p", "x")
        assert up == expect

    def test_push_lambda_zero(self):
        space_up = M41.with_extra_marking("x")
        assert pushforward_forgetful(lam(space_up), "x").is_zero()

    def test_push_psi_x(self):
        space_up = M41.with_extra_marking("x")
        out = pushforward_forgetful(psi(space_up, "x"), "x")
        assert out == F(2 * 4 - 2 + 1) * one(M41)

    def test_push_psi_p(self):
        space_up = M41.with_extra_marking("x")
        assert pushforward_forgetful(psi(space_up, "p"), "x") == one(M41)

    def test_push_kappa(self):
        space_up = M41.with_extra_marking("x")
        assert pushforward_forgetful(kappa(space_up, 2), "x") == kappa(M41, 1)

    def test_push_kappa_square(self):
        # kappa_1^2 = (pi^*kappa_1 + psi_x)^2 upstairs: the cross term's
        # binomial 2 gives 2 * (2g-2+n) kappa_1, psi_x^2 gives kappa_1
        space_up = M41.with_extra_marking("x")
        out = pushforward_forgetful(monomial(space_up, [(1, 2)]), "x")
        assert out == 15 * kappa(M41, 1)

    def test_push_delta_row(self):
        space_up = M41.with_extra_marking("x")
        out = pushforward_forgetful(delta_total(space_up), "x")
        assert out == F(1) * one(M41)  # n = |P| = 1 downstairs

    def test_projection_formula_roundtrip(self):
        # pi_*(pi^* alpha . psi_x) = (2g-2+n) alpha
        for alpha in (lam(M41), kappa(M41, 2), delta_total(M41)):
            up = pullback_forgetful(alpha, "x")
            prod = multiply(psi(M41.with_extra_marking("x"), "x"), up)
            down = pushforward_forgetful(prod, "x")
            assert down == F(2 * 4 - 2 + 1) * alpha, str(alpha)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_projection_formula_property(self, data):
        # pi_*(psi_x . pi^* a) = (2g-2+n) a on random combinations of the
        # divisors and their pairwise products
        g, n = data.draw(st.sampled_from(ADMISSION_SPACES))
        space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
        basis = _divisor_span(space)
        coeffs = st.lists(st.sampled_from(SMALL_FRACTIONS), min_size=len(basis),
                          max_size=len(basis))
        a = _combine(space, basis, data.draw(coeffs))
        up = space.with_extra_marking("x")
        down = pushforward_forgetful(multiply(psi(up, "x"), pullback_forgetful(a, "x")), "x")
        assert down == (2 * g - 2 + n) * a

    def _probe_classes(self):
        return {
            "decorated gen": TautClass(
                M41, {boundary_gen(M41, 1, (), exps=(1, 0)): F(1)}
            ),
            "both ends": TautClass(
                M41, {boundary_gen(M41, 1, (), exps=(1, 1)): F(1)}
            ),
            "marking on tail": TautClass(M41, {boundary_gen(M41, 1, ("p",)): F(1)}),
            "psi square": psi(M41, "p", 2),
            "kappa3": kappa(M41, 3),
            "mixed": monomial(M41, [(2, 1)], [(1, 1)]),
        }

    def test_push_pull_vanishes(self):
        # pi_* pi^* = 0 through every term shape, including the node
        # bubbles created by pulling back half-edge psi decorations
        for name, alpha in self._probe_classes().items():
            z = pushforward_forgetful(pullback_forgetful(alpha, "x"), "x")
            assert z.is_zero(), name

    def test_psi_weighted_roundtrip_decorated(self):
        up_space = M41.with_extra_marking("x")
        for name, alpha in self._probe_classes().items():
            pulled = pullback_forgetful(alpha, "x")
            down = pushforward_forgetful(multiply(psi(up_space, "x"), pulled), "x")
            assert down == F(7) * alpha, name


def _random_leggy_tree(rng):
    """A compact-type tree on up to 5 vertices with legs, half-edge psi and
    kappa/lambda decorations."""
    nv = rng.randint(1, 5)
    genera = [rng.choice((1, 1, 2, 3) if nv > 1 else (2, 3)) for _ in range(nv)]
    edges = [(rng.randrange(w), w, rng.choice((0, 0, 1)), rng.choice((0, 0, 1)))
             for w in range(1, nv)]
    legs = [(lab, rng.randrange(nv), rng.choice((0, 0, 1)))
            for lab in ("p", "q", "r")[: rng.randint(0, 3)]]
    kap = {rng.randrange(nv): [(rng.choice((1, 2)), 1)]} if rng.random() < 0.5 else {}
    lm = {rng.randrange(nv): [(1, 1)]} if rng.random() < 0.4 else {}
    return make_gen(genera, edges, legs, kap, lm)


def _space_of(gen, policy="ct"):
    return ModuliSpec(gen.total_genus(), tuple(lab for (lab, _, _) in gen.legs), policy)


def _own_factor(gen, v, policy):
    factor = tr._vertex_factors(gen)[v]
    return TautClass(tr._vertex_space(factor, policy), {factor: F(1)})


def _contract_by_hand(gen, k):
    """(coarse, m, factor): gen with its edge k contracted to vertex m of
    coarse, and factor the two-vertex generator on m's moduli whose gluing
    in place of m gives gen back."""
    a, b, pa, pb = gen.edges[k]
    keep = [u for u in range(gen.n_vertices()) if u != b]
    index = {u: i for i, u in enumerate(keep)}
    index[b] = m = index[a]
    coarse = make_gen(
        [gen.genera[u] + (gen.genera[b] if u == a else 0) for u in keep],
        [(index[p], index[q], x, y) for i, (p, q, x, y) in enumerate(gen.edges) if i != k],
        [(lab, index[v], e) for (lab, v, e) in gen.legs],
        {index[u]: gen.kappa[u] for u in keep if u != a},
        {index[u]: gen.lam[u] for u in keep if u != a},
    )
    side = {a: 0, b: 1}
    slots = tr._halfedge_slots(coarse)
    legs = []
    for (lab, _, e) in tr._vertex_factors(coarse)[m].legs:
        if (m, lab) in slots:  # the coarse edge's far end names gen's edge
            j = slots.index((m, lab))
            p, q, _, _ = coarse.edges[j // 2]
            far = keep[q if j % 2 == 0 else p]
            end = next(u for (x, y, _, _) in gen.edges for u in (a, b) if {x, y} == {far, u})
            legs.append((lab, side[end], e))
        else:
            legs.append((lab, side[gen.leg_vertex(lab)], e))
    factor = make_gen((gen.genera[a], gen.genera[b]), [(0, 1, pa, pb)], legs,
                      {0: gen.kappa[a], 1: gen.kappa[b]}, {0: gen.lam[a], 1: gen.lam[b]})
    return coarse, m, factor


class TestRegluing:
    """Every generator is its vertex factors glued along its edges, so
    re-gluing a factor in its own place is the identity."""

    def test_own_factor_random_trees(self):
        rng = random.Random(20261019)
        nonzero = 0
        for _ in range(200):
            gen = _random_leggy_tree(rng)
            space = _space_of(gen)
            expect = TautClass(space, {gen: F(1)})
            nonzero += not expect.is_zero()
            for v in range(gen.n_vertices()):
                assert tr._expand_vertex(space, gen, v, _own_factor(gen, v, "ct")) == expect
        assert nonzero > 100

    def test_own_factor_stable_self_edges(self):
        for gen in (make_gen((2,), [(0, 0, 1, 0)], [("p", 0, 1)]),
                    make_gen((1, 1), [(0, 0, 1, 0), (1, 1), (0, 1, 0, 1)], [("p", 1)],
                             {0: [(1, 1)]})):
            space = _space_of(gen, "stable")
            expect = TautClass(space, {gen: F(1)})
            assert not expect.is_zero()
            for v in range(gen.n_vertices()):
                assert tr._expand_vertex(space, gen, v, _own_factor(gen, v, "stable")) == expect

    def test_factor_with_an_edge(self):
        # gluing a two-vertex factor in place of the vertex its edge was
        # contracted to gives the fine tree back
        rng = random.Random(20261020)
        checked = 0
        for _ in range(200):
            gen = _random_leggy_tree(rng)
            for k in range(len(gen.edges)):
                coarse, m, factor = _contract_by_hand(gen, k)
                space = _space_of(gen)
                vspec = tr._vertex_space(tr._vertex_factors(coarse)[m], "ct")
                got = tr._expand_vertex(space, coarse, m, TautClass(vspec, {factor: F(1)}))
                assert got == TautClass(space, {gen: F(1)})
                checked += not got.is_zero()
        assert checked > 100


@st.composite
def anatomy_cases(draw):
    """(generator, policy): a random decorated compact-type tree with legs
    or, on the stable policy, the same with a self edge added."""
    gen = _random_leggy_tree(random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        return gen, "ct"
    loop = (draw(st.integers(0, gen.n_vertices() - 1)),) * 2 + (draw(st.integers(0, 1)), 0)
    return make_gen(gen.genera, gen.edges + (loop,), gen.legs, dict(enumerate(gen.kappa)),
                    dict(enumerate(gen.lam))), "stable"


class TestAnatomyMemos:
    """A generator's anatomy is memoized: each memo returns an immutable
    value equal to what its undecorated function computes, and the same
    object again on a repeated call."""

    def check(self, memo, *args):
        got = memo(*args)
        assert got == memo.__wrapped__(*args)
        assert memo(*args) is got
        return got

    @given(anatomy_cases())
    @settings(max_examples=80, deadline=None)
    def test_structural_memos(self, case):
        gen, policy = case
        space = _space_of(gen, policy)
        assert isinstance(self.check(tr.Gen.degree, gen), int)
        for v in range(gen.n_vertices()):
            assert isinstance(self.check(tr.Gen.valence, gen, v), int)
        for memo in (tr._halfedge_slots, tr._vertex_factors, tr._undecorated):
            assert isinstance(self.check(memo, gen), tuple)
        for factor in tr._vertex_factors(gen):
            assert isinstance(self.check(tr._vertex_space, factor, policy), tuple)
        assert isinstance(self.check(tr.glue_spaces, space, tr._undecorated(gen)), tuple)

    @given(anatomy_cases())
    @settings(max_examples=40, deadline=None)
    def test_push_term_memo(self, case):
        gen, policy = case
        space = _space_of(gen, policy)
        for cgen in TautClass(space, {gen: 1}).terms:
            for (x, _, _) in cgen.legs:
                if 2 * space.genus - 3 + space.n > 0:
                    self.check(tr._push_term_forgetful, space.without_marking(x), cgen, x)


def _push_free_by_expansion(down, gen, x):
    """The earlier pushforward of a free monomial, kept as an oracle: every
    kappa_i = pi^*kappa_i + psi_x^i and psi_p^b = (pi^*psi_p + D_px)^b is
    expanded, and each piece is integrated over the fiber."""
    a_x = 0
    psis = []
    for (lab, _, e) in gen.legs:
        if lab == x:
            a_x = e
        elif e:
            psis.append((lab, e))
    kap_choices = [[(i, j, e - j) for j in range(e + 1)] for (i, e) in gen.kappa[0]]
    psi_choices = [[(lab, j, e - j) for j in range(e + 1)] for (lab, e) in psis]
    parts = []
    for kchoice in itertools.product(*kap_choices):
        for pchoice in itertools.product(*psi_choices):
            coeff = F(1)
            psi_x_power = a_x
            pulled_kappa = []
            for (i, j, rest) in kchoice:
                coeff *= comb(j + rest, j)
                if j:
                    pulled_kappa.append((i, j))
                psi_x_power += i * rest
            pulled_psi, d_powers = {}, {}
            for (lab, j, rest) in pchoice:
                coeff *= comb(j + rest, j)
                if j:
                    pulled_psi[lab] = j
                if rest:
                    d_powers[lab] = rest
            fiber = _fiber_integral(down, pulled_kappa, list(gen.lam[0]), pulled_psi,
                                    d_powers, psi_x_power)
            parts.append((coeff, fiber.terms))
    return TautClass._carry(down, _accumulate(parts))


def _fiber_integral(down, pulled_kappa, lams, pulled_psi, d_powers, psi_x_power):
    """pi_*(pull(monomial) . psi_x^j . prod D_p^(k_p)) for the oracle."""
    if len(d_powers) >= 2:
        return zero(down)  # tails through x sharing x are disjoint
    if d_powers:
        if psi_x_power:
            return zero(down)  # psi_x restricted to the tail vanishes
        ((p, k),) = d_powers.items()
        psi_mon = dict(pulled_psi)
        if k - 1:
            psi_mon[p] = psi_mon.get(p, 0) + k - 1
        return F((-1) ** (k - 1)) * monomial(down, pulled_kappa, lams, psi_mon)
    if psi_x_power == 0:
        return zero(down)
    j = psi_x_power - 1
    if j == 0:
        return F(2 * down.genus - 2 + down.n) * monomial(down, pulled_kappa, lams, pulled_psi)
    return monomial(down, list(pulled_kappa) + [(j, 1)], lams, pulled_psi)


def _random_free_monomial(rng):
    """(down, gen, "x"): a free monomial on M_{g, P + x}, g <= 4 and |P| <= 3,
    with kappa_1..kappa_3 to exponent 1 or 2, psi exponents 0-3 and an
    optional lambda; the degree is not capped, so many pieces are pruned."""
    g = rng.randint(0, 4)
    labels = ("p", "q", "r")[: 3 if g == 0 else rng.randint(1 if g == 1 else 0, 3)]
    down = ModuliSpec(g, labels)
    kap = [(i, rng.randint(1, 2)) for i in (1, 2, 3) if rng.random() < 0.4]
    lm = [(rng.randint(1, g), 1)] if g and rng.random() < 0.4 else []
    legs = [(lab, 0, rng.randint(0, 3)) for lab in labels + ("x",)]
    return down, make_gen((g,), (), legs, {0: kap}, {0: lm}), "x"


class TestStringDilaton:
    """The forgetful pushforward of a free monomial by the string and dilaton
    equations equals the psi/D expansion integrated over the fiber."""

    def test_random_free_monomials_vs_expansion(self):
        rng = random.Random(20261019)
        nonzero = 0
        for _ in range(1200):
            down, gen, x = _random_free_monomial(rng)
            got = tr._push_free_forgetful(down, gen, x)
            assert got == _push_free_by_expansion(down, gen, x), gen_to_string(gen)
            nonzero += not got.is_zero()
        assert nonzero > 400

    def test_leggy_trees_vs_expansion(self, monkeypatch):
        rng = random.Random(20261021)
        cases = []
        while len(cases) < 150:
            gen = _random_leggy_tree(rng)
            if gen.legs:
                cases.append((TautClass(_space_of(gen), {gen: F(1)}), rng.choice(gen.legs)[0]))
        got = [pushforward_forgetful(c, x) for c, x in cases]
        monkeypatch.setattr(tr, "_push_free_forgetful", _push_free_by_expansion)
        assert got == [pushforward_forgetful(c, x) for c, x in cases]
        assert sum(not g.is_zero() for g in got) > 80

    def _push(self, up, kappa_mon=(), lam_mon=(), psi_mon=None):
        gen = tr._trivial_gen(up, kappa_mon, lam_mon, psi_mon)
        got = tr._push_free_forgetful(up.without_marking("x"), gen, "x")
        assert got == _push_free_by_expansion(up.without_marking("x"), gen, "x")
        return got

    def test_dilaton_m_at_least_2(self):
        # psi_x^3 pushes to kappa_2; psi_p stays pulled back
        up = ModuliSpec(2, ("p", "x"))
        got = self._push(up, psi_mon={"x": 3, "p": 2})
        assert got == monomial(ModuliSpec(2, ("p",)), [(2, 1)], psi_mon={"p": 2})
        assert not got.is_zero()

    def test_m_equals_1(self):
        # psi_x pushes to kappa_0 = 2g - 2 + n = 3 on M_{2,{p}}
        up = ModuliSpec(2, ("p", "x"))
        got = self._push(up, lam_mon=[(1, 1)], psi_mon={"x": 1, "p": 2})
        down = ModuliSpec(2, ("p",))
        assert got == 3 * monomial(down, (), [(1, 1)], {"p": 2})
        assert not got.is_zero()

    def test_string_two_psis(self):
        # no psi_x: psi_p^2 psi_q pushes to psi_p psi_q + psi_p^2
        up = ModuliSpec(2, ("p", "q", "x"))
        down = ModuliSpec(2, ("p", "q"))
        got = self._push(up, psi_mon={"p": 2, "q": 1})
        assert got == (monomial(down, psi_mon={"p": 1, "q": 1})
                       + monomial(down, psi_mon={"p": 2}))
        assert len(got.terms) == 2

    def test_string_no_psi_is_zero(self):
        up = ModuliSpec(2, ("p", "x"))
        assert self._push(up, lam_mon=[(1, 1), (2, 1)]).is_zero()


class TestTailProducts:
    def test_same_tail_product_matches_multiply(self):
        # the psi-decorated tail times the plain one: only the excess at the
        # genus-2 end survives
        space = ModuliSpec(2, ("p", "x"))
        decorated = TautClass(space, {boundary_gen(space, 0, ("p", "x"), exps=(0, 1)): F(1)})
        plain = delta_zero_pair(space, "p", "x")
        squared = boundary_gen(space, 0, ("p", "x"), exps=(0, 2))
        assert tr._mul_poly(decorated, plain) == TautClass(space, {squared: F(-1)})
        assert multiply(decorated, plain) == tr._mul_poly(decorated, plain)

    def test_tails_sharing_one_marking_are_disjoint(self):
        space = ModuliSpec(2, ("p", "q", "x"))
        assert tr._mul_poly(delta_zero_pair(space, "p", "x"),
                            delta_zero_pair(space, "q", "x")).is_zero()


class TestStableSeparating:
    """Separating edges multiply the same way on both policies."""

    def test_two_psi_forgetful_pullback(self):
        # (psi_p - D_px)(psi_q - D_qx): the two tails through x are disjoint
        pulled = [
            pullback_forgetful(monomial(ModuliSpec(2, ("p", "q"), policy),
                                           psi_mon={"p": 1, "q": 1}), "x")
            for policy in ("ct", "stable")
        ]
        assert str(pulled[0]) == str(pulled[1])

    @pytest.mark.parametrize("g, markings", [(2, ("p",)), (3, ()), (4, ("p", "q"))])
    def test_separating_products_match_compact_type(self, g, markings):
        products = [
            multiply(delta_sep(space, 1), delta_sep(space, 1) + delta_sep(space, g - 1))
            for space in (ModuliSpec(g, markings), ModuliSpec(g, markings, "stable"))
        ]
        assert str(products[0]) == str(products[1])

    def test_self_edge_products_raise(self):
        space = ModuliSpec(3, (), "stable")
        with pytest.raises(tr.UnsupportedOperation):
            multiply(tr.delta_irr(space), delta_sep(space, 1))


class TestAssociativity:
    def test_divisor_triples(self):
        dA = delta_sep(M4, 1)
        dB = delta_sep(M4, 2)
        l = lam(M4)
        assert multiply(l, multiply(dA, dA)) == multiply(dA, multiply(dA, l))
        assert multiply(l, multiply(dA, dB)) == multiply(dA, multiply(dB, l))

    def test_self_intersection_geometry(self):
        # the transverse part of the (1,3)-divisor squared is the
        # two-elliptic-tail star; the excess part decorates the edge
        dA = delta_sep(M4, 1)
        sq = multiply(dA, dA)
        star = make_gen((1, 1, 2), [(0, 2), (1, 2)])
        assert sq.coefficient(star) == F(1)
        assert sq.coefficient(boundary_gen(M4, 1, (), exps=(1, 0))) == F(-1)
        assert sq.coefficient(boundary_gen(M4, 1, (), exps=(0, 1))) == F(-1)


class TestSerialization:
    def test_roundtrip(self):
        g = make_gen((1, 3), [(0, 1, 1, 0)], [("p", 1, 2)], {0: [(2, 1)]}, {1: [(1, 1)]})
        text = gen_to_string(g)
        back = parse_gen(text)
        assert canonicalize(back)[0] == canonicalize(g)[0]

    def test_class_lines(self):
        c = delta_sep(M4, 2)
        assert "1/2\t" in str(c)
