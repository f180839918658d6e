"""Decorated stable graphs and the divisor-level tautological calculus on
moduli of curves: forgetful pullback/pushforward, gluing pullback and
pushforward, and multiplication by divisor classes.

Representation
--------------
A generator ("Gen") is a genus-labeled graph with

* ``genera[v]``: vertex genera,
* ``edges``: tuples ``(v, w, av, aw)`` where ``av``/``aw`` are psi exponents
  at the two half-edges,
* ``legs``: tuples ``(label, v, exp)`` carrying marking labels and psi
  exponents,
* ``kappa[v]`` / ``lam[v]``: sorted ``(index, exp)`` monomials per vertex.

The generator denotes the pushforward, under the gluing map of the graph, of
the decoration monomial.  So a generator is its vertex factors glued along
its edges: ``_vertex_factors`` gives each vertex's decoration as a
trivial-graph generator on the vertex moduli, whose markings are the
vertex's legs and the slots of its half edges (``_halfedge_slots``, the one
place the slot labels are spelled out), and ``_assemble_glued``, the one
routine that wires generators along graph edges, glues them back.  Every
vertex-local operation (forgetful pull and push on graph terms, vertex
kappa_1 expansion) replaces one factor and re-glues (``_expand_vertex``);
the gluing pushforward glues a factor per vertex.  ``_relabel`` is the one
leg rename.  A generator's anatomy (degree, valences, slots, vertex
factors and their spaces, the undecorated graph) is a bounded memo that
returns an immutable value, so each is dissected once per process.

No automorphism factor is baked in: the boundary divisor class of a
one-edge graph with a 2-element automorphism group is *half* the generator
(see ``delta_B`` usage downstream), which matches how gluing maps are
manipulated directly in the genus-4 pipelines.

A ``TautClass`` is an exact linear combination (an ``int`` coefficient when
integral, a Fraction otherwise) of canonicalized generators on a fixed
ambient ``ModuliSpec``.  Two classes are equal iff their canonical
term maps coincide; no completeness of tautological relations is claimed.
Terms whose decoration degree exceeds a vertex moduli dimension, or that
carry a lambda_i with i above the vertex genus, are pruned (they vanish in
the Chow ring of the vertex factor).

Products
--------
Every product with a graph term is the projection formula
d . xi_*(x) = xi_*(xi^*d . x).  ``_mul_term`` returns the other factor for
a degree-0 one, merges two free generators, and otherwise hands the graph
term and the other factor to ``_project``, which pulls the other factor
back along the graph's gluing map (``pullback_gluing``), multiplies factor
by factor with the graph's vertex factors and glues back.  ``_mul_poly``
sums ``_mul_term`` over term pairs; ``ProductClass`` multiplies its
factors with it.  Only ``multiply`` rewrites kappa_1 (on its divisor side),
so a pulled-back kappa_1 stays kappa_1 on its vertex.

Gluing pullback
---------------
``pullback_gluing`` restricts a free monomial factor by factor
(``_pull_free_gluing``).  A one-edge separating generator is read off the
two sides of its graph Delta, as in the generic-structure formula of
Graber--Pandharipande (Michigan Math. J. 2003, App. A): a side equal to
Gamma's vertex 0 identifies the edges (self-excess), and a side that fits
in a vertex of Gamma splits that vertex transversally, Delta's other side
pulled back by the free rule and glued on (``_pull_boundary_gluing``).
Nothing is searched for and no automorphism factor enters.

Forgetful maps
--------------
Both directions take a free monomial in closed form (Arbarello--Cornalba,
J. Alg. Geom. 5, 1996), through one binomial split of kappa_i^e into
C(e, j) (pi^*kappa_i)^j psi_x^(i(e-j)) (``_kappa_splits``).
``pullback_forgetful`` writes pi^*kappa_i = kappa_i - psi_x^i and
(pi^*psi_p)^b = psi_p^b - D_px psi^(b-1), the psi at the tail's node on its
genus-g side; D_px meets no psi_x, psi_p or D_qx, so each p with b_p >= 1
adds one rational tail that carries the rest of the monomial on its genus-g
vertex.  ``pushforward_forgetful`` is the string and dilaton equations: a
piece with psi_x^m pushes to kappa_(m-1) times the rest for m >= 2, to
2g - 2 + n (downstairs) times it for m = 1, and for m = 0 to the sum over q
of the rest with psi_q lowered by one.

Canonical form
--------------
``_least_relabelings`` gives the canonical form of a generator (its least
relabeling, a ``Gen`` being a ``NamedTuple`` ordered as its fields) and
every vertex map onto it, searching the one generator of class-respecting
bijections, ``_class_bijections``, that ``ctp`` pairs trees with too.  The
vertex classes are read in one pass over legs and edges (genus, half-edge
psi exponents, legs, kappa, lambda, and the same of the neighbours); the
class order fixes genera, kappa and lambda, so candidates compare as
(sorted edges, sorted legs) and only the winner is built as a ``Gen``.
``canonicalize`` returns the form and |Aut| (the number of maps times the
edge-level symmetries of ``_halfedge_factor``); ``ctp`` takes tree
isomorphisms and automorphisms from the same search.

Admission
---------
A term is admitted once, when it enters through a public constructor:
``TautClass(space, terms)``, ``ProductClass(spaces, terms)`` and the
builders on top of them (``kappa``, ``lam``, ``psi``, ``delta_*``, ...)
check stability, genus and markings against the ambient, canonicalize the
generator and prune it, all in ``_admit`` (factor by factor for a product;
memoized, so once per (space, generator) in a process).  Everything after
that runs on the sparse kernel ``algebra._LinearCombination``, which both
classes (and the lambda/kappa polynomials of ``chern``) share: ``+``, ``-``,
scalar ``*``, equality and hash of admitted classes carry their canonical
terms through the private ``_carry`` constructors, which check nothing;
adding classes on different ambients still raises.  A sum of many classes (a
product expanded term by term, a pullback or pushforward summed over
generators) is collected by the kernel's one accumulation helper
``algebra._accumulate`` into a single dict and wrapped by a single
``_carry`` (or, for raw generators, one admitting constructor), so no sum
copies its partial result.  The sparse decorated-graph ring of admcycles
(Delecroix--Schmitt--van Zelm, arXiv:2002.01709) follows the same design.

Unsupported pushforward/product shapes raise ``UnsupportedOperation`` instead
of approximating.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import validated_make
from .algebra import Rational, _accumulate, _LinearCombination, _rational


class UnsupportedOperation(ValueError):
    """An operation outside the implemented calculus was requested."""


class UnstableGraphError(ValueError):
    """A graph violating stability, naming the offending vertex."""


# --------------------------------------------------------------------------
# ambient spaces and generators


class _ModuliSpecFields(NamedTuple):
    genus: int
    markings: tuple[str, ...]
    policy: str = "ct"


class ModuliSpec(_ModuliSpecFields):
    """A moduli space of curves: genus, marking labels, boundary policy.

    ``policy`` is ``"ct"`` (compact type: tree dual graphs, no self edges)
    or ``"stable"`` (all stable curves; self edges allowed).
    """

    __slots__ = ()
    _make = validated_make

    def __new__(cls, genus: int, markings: Iterable[str], policy: str = "ct"):
        # marking order is semantically irrelevant (legs match by label);
        # keep it sorted so equal spaces compare equal
        markings = tuple(sorted(str(m) for m in markings))
        if policy not in ("ct", "stable"):
            raise ValueError(f"unknown policy {policy!r}")
        if len(set(markings)) != len(markings):
            raise ValueError("duplicate marking labels")
        if 2 * genus - 2 + len(markings) <= 0:
            raise ValueError(f"unstable ambient ({genus}, {markings})")
        return super().__new__(cls, genus, markings, policy)

    @property
    def n(self) -> int:
        return len(self.markings)

    def with_extra_marking(self, x: str) -> "ModuliSpec":
        if x in self.markings:
            raise ValueError(f"marking {x!r} already present")
        return ModuliSpec(self.genus, self.markings + (x,), self.policy)

    def without_marking(self, x: str) -> "ModuliSpec":
        if x not in self.markings:
            raise ValueError(f"marking {x!r} not present")
        return ModuliSpec(
            self.genus, tuple(m for m in self.markings if m != x), self.policy
        )


class Gen(NamedTuple):
    """A decorated-graph generator; see the module docstring."""

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    legs: tuple[tuple[str, int, int], ...]
    kappa: tuple[tuple[tuple[int, int], ...], ...]
    lam: tuple[tuple[tuple[int, int], ...], ...]

    @lru_cache(maxsize=65536)
    def degree(self) -> int:
        d = len(self.edges)
        d += sum(av + aw for (_, _, av, aw) in self.edges)
        d += sum(e for (_, _, e) in self.legs)
        d += sum(i * e for kv in self.kappa for (i, e) in kv)
        d += sum(i * e for lv in self.lam for (i, e) in lv)
        return d

    def n_vertices(self) -> int:
        return len(self.genera)

    @lru_cache(maxsize=65536)
    def valence(self, v: int) -> int:
        ends = sum((e[0] == v) + (e[1] == v) for e in self.edges)
        return ends + sum(1 for (_, lv, _) in self.legs if lv == v)

    def vertex_decoration_degree(self, v: int) -> int:
        d = sum(i * e for (i, e) in self.kappa[v])
        d += sum(i * e for (i, e) in self.lam[v])
        d += sum(e for (_, lv, e) in self.legs if lv == v)
        for (a, b, av, aw) in self.edges:
            if a == v:
                d += av
            if b == v:
                d += aw
        return d

    def is_trivial_graph(self) -> bool:
        return len(self.genera) == 1 and not self.edges

    def total_genus(self) -> int:
        b1 = len(self.edges) - len(self.genera) + 1
        return sum(self.genera) + b1

    def leg_vertex(self, label: str) -> int:
        for (lab, v, _) in self.legs:
            if lab == label:
                return v
        raise KeyError(label)


def _norm_monomial(mon: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for i, e in mon:
        if e < 0:
            raise ValueError("negative decoration exponent")
        if i < 1:
            raise ValueError(f"decoration index {i} < 1 (kappa_0 and lambda_0 are scalars)")
        if e:
            acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def make_gen(
    genera: Sequence[int],
    edges: Sequence[tuple] = (),
    legs: Sequence[tuple] = (),
    kappa: Mapping[int, Iterable[tuple[int, int]]] | None = None,
    lam: Mapping[int, Iterable[tuple[int, int]]] | None = None,
) -> Gen:
    """Build a generator from loose data.  Edge tuples are ``(v, w)`` or
    ``(v, w, av, aw)``; leg tuples ``(label, v)`` or ``(label, v, exp)``."""
    nv = len(genera)
    e_out = []
    for e in edges:
        v, w = e[0], e[1]
        av = e[2] if len(e) > 2 else 0
        aw = e[3] if len(e) > 3 else 0
        if not (0 <= v < nv and 0 <= w < nv):
            raise ValueError("edge endpoint out of range")
        if (w, aw) < (v, av):
            v, w, av, aw = w, v, aw, av
        e_out.append((v, w, av, aw))
    l_out = []
    for leg in legs:
        lab, v = leg[0], leg[1]
        ex = leg[2] if len(leg) > 2 else 0
        if not 0 <= v < nv:
            raise ValueError("leg vertex out of range")
        l_out.append((str(lab), v, ex))
    kap = tuple(_norm_monomial((kappa or {}).get(v, ())) for v in range(nv))
    lm = tuple(_norm_monomial((lam or {}).get(v, ())) for v in range(nv))
    return Gen(tuple(genera), tuple(sorted(e_out)), tuple(sorted(l_out)), kap, lm)


def check_stability(gen: Gen, policy: str) -> None:
    """Stability of every vertex; compact type additionally demands a tree
    with no self edges.  Raises ``UnstableGraphError`` naming a violator."""
    for v, g in enumerate(gen.genera):
        if g < 0:
            raise UnstableGraphError(f"vertex {v} has negative genus")
        if 2 * g - 2 + gen.valence(v) <= 0:
            raise UnstableGraphError(
                f"vertex {v} (genus {g}, valence {gen.valence(v)}) is unstable"
            )
    if policy == "ct":
        if any(v == w for (v, w, _, _) in gen.edges):
            raise UnstableGraphError("self edge not allowed on compact type")
        if len(gen.edges) != gen.n_vertices() - 1 or not _is_connected(gen):
            raise UnstableGraphError("compact type dual graph must be a tree")
    elif not _is_connected(gen):
        raise UnstableGraphError("graph must be connected")


def _is_connected(gen: Gen) -> bool:
    nv = gen.n_vertices()
    if nv == 1:
        return True
    adj: dict[int, set[int]] = {v: set() for v in range(nv)}
    for (v, w, _, _) in gen.edges:
        adj[v].add(w)
        adj[w].add(v)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == nv


# --------------------------------------------------------------------------
# canonical labeling


def _apply_perm(gen: Gen, perm: Sequence[int]) -> Gen:
    nv = gen.n_vertices()
    genera = [0] * nv
    kap: list = [()] * nv
    lm: list = [()] * nv
    for v in range(nv):
        genera[perm[v]] = gen.genera[v]
        kap[perm[v]] = gen.kappa[v]
        lm[perm[v]] = gen.lam[v]
    edges = []
    for (v, w, av, aw) in gen.edges:
        p, q, a, b = perm[v], perm[w], av, aw
        if (q, b) < (p, a):
            p, q, a, b = q, p, b, a
        edges.append((p, q, a, b))
    legs = tuple(sorted((lab, perm[v], e) for (lab, v, e) in gen.legs))
    return Gen(tuple(genera), tuple(sorted(edges)), legs, tuple(kap), tuple(lm))


def _halfedge_factor(gen: Gen) -> int:
    """Edge-level symmetries fixing all vertices: identical parallel edges
    permute, a self edge with equal psi exponents may swap its ends."""
    factor = 1
    counts: dict = {}
    for e in gen.edges:
        counts[e] = counts.get(e, 0) + 1
    for e, c in counts.items():
        for k in range(2, c + 1):
            factor *= k
        v, w, av, aw = e
        if v == w and av == aw:
            factor *= 2**c
    return factor


def _class_bijections(classes: Sequence[tuple[Sequence[int], Sequence[int]]]):
    """The one permutation search.  ``classes`` lists (sources, targets)
    pairs of equal length; yields, as tuples indexed by source, every map
    sending each class's sources bijectively onto its targets, in the order
    of ``itertools.product`` over the classes' permutations."""
    m = [0] * sum(len(sources) for sources, _ in classes)
    for images in itertools.product(*(itertools.permutations(ts) for _, ts in classes)):
        for (sources, _), ims in zip(classes, images):
            for v, w in zip(sources, ims):
                m[v] = w
        yield tuple(m)


def _least_relabelings(gen: Gen) -> tuple[Gen, list[tuple[int, ...]]]:
    """The least relabeling of gen and every vertex map reaching it.

    Vertices are grouped by (genus, half-edge decorations, leg data, vertex
    decorations, neighbor data), read in one pass over legs and edges; the
    least encoding over the permutations within groups wins.  The group
    order fixes genera, kappa and lambda, so candidates compare as (sorted
    edges, sorted legs), and the winning ``Gen`` is built once.  An
    isomorphism onto the winner keeps the groups, so the search visits
    every map onto it.
    """
    nv = gen.n_vertices()
    ends: list[list[int]] = [[] for _ in range(nv)]
    legs: list[list[tuple[str, int]]] = [[] for _ in range(nv)]
    adj: list[list[int]] = [[] for _ in range(nv)]
    for (lab, v, e) in gen.legs:
        legs[v].append((lab, e))
    for (a, b, av, aw) in gen.edges:
        ends[a].append(av)
        ends[b].append(aw)
        adj[a].append(b)
        adj[b].append(a)
    base = [(g, tuple(sorted(ends[v])), tuple(sorted(legs[v])), gen.kappa[v], gen.lam[v])
            for v, g in enumerate(gen.genera)]
    groups: dict = {}
    for v in range(nv):
        groups.setdefault((base[v], tuple(sorted(base[u] for u in adj[v]))), []).append(v)
    classes = []
    next_index = 0
    for _, vs in sorted(groups.items()):  # keys differ, so lists never compare
        classes.append((vs, range(next_index, next_index + len(vs))))
        next_index += len(vs)

    best: tuple[list, list] | None = None
    maps: list[tuple[int, ...]] = []
    for perm in _class_bijections(classes):
        edges = []
        for (v, w, av, aw) in gen.edges:
            p, q = perm[v], perm[w]
            edges.append((p, q, av, aw) if (p, av) <= (q, aw) else (q, p, aw, av))
        edges.sort()
        cand = (edges, sorted([(lab, perm[v], e) for (lab, v, e) in gen.legs]))
        if best is None or cand < best:
            best, maps = cand, [perm]
        elif cand == best:
            maps.append(perm)
    assert best is not None
    order = sorted(range(nv), key=maps[0].__getitem__)
    return Gen(tuple(gen.genera[v] for v in order), tuple(best[0]), tuple(best[1]),
               tuple(gen.kappa[v] for v in order), tuple(gen.lam[v] for v in order)), maps


@lru_cache(maxsize=200000)
def canonicalize(gen: Gen) -> tuple[Gen, int]:
    """Canonical representative of the isomorphism class and the order of
    the decoration-preserving automorphism group (counted on half-edges, so
    a symmetric self edge contributes a factor 2): the vertex maps onto the
    representative times the edge-level symmetries fixing every vertex."""
    best, maps = _least_relabelings(gen)
    return best, len(maps) * _halfedge_factor(best)


# --------------------------------------------------------------------------
# tautological classes


def _prunable(gen: Gen) -> bool:
    """A vertex decoration above the vertex moduli dimension, or a lambda_i
    with i above the vertex genus, vanishes."""
    for v, g in enumerate(gen.genera):
        if gen.vertex_decoration_degree(v) > 3 * g - 3 + gen.valence(v):
            return True
        if any(i > g for (i, _) in gen.lam[v]):
            return True
    return False


@lru_cache(maxsize=65536)
def _admit(space: ModuliSpec, gen: Gen) -> Gen | None:
    """The one admission of a generator on ``space``: stability, genus and
    markings are checked, and the canonical form is returned, or None when
    it is pruned.  Memoized; a rejection raises, so it is never cached."""
    check_stability(gen, space.policy)
    if gen.total_genus() != space.genus:
        raise ValueError("generator genus does not match ambient")
    if tuple(sorted(lab for (lab, _, _) in gen.legs)) != space.markings:
        raise ValueError("generator markings do not match ambient")
    cgen = canonicalize(gen)[0]
    return None if _prunable(cgen) else cgen


class TautClass(_LinearCombination):
    """Exact linear combination (``int`` or Fraction coefficients) of
    canonical generators on one ambient; ``*`` of two classes is :func:`multiply`."""

    __slots__ = ("space", "terms")

    def __init__(self, space: ModuliSpec, terms: Mapping[Gen, Rational] | None = None):
        self.space = space
        self.terms = _accumulate(
            (1, {cgen: _rational(coeff)}) for gen, coeff in (terms or {}).items()
            if coeff and (cgen := _admit(space, gen)) is not None
        )

    @classmethod
    def _carry(cls, space: ModuliSpec, terms: dict[Gen, Rational]) -> "TautClass":
        """Class from nonzero terms already admitted on ``space``."""
        self = cls.__new__(cls)
        self.space = space
        self.terms = terms
        return self

    def _ambient(self) -> ModuliSpec:
        return self.space

    def _times(self, other: "TautClass") -> "TautClass":
        return multiply(self, other)

    def coefficient(self, gen: Gen) -> Rational:
        cg, _ = canonicalize(gen)
        return self.terms.get(cg, 0)

    def __str__(self):
        if not self.terms:
            return "0"
        lines = []
        for g in sorted(self.terms):
            lines.append(f"{self.terms[g]}\t{gen_to_string(g)}")
        return "\n".join(lines)

    __repr__ = __str__


# -- constructors ----------------------------------------------------------


def zero(space: ModuliSpec) -> TautClass:
    return TautClass._carry(space, {})


def _trivial_gen(
    space: ModuliSpec,
    kappa_mon: Iterable[tuple[int, int]] = (),
    lam_mon: Iterable[tuple[int, int]] = (),
    psi_mon: Mapping[str, int] | None = None,
) -> Gen:
    psi_mon = psi_mon or {}
    return make_gen(
        (space.genus,),
        (),
        [(m, 0, psi_mon.get(m, 0)) for m in space.markings],
        {0: kappa_mon},
        {0: lam_mon},
    )


def one(space: ModuliSpec) -> TautClass:
    return TautClass(space, {_trivial_gen(space): 1})


def kappa(space: ModuliSpec, i: int) -> TautClass:
    if i < 0:
        return zero(space)
    if i == 0:
        return (2 * space.genus - 2 + space.n) * one(space)
    return TautClass(space, {_trivial_gen(space, kappa_mon=[(i, 1)]): 1})


def lam(space: ModuliSpec, i: int = 1) -> TautClass:
    return TautClass(space, {_trivial_gen(space, lam_mon=[(i, 1)]): 1})


def psi(space: ModuliSpec, label: str, exp: int = 1) -> TautClass:
    if label not in space.markings:
        raise ValueError(f"no marking {label!r}")
    return TautClass(space, {_trivial_gen(space, psi_mon={label: exp}): 1})


def psi_total(space: ModuliSpec) -> TautClass:
    return TautClass._carry(
        space, _accumulate((1, psi(space, m).terms) for m in space.markings)
    )


@lru_cache(maxsize=1024)
def one_edge_graphs(space: ModuliSpec) -> tuple[tuple[Gen, int], ...]:
    """All one-edge boundary graph types of the ambient, as (canonical
    generator, automorphism order).  Compact type omits the self-edge
    graph."""
    g, P = space.genus, space.markings
    gens = [
        boundary_gen(space, g1, S)
        for g1 in range(g + 1)
        for r in range(len(P) + 1)
        for S in itertools.combinations(P, r)
        if (g1 > 0 or r >= 2) and (g1 < g or len(P) - r >= 2)  # both vertices stable
    ]
    if space.policy == "stable" and g >= 1:
        gens.append(_irreducible_gen(space))
    return tuple(sorted(dict(map(canonicalize, gens)).items()))


def boundary_gen(
    space: ModuliSpec, g1: int, markings_on_first: Sequence[str], exps: tuple[int, int] = (0, 0)
) -> Gen:
    """One-edge separating generator: genus-g1 vertex carrying the listed
    markings joined to the complementary vertex; ``exps`` are the psi
    exponents at the (first, second) half edge."""
    S = [str(m) for m in markings_on_first]
    legs = [(m, 0) for m in S] + [(m, 1) for m in space.markings if m not in S]
    return make_gen((g1, space.genus - g1), [(0, 1, *exps)], legs)


def _irreducible_gen(space: ModuliSpec) -> Gen:
    """One-edge nonseparating generator: a self edge at genus g - 1."""
    return make_gen((space.genus - 1,), [(0, 0)], [(m, 0) for m in space.markings])


def _divisor(space: ModuliSpec, gen: Gen) -> TautClass:
    """The divisor of an undecorated one-edge generator: (1/|Aut|) x it."""
    cg, aut = canonicalize(gen)
    return TautClass(space, {cg: Fraction(1, aut)})


def delta_sep(
    space: ModuliSpec, g1: int, markings_on_first: Sequence[str] = ()
) -> TautClass:
    """Class of one separating boundary divisor."""
    return _divisor(space, boundary_gen(space, g1, markings_on_first))


def delta_irr(space: ModuliSpec) -> TautClass:
    """Irreducible (self-edge) boundary divisor class; stable policy only."""
    if space.policy != "stable":
        raise UnsupportedOperation("delta_irr lives on the stable policy")
    return _divisor(space, _irreducible_gen(space))


def delta_total(space: ModuliSpec) -> TautClass:
    """Total boundary divisor: sum over one-edge graphs of 1/|Aut| times the
    undecorated generator."""
    return TautClass(
        space, {cg: Fraction(1, aut) for cg, aut in one_edge_graphs(space)}
    )


# --------------------------------------------------------------------------
# vertex factors and the one wiring routine


@lru_cache(maxsize=4096)
def _halfedge_slots(graph: Gen) -> tuple[tuple[int, str], ...]:
    """``(vertex, slot label)`` of every half edge, edge by edge (a end, then
    b end): the marking each edge end becomes on its vertex factor.  The
    prefix is ``__e`` behind as many more underscores as it takes for no
    leg label of the graph to start with it, so a graph whose legs are
    themselves slots (a factor's graph pulled back again) gets fresh ones."""
    prefix = "__e"
    while any(lab.startswith(prefix) for (lab, _, _) in graph.legs):
        prefix = "_" + prefix
    return tuple(slot for i, (a, b, _, _) in enumerate(graph.edges)
                 for slot in ((a, f"{prefix}{i}a"), (b, f"{prefix}{i}b")))


@lru_cache(maxsize=4096)
def _vertex_factors(gen: Gen) -> tuple[Gen, ...]:
    """The decoration at each vertex v as a trivial-graph generator on v's
    moduli, whose markings are v's legs and the slots of its half edges (the
    half-edge psi exponents sit on the slots)."""
    legs: list[list] = [[] for _ in gen.genera]
    for (lab, v, e) in gen.legs:
        legs[v].append((lab, 0, e))
    ends = [e for (_, _, av, aw) in gen.edges for e in (av, aw)]
    for (v, lab), e in zip(_halfedge_slots(gen), ends):
        legs[v].append((lab, 0, e))
    return tuple(
        Gen((g,), (), tuple(sorted(lv)), (kv,), (mv,))
        for g, lv, kv, mv in zip(gen.genera, legs, gen.kappa, gen.lam)
    )


@lru_cache(maxsize=4096)
def _vertex_space(factor: Gen, policy: str) -> ModuliSpec:
    """The moduli of a vertex factor: its genus, with its legs as markings."""
    return ModuliSpec(factor.genera[0], tuple(lab for (lab, _, _) in factor.legs), policy)


def _relabel(gen: Gen, names: Mapping[str, str]) -> Gen:
    """gen with the leg labels in ``names`` renamed, all at once."""
    legs = tuple(sorted((names.get(lab, lab), v, e) for (lab, v, e) in gen.legs))
    return Gen(gen.genera, gen.edges, legs, gen.kappa, gen.lam)


def _assemble_glued(graph: Gen, gens: Sequence[Gen]) -> Gen:
    """The one wiring routine: the disjoint union of the factor generators,
    factor v in place of vertex v, with the two slot legs of each edge of
    the gluing graph joined into that edge (the graph's half-edge psi
    exponents add to the slots').  Every generator is
    ``_assemble_glued(_undecorated(gen), _vertex_factors(gen))``."""
    slots = _halfedge_slots(graph)
    is_slot = set(slots)
    genera: list[int] = []
    kappa: dict[int, tuple] = {}
    lam: dict[int, tuple] = {}
    edges: list[tuple] = []
    legs: list[tuple] = []
    slot_at: dict[tuple[int, str], tuple[int, int]] = {}
    for v, g in enumerate(gens):
        off = len(genera)
        genera.extend(g.genera)
        for sv in range(g.n_vertices()):
            kappa[off + sv] = g.kappa[sv]
            lam[off + sv] = g.lam[sv]
        edges.extend((off + a, off + b, av, aw) for (a, b, av, aw) in g.edges)
        for (lab, lv, e) in g.legs:
            if (v, lab) in is_slot:
                slot_at[v, lab] = (off + lv, e)
            else:
                legs.append((lab, off + lv, e))
    for i, (_, _, av, aw) in enumerate(graph.edges):
        (va, ea), (vb, eb) = slot_at[slots[2 * i]], slot_at[slots[2 * i + 1]]
        edges.append((va, vb, av + ea, aw + eb))
    return make_gen(genera, edges, legs, kappa, lam)


def _expand_vertex(
    space: ModuliSpec, gen: Gen, v: int, vertex_class: TautClass
) -> TautClass:
    """gen with its vertex-v factor replaced by each term of vertex_class,
    the vertex factors glued along gen's edges."""
    graph, factors = _undecorated(gen), _vertex_factors(gen)
    # distinct vertex terms can glue to one raw generator (a self edge at v
    # swaps its slots), so the raw terms are accumulated
    return TautClass(space, _accumulate(
        (1, {_assemble_glued(graph, (*factors[:v], sgen, *factors[v + 1 :])): coeff})
        for sgen, coeff in vertex_class.terms.items()
    ))


@lru_cache(maxsize=4096)
def _undecorated(gen: Gen) -> Gen:
    """gen's graph without decorations, edges in gen's order (so the two
    share their half-edge slots)."""
    edges = tuple((a, b, 0, 0) for (a, b, _, _) in gen.edges)
    legs = tuple((lab, v, 0) for (lab, v, _) in gen.legs)
    blank = ((),) * gen.n_vertices()
    return Gen(gen.genera, edges, legs, blank, blank)


# --------------------------------------------------------------------------
# products: the projection formula


def multiply(d: TautClass, c: TautClass) -> TautClass:
    """Product of a divisor-span class with an arbitrary class.

    The kappa_1 factors of the divisor side are rewritten first as
    12 lambda_1 + sum psi - delta (``kappa1_expand``); this is the only
    product that rewrites kappa_1.  The term pairs then multiply by
    ``_mul_poly``: a graph term takes the other factor through the
    projection formula (``_project``), so a boundary x boundary product is
    the self-excess (-psi - psibar per identification) plus the transverse
    vertex splits of the gluing pullback.
    """
    if d.space != c.space:
        raise ValueError("ambient mismatch")
    if any(g.degree() > 1 for g in d.terms):
        if all(g.degree() <= 1 for g in c.terms):
            d, c = c, d
        else:
            raise UnsupportedOperation("one factor must be a divisor-span class")
    if any(
        any(i == 1 for (i, _) in g.kappa[v])
        for g in d.terms
        for v in range(g.n_vertices())
    ):
        d = kappa1_expand(d)
    return _mul_poly(d, c)


def _mul_poly(a: TautClass, b: TautClass) -> TautClass:
    """Product of two classes term pair by term pair (``_mul_term``),
    kappa_1 left as it is."""
    space = a.space
    return TautClass._carry(space, _accumulate(
        (ca * cb, _mul_term(space, ga, gb).terms)
        for ga, ca in a.terms.items()
        for gb, cb in b.terms.items()
    ))


def _mul_term(space: ModuliSpec, a: Gen, b: Gen) -> TautClass:
    """Product of two admitted generators: a degree-0 factor is the unit,
    two free generators merge, and otherwise a graph term takes the other
    factor through the projection formula (a is pulled back along b's graph
    when both are graph terms)."""
    if a.degree() == 0:
        return TautClass._carry(space, {b: 1})
    if b.degree() == 0:
        return TautClass._carry(space, {a: 1})
    if a.is_trivial_graph() and b.is_trivial_graph():
        return TautClass(space, {_merge_free(a, b): 1})
    d, gen = (b, a) if b.is_trivial_graph() else (a, b)
    return _project(space, d, gen)


def _merge_free(ga: Gen, gb: Gen) -> Gen:
    """Product of two trivial-graph generators on one ambient."""
    apsi = {lab: e for (lab, _, e) in ga.legs}
    return make_gen(
        ga.genera,
        (),
        [(lab, 0, e + apsi[lab]) for (lab, _, e) in gb.legs],
        {0: list(ga.kappa[0]) + list(gb.kappa[0])},
        {0: list(ga.lam[0]) + list(gb.lam[0])},
    )


@lru_cache(maxsize=4096)
def _project(space: ModuliSpec, d: Gen, gen: Gen) -> TautClass:
    """d . gen by the projection formula d . xi_*(x) = xi_*(xi^*d . x), with
    xi the gluing map of gen's undecorated graph and x gen's vertex factors:
    d is pulled back, multiplied factor by factor and glued back."""
    graph = _undecorated(gen)
    factors = ProductClass.from_factors([
        TautClass._carry(sp, {f: 1})
        for sp, f in zip(glue_spaces(space, graph), _vertex_factors(gen))
    ])
    pulled = pullback_gluing(TautClass._carry(space, {d: 1}), graph)
    return pushforward_gluing(space, graph, pulled * factors)


# --------------------------------------------------------------------------
# kappa_1 expansion


def kappa1_expand(c: TautClass) -> TautClass:
    """Replace every kappa_1 factor by 12 lambda_1 + sum psi - delta
    (vertex-level for boundary terms); idempotent."""
    space = c.space
    parts = []
    for gen, coeff in c.terms.items():
        target = None
        for v in range(gen.n_vertices()):
            if any(i == 1 for (i, _) in gen.kappa[v]):
                target = v
                break
        if target is None:
            parts.append((1, {gen: coeff}))
            continue
        vmon = _vertex_factors(gen)[target]
        vspec = _vertex_space(vmon, space.policy)
        rel = 12 * lam(vspec) + psi_total(vspec) - delta_total(vspec)
        vclass = multiply(rel, TautClass(vspec, {_strip_one_kappa1(vmon): 1}))
        # a lone vertex is its own factor, on the ambient itself
        prod = vclass if gen.is_trivial_graph() else _expand_vertex(space, gen, target, vclass)
        parts.append((coeff, kappa1_expand(prod).terms))
    return TautClass._carry(space, _accumulate(parts))


def _strip_one_kappa1(gen: Gen) -> Gen:
    """A trivial-graph generator with one kappa_1 factor fewer."""
    mon = dict(gen.kappa[0])
    mon[1] -= 1
    return Gen(gen.genera, gen.edges, gen.legs, (_norm_monomial(mon.items()),), gen.lam)


# --------------------------------------------------------------------------
# forgetful maps


def pullback_forgetful(c: TautClass, x: str) -> TautClass:
    """Pullback along the map forgetting a new marking x: free monomials in
    closed form, graph terms vertex by vertex (x on each vertex in turn)."""
    up = c.space.with_extra_marking(x)
    parts = []
    for gen, coeff in c.terms.items():
        if gen.is_trivial_graph():
            parts.append((coeff, _pull_free_forgetful(up, gen, x).terms))
            continue
        for v, vmon in enumerate(_vertex_factors(gen)):
            vspec = _vertex_space(vmon, up.policy).with_extra_marking(x)
            pulled = _pull_free_forgetful(vspec, vmon, x)
            parts.append((coeff, _expand_vertex(up, gen, v, pulled).terms))
    return TautClass._carry(up, _accumulate(parts))


def _kappa_splits(kappa_mon):
    """Each term of prod_i (kappa_i + psi_x^i)^e: (prod C(e, j), the kappa
    monomial prod kappa_i^j, the psi_x exponent sum i(e - j), the number
    sum e - j of psi_x^i factors)."""
    choices = [[(i, j, e) for j in range(e + 1)] for (i, e) in kappa_mon]
    for split in itertools.product(*choices):
        yield (prod(comb(e, j) for (_, j, e) in split), [(i, j) for (i, j, _) in split],
               sum(i * (e - j) for (i, j, e) in split), sum(e - j for (_, j, e) in split))


def _pull_free_forgetful(up: ModuliSpec, gen: Gen, x: str) -> TautClass:
    """pi^* of a free monomial in closed form (see the module docstring);
    lambda rides along."""
    psi_mon = {lab: e for (lab, _, e) in gen.legs}
    parts = [
        ((-1) ** k * c, {_trivial_gen(up, kap, gen.lam[0], {**psi_mon, x: m}): 1})
        for c, kap, m, k in _kappa_splits(gen.kappa[0])
    ]
    for p, b in psi_mon.items():
        if b:
            rest = [(q, 1, e) for q, e in psi_mon.items() if q != p]
            tail = make_gen((0, up.genus), [(0, 1, 0, b - 1)], [(p, 0), (x, 0)] + rest,
                            {1: gen.kappa[0]}, {1: gen.lam[0]})
            parts.append((-1, {tail: 1}))
    return TautClass(up, _accumulate(parts))


def pushforward_forgetful(c: TautClass, x: str) -> TautClass:
    """Pushforward along forgetting marking x: free monomials in closed form,
    graph terms vertex-wise, and rational tails through x contract."""
    down = c.space.without_marking(x)
    return TautClass._carry(down, _accumulate(
        (coeff, _push_term_forgetful(down, gen, x).terms)
        for gen, coeff in c.terms.items()
    ))


@lru_cache(maxsize=4096)
def _push_term_forgetful(down: ModuliSpec, gen: Gen, x: str) -> TautClass:
    if gen.is_trivial_graph():
        return _push_free_forgetful(down, gen, x)
    v = gen.leg_vertex(x)
    if 2 * gen.genera[v] - 2 + (gen.valence(v) - 1) > 0:
        vmon = _vertex_factors(gen)[v]
        vspec = _vertex_space(vmon, down.policy)
        pushed = _push_free_forgetful(vspec.without_marking(x), vmon, x)
        return _expand_vertex(down, gen, v, pushed)  # x leaves with the factor
    # otherwise v has genus 0 and valence 3, and it contracts: its other two
    # ends join, two edge ends into an edge, or a leg and an edge end into
    # that leg on the far vertex
    # (admission pruned every decoration at v: degree > 3*0 - 3 + 3 = 0)
    far = [(b, aw) if a == v else (a, av) for (a, b, av, aw) in gen.edges if v in (a, b)]
    keep = [u for u in range(gen.n_vertices()) if u != v]
    remap = {u: i for i, u in enumerate(keep)}
    edges = [(remap[a], remap[b], av, aw) for (a, b, av, aw) in gen.edges if v not in (a, b)]
    legs = [(lab, remap[lv], e) for (lab, lv, e) in gen.legs if lv != v]
    if len(far) == 2:
        (u1, e1), (u2, e2) = far
        edges.append((remap[u1], remap[u2], e1, e2))
    else:
        ((u, e),) = far
        p = next(lab for (lab, lv, _) in gen.legs if lv == v and lab != x)
        legs.append((p, remap[u], e))
    kappa = {remap[u]: gen.kappa[u] for u in keep}
    lam = {remap[u]: gen.lam[u] for u in keep}
    new = make_gen([gen.genera[u] for u in keep], edges, legs, kappa, lam)
    return TautClass(down, {new: 1})


def _push_free_forgetful(down: ModuliSpec, gen: Gen, x: str) -> TautClass:
    """pi_* of a free monomial by the string and dilaton equations (see the
    module docstring).  psi_x . D_px = 0, so for m >= 1 every psi_p is pulled
    back; for m = 0, psi_p^b = pi^*psi_p^b + D_px pi^*psi_p^(b-1), two D's
    never meet and pi_*D_px = 1."""
    psi_mon = {lab: e for (lab, _, e) in gen.legs}
    a_x = psi_mon.pop(x)
    parts = []
    for coeff, pulled, m, _ in _kappa_splits(gen.kappa[0]):
        m += a_x
        if m >= 2:
            pieces = [(pulled + [(m - 1, 1)], psi_mon)]
        elif m == 1:
            coeff *= 2 * down.genus - 2 + down.n
            pieces = [(pulled, psi_mon)]
        else:
            pieces = [(pulled, {**psi_mon, q: b - 1}) for q, b in psi_mon.items() if b]
        parts += [(coeff, {_trivial_gen(down, kap, gen.lam[0], psis): 1}) for kap, psis in pieces]
    return TautClass(down, _accumulate(parts)) if parts else zero(down)


# --------------------------------------------------------------------------
# gluing maps


class ProductClass(_LinearCombination):
    """Class on a product of moduli factors: exact (``int`` or Fraction)
    combination of tuples of per-factor generators; ``*`` multiplies factor by factor."""

    __slots__ = ("spaces", "terms")
    _MISMATCH = "factor mismatch"

    def __init__(self, spaces: Sequence[ModuliSpec], terms=None):
        self.spaces = tuple(spaces)
        if any(len(gens) != len(self.spaces) for gens, coeff in (terms or {}).items() if coeff):
            raise ValueError("a term needs one generator per factor")
        self.terms = _accumulate(
            (1, {canon: _rational(coeff)}) for gens, coeff in (terms or {}).items()
            if coeff and None not in (canon := tuple(map(_admit, self.spaces, gens)))
        )

    @classmethod
    def _carry(cls, spaces: Sequence[ModuliSpec], terms: dict) -> "ProductClass":
        """Class from nonzero factor tuples already admitted on ``spaces``."""
        self = cls.__new__(cls)
        self.spaces = tuple(spaces)
        self.terms = terms
        return self

    def _ambient(self) -> tuple[ModuliSpec, ...]:
        return self.spaces

    @classmethod
    def from_factors(cls, factors: Sequence[TautClass]) -> "ProductClass":
        # distinct factor terms give distinct tuples and nonzero products
        terms: dict = {}
        for combo in itertools.product(*(f.terms.items() for f in factors)):
            terms[tuple(g for g, _ in combo)] = _rational(prod(c for _, c in combo))
        return cls._carry([f.space for f in factors], terms)

    def _times(self, other: "ProductClass") -> "ProductClass":
        """Factor-by-factor product.  Term pairs share factor generators, so
        each distinct ``(factor, ga, gb)`` product is computed once per call."""
        spaces = self._common(other)
        memo: dict = {}
        parts = []
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                factors = []
                for i, (sp, ga, gb) in enumerate(zip(spaces, ka, kb)):
                    if (i, ga, gb) not in memo:
                        memo[i, ga, gb] = _mul_poly(
                            TautClass._carry(sp, {ga: 1}),
                            TautClass._carry(sp, {gb: 1}),
                        )
                    factors.append(memo[i, ga, gb])
                parts.append((va * vb, ProductClass.from_factors(factors).terms))
        return ProductClass._carry(spaces, _accumulate(parts))

    def map_factor(self, i: int, fn) -> "ProductClass":
        """Apply a linear TautClass -> TautClass map to factor i.  Many terms
        share a factor-i generator, so ``fn`` runs once per distinct one."""
        new_space = fn(zero(self.spaces[i])).space
        images: dict = {}
        parts = []
        for gens, coeff in self.terms.items():
            if gens[i] not in images:
                images[gens[i]] = fn(TautClass._carry(self.spaces[i], {gens[i]: 1}))
            parts.append((coeff, {
                gens[:i] + (g2,) + gens[i + 1 :]: c2 for g2, c2 in images[gens[i]].terms.items()
            }))
        spaces = self.spaces[:i] + (new_space,) + self.spaces[i + 1 :]
        return ProductClass._carry(spaces, _accumulate(parts))


@lru_cache(maxsize=4096)
def glue_spaces(space: ModuliSpec, graph: Gen) -> tuple[ModuliSpec, ...]:
    return tuple(_vertex_space(factor, space.policy) for factor in _vertex_factors(graph))


def pushforward_gluing(space: ModuliSpec, graph: Gen, pc: ProductClass) -> TautClass:
    """xi_{Gamma*} of a product class on the vertex factors of Gamma.  No
    automorphism factor is applied; callers building delta-type sums supply
    1/|Aut| themselves."""
    expected = glue_spaces(space, graph)
    if pc.spaces != expected:
        raise ValueError("product factors do not match the gluing graph")
    return TautClass(space, _accumulate(
        (1, {_assemble_glued(graph, gens): coeff}) for gens, coeff in pc.terms.items()
    ))


def pullback_gluing(c: TautClass, graph: Gen) -> ProductClass:
    """xi_Gamma^*: free monomials factor by factor on the vertices (kappa_i
    sums over the vertices, lambda_i over the splits of i, psi restricts);
    one-edge separating generators by self-excess plus transverse vertex
    splits, which makes the total boundary the vertex boundaries minus psi
    at the glued half edges."""
    spaces = glue_spaces(c.space, graph)
    parts = []
    for gen, coeff in c.terms.items():
        if gen.is_trivial_graph():
            piece = _pull_free_gluing(spaces, graph, gen)
        else:
            piece = _pull_boundary_gluing(spaces, graph, gen)
        parts.append((coeff, piece.terms))
    return ProductClass._carry(spaces, _accumulate(parts))


def _pull_free_gluing(spaces, graph: Gen, gen: Gen) -> ProductClass:
    """A free monomial restricted along a gluing map, each factor placed on
    its vertex: kappa_i on one vertex at a time, psi_p on p's vertex, and
    lambda_i, by c(xi^*E) = prod_v c(E_v), on every split i = sum_v i_v as
    the product of the lambda_{i_v}."""
    n = len(spaces)
    # the alternative placements of each kappa_i or lambda_i factor, as
    # (vertex, 0 for kappa or 1 for lambda, index) triples
    alts = [[((v, 0, i),) for v in range(n)] for (i, e) in gen.kappa[0] for _ in range(e)]
    alts += [
        [tuple((v, 1, j) for v, j in enumerate(split) if j)
         for split in itertools.product(range(i + 1), repeat=n) if sum(split) == i]
        for (i, e) in gen.lam[0]
        for _ in range(e)
    ]
    psi_exp = {lab: e for (lab, _, e) in gen.legs}
    blank = _vertex_factors(_undecorated(graph))
    terms: dict = {}
    for combo in itertools.product(*alts):
        mons: list = [([], []) for _ in range(n)]
        for placed in combo:
            for v, part, i in placed:
                mons[v][part].append((i, 1))
        key = tuple(
            Gen(f.genera, (), tuple((lab, 0, psi_exp.get(lab, 0)) for (lab, _, _) in f.legs),
                (_norm_monomial(kap),), (_norm_monomial(lm),))
            for f, (kap, lm) in zip(blank, mons)
        )
        terms[key] = terms.get(key, 0) + 1
    return ProductClass(spaces, terms)


def _pull_boundary_gluing(spaces, graph: Gen, gen: Gen) -> ProductClass:
    """xi_Gamma^* of a one-edge separating generator, read off the two sides
    (genus h, legs L, vertex factor, slot) of its graph Delta.  A side equal
    to Gamma's vertex 0 identifies the edges: the self-excess -(psi +
    psibar) times Delta's factors moved onto Gamma's slots.  A side with L
    among the legs of a vertex v, the rest of v stable, splits v
    transversally: S = boundary_gen(v's space, h, L) carries the side's
    factor on its slot-free vertex, and Delta's other side, which S's slot
    vertex and Gamma's other vertex u merge into, is pulled back along the
    edge joining them.  S has no automorphism, and a symmetric Delta is
    counted once per side."""
    if len(gen.edges) != 1 or len(graph.edges) != 1:
        raise UnsupportedOperation("gluing pullback for one-edge graphs only")
    # two separating edges meet transversally in a three-vertex tree, on
    # either policy; a self edge has more ways to meet
    if any(a == b for (a, b, _, _) in gen.edges + graph.edges):
        raise UnsupportedOperation(
            "boundary gluing pullback implemented on compact type (separating edges) only"
        )
    slot = dict(_halfedge_slots(graph))
    legs = [{lab for (lab, w, _) in graph.legs if w == v} for v in (0, 1)]
    factors = _vertex_factors(gen)
    sides = [
        (gen.genera[j], {lab for (lab, w, _) in gen.legs if w == j}, factors[j], s)
        for j, s in _halfedge_slots(gen)
    ]
    terms: dict = {}
    for (h, L, f, s), (_, _, rest, r) in (sides, sides[::-1]):
        if (h, L) == (graph.genera[0], legs[0]):
            moved = [_relabel(f, {s: slot[0]}), _relabel(rest, {r: slot[1]})]
            for v in (0, 1):
                x = list(moved)
                x[v] = _merge_free(x[v], _trivial_gen(spaces[v], psi_mon={slot[v]: 1}))
                terms[tuple(x)] = terms.get(tuple(x), 0) - 1
        for v, u in ((0, 1), (1, 0)):
            g_m = graph.genera[v] - h  # the rest of v: v's other legs, slot, new edge
            if not L <= legs[v] or g_m < 0 or 2 * g_m + len(legs[v]) - len(L) <= 0:
                continue
            split = boundary_gen(spaces[v], h, sorted(L))
            (_, sa), (_, sb) = _halfedge_slots(split)
            merged = _vertex_space(rest, spaces[v].policy)
            edge = boundary_gen(merged, g_m, sorted((legs[v] - L) | {r}))
            (_, ea), (_, eb) = _halfedge_slots(edge)
            pulled = _pull_free_gluing(glue_spaces(merged, edge), edge, rest)
            tail = _relabel(f, {s: sa})
            for (m, w), c in pulled.terms.items():
                pair = (_assemble_glued(split, [tail, _relabel(m, {r: sb, ea: slot[v]})]),
                        _relabel(w, {eb: slot[u]}))
                key = pair if v == 0 else pair[::-1]
                terms[key] = terms.get(key, 0) + c
    return ProductClass(spaces, terms)


# --------------------------------------------------------------------------
# serialization


@lru_cache(maxsize=4096)
def gen_to_string(gen: Gen) -> str:
    parts = ["V " + " ".join(str(g) for g in gen.genera)]
    if gen.edges:
        parts.append("E " + " ".join(f"{a}-{b}" for (a, b, _, _) in gen.edges))
    if gen.legs:
        parts.append("L " + " ".join(f"{lab}@{v}" for (lab, v, _) in gen.legs))
    decor = []
    for v in range(gen.n_vertices()):
        for (i, e) in gen.kappa[v]:
            decor.append(f"v{v}:kappa{i}^{e}")
        for (i, e) in gen.lam[v]:
            decor.append(f"v{v}:lambda{i}^{e}")
    for (lab, v, e) in gen.legs:
        if e:
            decor.append(f"l{lab}:psi^{e}")
    for i, (a, b, av, aw) in enumerate(gen.edges):
        if av:
            decor.append(f"e{i}a:psi^{av}")
        if aw:
            decor.append(f"e{i}b:psi^{aw}")
    if decor:
        parts.append("decor " + " ".join(decor))
    return "; ".join(parts)
