"""End-to-end assembly of the headline divisor classes.

* genus 4: the pullback of the Torelli cycle decomposes into the canonical
  top-Chern contributions of the diagonal, (1,3) and (2,2) components plus
  multiplicity-weighted intersection and nonreduced loci; everything
  cancels to 16 lambda_1.  A push-pull forms only the terms its push
  keeps: the fundamental class pushes to zero along a forgetful map.
* genus 5: the interior restriction, from closed forms with no boundary
  class: the characters are Bernoulli multiples of kappas and lambdas,
  Mumford's formula writes lambdas in kappas, degree 3 collapses onto
  kappa_3 by the socle pairing, and the hyperelliptic locus enters with
  multiplicity -20.
* the rank <= 1 toroidal extension in genus 4: bookkeeping of the
  irreducible boundary contributions gives 16 lambda_1 - 2 delta_irr on the
  curve side.

Every multiplicity is produced by the excess module; the only imported
literal is the hyperelliptic locus class in genus 5 (tagged as such in the
constants table).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import NamedTuple

from . import chern, ctp, excess
from .algebra import _accumulate, bernoulli_number, chern_from_ch
from .chern import InteriorClass
from .tautring import (
    Gen,
    ModuliSpec,
    ProductClass,
    TautClass,
    _halfedge_slots,
    _relabel,
    boundary_gen,
    delta_irr,
    delta_sep,
    delta_total,
    lam,
    one,
    pullback_forgetful,
    pullback_gluing,
    pushforward_forgetful,
    pushforward_gluing,
)

M4 = ModuliSpec(4, ())
M4_STABLE = ModuliSpec(4, (), "stable")


class PipelineMismatch(AssertionError):
    """A cross-checked intermediate disagreed with its expected value."""


class LedgerEntry(NamedTuple):
    source: str
    description: str
    multiplicity: Fraction
    value: TautClass


class ContributionLedger(NamedTuple):
    entries: tuple[LedgerEntry, ...]

    def total(self) -> TautClass:
        return TautClass._carry(
            self.entries[0].value.space,
            _accumulate((e.multiplicity, e.value.terms) for e in self.entries),
        )


# --------------------------------------------------------------------------
# marking renames and pair-space helpers


def rename_marking(c: TautClass, old: str, new: str) -> TautClass:
    space = ModuliSpec(
        c.space.genus,
        tuple(new if m == old else m for m in c.space.markings),
        c.space.policy,
    )
    return TautClass(space, {_relabel(g, {old: new}): coeff for g, coeff in c.terms.items()})


def _pull(c: TautClass, graph: Gen, names, forget: dict[int, str]) -> ProductClass:
    """Gluing pullback along the separating one-edge graph, then ``_lift``."""
    return _lift(pullback_gluing(c, graph), graph, names, forget)


def _lift(pc: ProductClass, graph: Gen, names, forget: dict[int, str]) -> ProductClass:
    """One pass per factor i of a class on the graph's vertex factors: its
    half-edge slot renamed to ``names[i]``, then the forgetful pullback
    adding marking ``forget[i]`` if i is in ``forget``."""
    for (i, slot), name in zip(_halfedge_slots(graph), names):
        def pull(cls, slot=slot, name=name, x=forget.get(i)):
            cls = rename_marking(cls, slot, name)
            return pullback_forgetful(cls, x) if x else cls
        pc = pc.map_factor(i, pull)
    return pc


def _kept(pc: ProductClass, factors) -> ProductClass:
    """The terms with a positive-degree generator at every factor in
    ``factors``: the only ones a push forgetting a marking on each of them
    keeps, since pi_* 1 = 0 along a forgetful map."""
    return ProductClass._carry(pc.spaces, {
        gens: c for gens, c in pc.terms.items() if all(gens[i].degree() for i in factors)
    })


def _push(pc: ProductClass, graph: Gen, names, forget: dict[int, str]) -> TautClass:
    """The way back from ``_pull``: one pass per factor i, the forgetful
    pushforward of marking ``forget[i]`` if i is in ``forget``, then
    ``names[i]`` renamed back to factor i's slot; then gluing pushforward.
    Only the ``_kept`` terms are pushed, which also keeps unsupported
    shapes in doomed terms from ever being pushed."""
    pc = _kept(pc, forget)
    for (i, slot), name in zip(_halfedge_slots(graph), names):
        def push(cls, slot=slot, name=name, x=forget.get(i)):
            if x:
                cls = pushforward_forgetful(cls, x)
            return rename_marking(cls, name, slot)
        pc = pc.map_factor(i, push)
    return pushforward_gluing(M4, graph, pc)


# --------------------------------------------------------------------------
# genus 4: the (1,3) component pipeline


def _a_component_contribution() -> TautClass:
    """Push-pull through the (1,3) gluing: the parametrizing product is
    genus-1 with marking p times genus-3 with markings q, y; the first
    projection glues p to q after forgetting y, the second glues p to y
    after forgetting q.  The push p1_* forgets y on the genus-3 factor, so
    p1_* p1^* = 0 and c_1(M_{1,p}) (x) 1 pushes to zero: of the normal class
    p1^*(-5 lambda_1 - c_1) - p2^*c_1 + c_1(T_X), only
    1 (x) c_1(M_{3,{q,y}}) - p2^*c_1 is formed."""
    graph = boundary_gen(M4, 1, ())
    p1 = (graph, ("p", "q"), {1: "y"})
    p2 = (graph, ("p", "y"), {1: "q"})
    tangent = ProductClass.from_factors(
        [one(ModuliSpec(1, ("p",))), chern.c1_tangent(ModuliSpec(3, ("q", "y")))]
    )
    return _push(tangent - _pull(chern.c1_tangent(M4), *p2), *p1)


# --------------------------------------------------------------------------
# genus 4: the (2,2) component pipeline


def _b_component_contribution() -> tuple[TautClass, dict[str, TautClass]]:
    """The three-term expansion on the square of the two-pointed genus-2
    product, halved for the symmetric-group quotient.  The push p1 forgets
    x and y, so only bidegree (1,1) survives it (``_kept``).  With
    p2^*c_1 = L + R of bidegrees (1,0), (0,1) and c_1(T_X) = A + B,
    A = c_1(F1) (x) 1, B = 1 (x) c_1(F2), each factor product has a unit side:
        product_tangent = push(c_2(T_X)) = push(A B)
        ambient_c2 = -push(p2^*(c_1^2/2 - ch_2)) = -push(L R - (p2^*ch_2)_(1,1))
        cross = push(p2^*c_1 (p2^*c_1 - c_1(T_X))) = push(2 L R - L B - R A)"""
    graph = boundary_gen(M4, 2, ())
    F1 = ModuliSpec(2, ("p", "x"))
    F2 = ModuliSpec(2, ("q", "y"))
    # p1 glues p to q after forgetting x, y; p2 glues x to y after forgetting p, q
    p1 = (graph, ("p", "q"), {0: "x", 1: "y"})
    p2 = (graph, ("x", "y"), {0: "p", 1: "q"})

    # F2 is F1 with p, x renamed to q, y: rename its Chern class, don't recompute
    c1_f1 = chern.c1_tangent(F1)
    c1_f2 = rename_marking(rename_marking(c1_f1, "p", "q"), "x", "y")
    A = ProductClass.from_factors([c1_f1, one(F2)])
    B = ProductClass.from_factors([one(F1), c1_f2])
    p2c1 = _pull(chern.c1_tangent(M4), *p2)
    L, R = _kept(p2c1, {0}), _kept(p2c1, {1})
    LR = L * R
    # _lift keeps each factor's degree, so the (1,1) terms are picked first
    p2ch2_11 = _lift(_kept(pullback_gluing(chern.ch_tangent(M4, 2), graph), p1[2]), *p2)

    term1 = _push(ProductClass.from_factors([c1_f1, c1_f2]), *p1)
    term2 = -1 * _push(LR - p2ch2_11, *p1)
    term3 = _push(2 * LR - L * B - R * A, *p1)

    pieces = {"product_tangent": term1, "ambient_c2": term2, "cross": term3}
    total = Fraction(1, 2) * (term1 + term2 + term3)
    return total, pieces


# --------------------------------------------------------------------------
# genus 4 headline


@lru_cache(maxsize=None)
def t_pullback_g4() -> tuple[TautClass, ContributionLedger]:
    """The genus-4 pullback of the Torelli cycle with its full ledger.

    Aborts with a diff against the expected intermediate whenever one of
    the cross-checked contributions drifts.  Computed once per process.
    """
    delta = delta_total(M4)
    delta_a = delta_sep(M4, 1)
    delta_b = delta_sep(M4, 2)

    # diagonal components: c1 of the normal class of the Torelli map
    c1_m4 = chern.c1_tangent(M4)
    diag = Fraction(-5) * lam(M4) - c1_m4
    expect_diag = 8 * lam(M4) - 2 * delta
    if diag != expect_diag:
        raise PipelineMismatch(f"diagonal contribution:\n{diag}\nexpected:\n{expect_diag}")

    a_contrib = _a_component_contribution()
    if a_contrib != 4 * delta_a:
        raise PipelineMismatch(f"(1,3) contribution:\n{a_contrib}\nexpected 4 delta_A")

    b_contrib, b_pieces = _b_component_contribution()
    expected_pieces = {
        "product_tangent": 8 * delta_b,
        "ambient_c2": -24 * delta_b,
        "cross": 32 * delta_b,
    }
    for key, expect in expected_pieces.items():
        if b_pieces[key] != expect:
            raise PipelineMismatch(
                f"(2,2) pipeline piece {key}:\n{b_pieces[key]}\nexpected:\n{expect}"
            )
    if b_contrib != 8 * delta_b:
        raise PipelineMismatch(f"(2,2) contribution:\n{b_contrib}\nexpected 8 delta_B")

    m_aa = excess.multiplicity(excess.ExcessDims(1, 1))
    m_ab = excess.multiplicity(excess.ExcessDims(2, 1))
    _, _, residual_unit = excess.verify_residual_model()
    strata = {z.name: z for z in ctp.one_edge_intersections(4)}
    push = {"delta_A": delta_a, "delta_B": delta_b}

    entries = [
        LedgerEntry("Delta+", "diagonal excess class", Fraction(1), diag),
        LedgerEntry("Delta-", "diagonal excess class", Fraction(1), diag),
        LedgerEntry("A+", "(1,3) excess class", Fraction(1), a_contrib),
        LedgerEntry("A-", "(1,3) excess class", Fraction(1), a_contrib),
        LedgerEntry("B", "(2,2) excess class (S2-halved)", Fraction(1), b_contrib),
    ]
    for name, mult in (("Z1", m_aa), ("Z2", m_aa), ("Z3", m_ab), ("Z4", m_ab)):
        z = strata[name]
        entries.append(
            LedgerEntry(
                name,
                f"{z.first} meets {z.second}, dim {z.dimension}",
                Fraction(mult),
                push[z.pushforward],
            )
        )
    for name in ("Z5", "Z6"):
        entries.append(
            LedgerEntry(
                name,
                "nonreduced locus in the (2,2) component",
                Fraction(residual_unit),
                delta_b,
            )
        )
    ledger = ContributionLedger(tuple(entries))
    final = ledger.total()
    if final != 16 * lam(M4):
        raise PipelineMismatch(f"assembled class:\n{final}\nexpected 16 lambda_1")
    return final, ledger


# --------------------------------------------------------------------------
# the interior ring: lambda classes in kappa, and the socle reduction


def interior_lambdas(g: int, k: int) -> list[InteriorClass]:
    """lambda_1..lambda_k of the Hodge bundle on M_g as kappa polynomials:
    Newton's identities applied to Mumford's ch_m(E) = B_{m+1}/(m+1)!
    kappa_m, which vanishes for even m since B_3 = B_5 = ... = 0."""
    if k > g:
        raise ValueError(f"the rank-{g} Hodge bundle has no lambda_{k}")
    ch = [bernoulli_number(m + 1) / factorial(m + 1) * InteriorClass.kappa(m)
          for m in range(1, k + 1)]
    return chern_from_ch(ch, k)


def _in_kappas(c: InteriorClass, lambdas) -> InteriorClass:
    """``c`` with each lambda_i replaced by ``lambdas[i - 1]``."""
    def factor(name, i):
        return lambdas[i - 1] if name == "lambda" else InteriorClass.kappa(i)

    return InteriorClass._carry(None, _accumulate(
        (coeff, prod((factor(*gen) for gen in mon), start=InteriorClass.one()).terms)
        for mon, coeff in c.terms.items()
    ))


def psi_socle_integral(g: int, exponents: tuple[int, ...]) -> Fraction:
    """Integral of a psi monomial against the product of the top two Chern
    classes of the Hodge bundle, in the classical closed form

        (2g + n - 3)! |B_{2g}| / (2^{2g-1} (2g)! prod (2 d_i - 1)!!).

    This pairing kills all boundary classes, so it computes on the open
    moduli space; it is the normal form used to pin the one-dimensional
    degree-(g-2) interior graded piece.
    """
    n = len(exponents)
    if sum(exponents) != g - 2 + n:
        raise ValueError("wrong total degree for the socle pairing")
    num = factorial(2 * g + n - 3) * abs(bernoulli_number(2 * g))
    odd = prod(prod(range(2 * d - 1, 0, -2)) for d in exponents)
    return num / (2 ** (2 * g - 1) * factorial(2 * g) * odd)


def kappa_socle_integral(g: int, parts: tuple[int, ...]) -> Fraction:
    """Socle pairing of kappa_{a_1} ... kappa_{a_n}: the sum over set
    partitions P of the n indices of (-1)^(n - |P|) times the psi integral
    with one point per block, whose exponent is the block's index sum + 1
    (the inverse of pi_* of a psi monomial as a sum over permutations of
    kappa products, one kappa per cycle)."""
    return sum(
        (-1) ** (len(parts) - len(blocks))
        * psi_socle_integral(g, tuple(sum(parts[i] for i in b) + 1 for b in blocks))
        for blocks in _set_partitions_of(list(range(len(parts))))
    )


def _set_partitions_of(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions_of(rest):
        yield [[first]] + part
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1 :]


@lru_cache(maxsize=16)
def interior_socle_ratios(g: int) -> MappingProxyType:
    """Degree-(g-2) reduction table: each kappa monomial of that degree as
    a multiple of kappa_{g-2}."""
    base = kappa_socle_integral(g, (g - 2,))
    return MappingProxyType(
        {p: kappa_socle_integral(g, p) / base for p in _partitions(g - 2, g - 2)})


def _partitions(n: int, mx: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, mx), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def reduce_to_socle(c: InteriorClass, g: int) -> InteriorClass:
    """A homogeneous degree-(g-2) class on M_g as its multiple of
    kappa_{g-2}: R^{g-2}(M_g) is one-dimensional and paired against
    lambda_g lambda_{g-1} (Faber 1999), so lambdas go to kappa polynomials
    (:func:`interior_lambdas`), then each kappa monomial to its socle
    ratio."""
    if any(sum(i for _, i in mon) != g - 2 for mon in c.terms):
        raise ValueError(f"reduction defined for homogeneous degree {g - 2}")
    ratios = interior_socle_ratios(g)
    total = sum(
        coeff * ratios[tuple(sorted((i for _, i in mon), reverse=True))]
        for mon, coeff in _in_kappas(c, interior_lambdas(g, g - 2)).terms.items()
    )
    return total * InteriorClass.kappa(g - 2)


# --------------------------------------------------------------------------
# genus 5 headline


#: imported literal: the class of the genus-5 hyperelliptic locus in the
#: interior ring (display-only provenance lives in the constants table)
HYPERELLIPTIC_G5 = Fraction(31, 30) * InteriorClass.kappa(3)


class Genus5Report(NamedTuple):
    ch_moduli: tuple[InteriorClass, ...]
    ch_abelian: tuple[InteriorClass, ...]
    #: degree-2 entry shown in its reduced normal form (lambda_2), the
    #: others as raw expansions
    ch_abelian_display: tuple[InteriorClass, ...]
    ch_normal: tuple[InteriorClass, ...]
    two_c3: InteriorClass
    multiplicity: int
    hyperelliptic: InteriorClass
    final: InteriorClass


def t_pullback_g5() -> tuple[InteriorClass, Genus5Report]:
    """Interior restriction of the genus-5 pullback: twice the third Chern
    class of the Torelli normal class plus the multiplicity-weighted
    hyperelliptic locus."""
    kappa = InteriorClass.kappa
    ch_m = tuple(chern.ch_tangent_interior(5, m) for m in (1, 2, 3))
    if ch_m != (-13 * InteriorClass.lam(5, 1), Fraction(1, 2) * kappa(2),
                Fraction(-119, 720) * kappa(3)):
        raise PipelineMismatch(f"moduli characters {ch_m}")

    ch_a = tuple(chern.ch_tangent_Ag(5, m) for m in (1, 2, 3))
    ch_a_display = (ch_a[0], chern.ch_tangent_Ag(5, 2, reduced=True), ch_a[2])
    ch_n = tuple(a - m_ for a, m_ in zip(ch_a, ch_m))

    c3 = chern_from_ch(list(ch_n), 3)[2]
    two_c3 = reduce_to_socle(2 * c3, 5)
    if two_c3 != Fraction(454, 15) * kappa(3):
        raise PipelineMismatch(f"2 c3(N) = {two_c3}")

    m = excess.multiplicity(excess.ExcessDims(3, 3))
    final = two_c3 + Fraction(m) * HYPERELLIPTIC_G5
    if final != Fraction(48, 5) * kappa(3):
        raise PipelineMismatch(f"final class {final}")
    return final, Genus5Report(ch_m, ch_a, ch_a_display, ch_n, two_c3, m, HYPERELLIPTIC_G5, final)


# --------------------------------------------------------------------------
# the toroidal rank <= 1 extension in genus 4


def _to_stable(c: TautClass) -> TautClass:
    return TautClass(M4_STABLE, dict(c.terms))


class Abar4Report(NamedTuple):
    curve_side: TautClass
    delta_irr_coeff_in_c1: Fraction
    pic_conclusion: str


def t_pushforward_Abar4() -> tuple[TautClass, Abar4Report]:
    """Curve-side bookkeeping for the extension over rank <= 1
    degenerations: each diagonal contributes an extra -delta_irr, so the
    interior answer 16 lambda_1 becomes 16 lambda_1 - 2 delta_irr; in the
    lambda/boundary basis upstairs this reads 16 lambda_1 - 2 D."""
    c1_stable = chern.c1_tangent(M4_STABLE)
    expect = 2 * delta_total(M4_STABLE) - 13 * lam(M4_STABLE)
    if c1_stable != expect:
        raise PipelineMismatch("stable-policy first Chern class drifted")
    dirr = delta_irr(M4_STABLE)
    irr_gen = next(iter(dirr.terms))
    coeff_in_c1 = Fraction(c1_stable.terms[irr_gen]) / dirr.terms[irr_gen]

    pulled_tangent = -1 * chern.c1_log_cotangent_Abar4(M4_STABLE)
    diag_stable = pulled_tangent - c1_stable

    interior16, _ = t_pullback_g4()
    interior_diag = Fraction(-5) * lam(M4) - chern.c1_tangent(M4)
    correction = 2 * (diag_stable - _to_stable(interior_diag))

    curve_side = _to_stable(interior16) + correction
    if curve_side != 16 * lam(M4_STABLE) - 2 * dirr:
        raise PipelineMismatch(f"curve side {curve_side}")
    report = Abar4Report(
        curve_side,
        coeff_in_c1,
        "16*lambda1 - 2*D",
    )
    return curve_side, report


# --------------------------------------------------------------------------
# dimensions


def torelli_dimension(g: int) -> tuple[Fraction, str]:
    """Expected dimension (-g^2 + 11 g - 12)/2 of the pullback cycle on
    M^ct_g, with its vanishing verdict.  One bound decides a nonnegative
    dimension: R^k(M^ct_g) = 0 for k > 2g - 3 (Graber-Vakil, Duke 2005),
    applied to the codimension (g - 2)(g - 3)/2, which holds for a
    tautological class."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    dim = Fraction(-g * g + 11 * g - 12, 2)
    codim = (g - 2) * (g - 3) // 2
    if dim < 0:
        verdict = "vanishes (negative dimension)"
    elif codim > 2 * g - 3:
        verdict = (f"vanishes on M^ct_g (codimension {codim} > 2g-3 = {2 * g - 3}, R^k = 0 "
                   "for k > 2g-3 by Graber-Vakil; assumes a tautological class)")
    else:
        verdict = "possibly nonzero"
    return dim, verdict
