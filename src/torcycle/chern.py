"""Chern characters and Chern classes of the (log) tangent bundles of
moduli of curves and of moduli of principally polarized abelian varieties.

Curve side: the degree-m character of the tangent bundle is one sum over
the one-edge boundary graphs (compact type omits the self-edge graph),

    (-1)^m [c_k kappa_m - c_p sum_i psi_i^m
            + sum_Gamma 1/|Aut| xi_* sum_{i+j=m-1} w_i psi^i psibar^j],
    c_k = B_{m+1}(2)/(m+1)!,  c_p = B_{m+1}(1)/(m+1)!,
    w_i = c_p (-1)^j - C(m-1, i)/m!.

The one-pass weight w_i holds both boundary pieces of the cotangent
character: c_p (-1)^j from the log cotangent bundle, its sign forced by the
classical c_1 = 2 delta - 13 lambda_1 - sum psi and by the kappa_2
coefficient -1/2, less C(m-1, i)/m!, the inverse Todd expansion
xi_*((psi+psibar)^(m-1)/m!) of the boundary structure sheaves.

Abelian side: the tangent bundle is the second symmetric power of the dual
Hodge bundle, with Chern roots -a_i - a_j for i <= j; characters are
expanded through power sums into lambda classes.  The reduced form applies
the vanishing of even power sums of the Hodge bundle, with the square-free
lambda monomials as the normal-form basis.

Chern classes come from characters through Newton's identities
(``algebra.chern_from_ch``).  The genus-4 toroidal enlargement enters only
through its log cotangent c_1, pulled back to a curve-side ``TautClass``.

Both sides meet in ``InteriorClass``, the polynomial ring in lambda and
kappa classes: the abelian characters are lambda polynomials, and on the
interior of M_g the curve-side character is the kappa term alone
(:func:`ch_tangent_interior`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial

from .algebra import (
    _accumulate,
    _LinearCombination,
    bernoulli_polynomial,
    ch_from_chern,
    chern_from_ch,
    power,
    render_sum,
)
from .tautring import (
    ModuliSpec,
    TautClass,
    delta_irr,
    kappa,
    lam,
    one_edge_graphs,
    psi,
)


# --------------------------------------------------------------------------
# curve side


def _kappa_coefficient(m: int) -> Fraction:
    """B_{m+1}(2)/(m+1)!, the kappa_m coefficient of ch_m(log cotangent)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    return bernoulli_polynomial(m + 1, 2) / factorial(m + 1)


def ch_tangent(space: ModuliSpec, m: int) -> TautClass:
    """ch_m of the tangent bundle, one pass over the one-edge graphs (see
    the module docstring)."""
    ck = _kappa_coefficient(m)
    cp = bernoulli_polynomial(m + 1, 1) / factorial(m + 1)
    weights = [cp * (-1) ** (m - 1 - i) - Fraction(comb(m - 1, i), factorial(m))
               for i in range(m)]
    parts = [(ck, kappa(space, m).terms)]
    parts += [(-cp, psi(space, lab, m).terms) for lab in space.markings]
    # admission orients each decorated edge; a self edge decorates (i, j)
    # and (j, i) alike, so raw terms accumulate
    parts += [
        (w / aut, {gen._replace(edges=(gen.edges[0][:2] + (i, m - 1 - i),)): 1})
        for gen, aut in one_edge_graphs(space)
        for i, w in enumerate(weights)
    ]
    return (-1) ** m * TautClass(space, _accumulate(parts))


@lru_cache(maxsize=64)
def chern_tangent_moduli(space: ModuliSpec, k: int) -> tuple[TautClass, ...]:
    """Chern classes c_1..c_k of the tangent bundle, exact.

    Degree 1 is returned in the lambda/psi/delta basis (kappa_1 expanded).
    Any degree is tried: the products of Newton's identities decide, and one
    beyond the implemented boundary calculus raises UnsupportedOperation
    with its own limit.  Memoized per (space, k): every caller shares the
    tuple.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    from .tautring import kappa1_expand

    ch = [ch_tangent(space, m) for m in range(1, k + 1)]
    cs = chern_from_ch(ch, k)
    return tuple(kappa1_expand(c) for c in cs)


def c1_tangent(space: ModuliSpec) -> TautClass:
    return chern_tangent_moduli(space, 1)[0]


# --------------------------------------------------------------------------
# abelian side


class InteriorClass(_LinearCombination):
    """Polynomial in lambda and kappa classes, ``int`` or Fraction coefficients.

    A monomial is the sorted tuple of its generators ``("kappa", i)`` and
    ``("lambda", i)``, repeated by exponent: lambda_1^2 lambda_3 is
    ``(("lambda", 1), ("lambda", 1), ("lambda", 3))``.  Indices compare as
    integers, so lambda11 sorts after lambda5*lambda6.  The same ring holds
    the lambda polynomials of the rank-g Hodge bundle on the abelian side
    and the interior lambda/kappa classes of moduli of curves; the rank
    enters only where lambda_i is built (zero for i > g) and in
    :meth:`reduce`.
    """

    __slots__ = ("terms",)

    @classmethod
    def one(cls) -> "InteriorClass":
        return cls._carry(None, {(): 1})

    @classmethod
    def lam(cls, g: int, i: int) -> "InteriorClass":
        """lambda_i of a rank-g Hodge bundle."""
        return cls._carry(None, {(("lambda", i),): 1} if i <= g else {})

    @classmethod
    def kappa(cls, i: int) -> "InteriorClass":
        return cls._carry(None, {(("kappa", i),): 1})

    def _times(self, other: "InteriorClass") -> "InteriorClass":
        # for a fixed m1 the merged monomials are distinct
        return InteriorClass._carry(None, _accumulate(
            (c1, {tuple(sorted(m1 + m2)): c2 for m2, c2 in other.terms.items()})
            for m1, c1 in self.terms.items()
        ))

    def reduce(self, g: int) -> "InteriorClass":
        """Normal form modulo the even power-sum relations of the rank-g
        Hodge bundle: every square lambda_i^2 rewrites to
        2(lambda_{i-1} lambda_{i+1} - lambda_{i-2} lambda_{i+2} + ...),
        lambdas beyond the rank vanishing; the square-free monomials are a
        basis.  Each round rewrites one square per monomial."""
        done = []
        work = self.terms
        while work:
            rewrites = []
            for mon, c in work.items():
                sq = _first_lambda_square(mon)
                if sq is None:
                    done.append((1, {mon: c}))
                else:
                    rewrites.append((c, _rewrite_square(mon, sq, g)))
            work = _accumulate(rewrites)
        return InteriorClass._carry(None, _accumulate(done))

    def __str__(self):
        def body(mon):
            return "*".join(power(f"{name}{i}", len(list(run))) for (name, i), run in groupby(mon))

        return render_sum((c, body(mon)) for mon, c in sorted(self.terms.items()))

    __repr__ = __str__


def ch_tangent_interior(g: int, m: int) -> InteriorClass:
    """ch_m of the tangent bundle of M_g on the interior, where every
    boundary term of :func:`ch_tangent` vanishes: (-1)^m B_{m+1}(2)/(m+1)!
    kappa_m, with kappa_1 written as 12 lambda_1."""
    base = 12 * InteriorClass.lam(g, 1) if m == 1 else InteriorClass.kappa(m)
    return (-1) ** m * _kappa_coefficient(m) * base


def _first_lambda_square(mon) -> int | None:
    for a, b in zip(mon, mon[1:]):
        if a == b and a[0] == "lambda":
            return a[1]
    return None


def _rewrite_square(mon, s: int, g: int) -> dict:
    """lambda_s^2 times the rest of ``mon`` as sum_j 2 (-1)^(j-1)
    lambda_{s-j} lambda_{s+j} (lambda_0 = 1) times the rest."""
    rest = list(mon)
    rest.remove(("lambda", s))
    rest.remove(("lambda", s))
    out = {}
    for j in range(1, min(s, g - s) + 1):
        pair = [("lambda", s + j)] + ([("lambda", s - j)] if j < s else [])
        out[tuple(sorted(rest + pair))] = 2 * (-1) ** (j - 1)
    return out


def ch_tangent_Ag(g: int, m: int, reduced: bool = False) -> InteriorClass:
    """Degree-m Chern character of the tangent bundle of the moduli of
    ppav's of dimension g: Chern roots -a_i - a_j over i <= j.

    Raw form is the plain symmetric-function expansion; the reduced form
    applies the even-power-sum vanishing.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m == 0:
        return Fraction(g * (g + 1), 2) * InteriorClass.one()
    # power sums p_k = k! ch_k of the Hodge bundle, whose Chern classes are
    # the lambdas
    ch = ch_from_chern([InteriorClass.lam(g, i) for i in range(1, m + 1)], m)

    def P(k: int) -> InteriorClass:
        if k == 0:
            return g * InteriorClass.one()
        return factorial(k) * ch[k - 1]

    # sum over i <= j of (a_i + a_j)^m: half the double sum over all (i, j)
    # plus half the diagonal 2^m p_m, times (-1)^m / m!
    scale = Fraction((-1) ** m, 2 * factorial(m))
    parts = [(scale * comb(m, k), (P(k) * P(m - k)).terms) for k in range(m + 1)]
    parts.append((scale * 2**m, P(m).terms))
    out = InteriorClass._carry(None, _accumulate(parts))
    return out.reduce(g) if reduced else out


def chern_tangent_Ag(g: int, k: int, reduced: bool = False) -> InteriorClass:
    """c_k of the tangent bundle of the moduli of ppav's of dimension g,
    from ch_1..ch_k by Newton's identities; the reduced form reduces the
    characters and then their products."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if k < 1:
        raise ValueError("degree must be >= 1")
    c = chern_from_ch([ch_tangent_Ag(g, m, reduced) for m in range(1, k + 1)], k)[k - 1]
    return c.reduce(g) if reduced else c


def c1_log_cotangent_Abar4(space: ModuliSpec) -> TautClass:
    """First Chern class of the log cotangent bundle on the rank <= 1
    toroidal enlargement in genus 4, pulled back to the curve side:
    c_1(Sym^2 E) = (g+1) lambda_1 = 5 lambda_1 for rank 4, and the boundary
    sequence subtracts the boundary divisor D, which pulls back to
    delta_irr.  Stable policy only (``delta_irr`` refuses the others)."""
    return 5 * lam(space) - delta_irr(space)
