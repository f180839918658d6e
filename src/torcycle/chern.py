"""Chern characters and Chern classes of the (log) tangent bundles of
moduli of curves and of moduli of principally polarized abelian varieties.

Curve side: the degree-m character of the log cotangent bundle is

    B_{m+1}(2)/(m+1)! kappa_m
      - B_{m+1}(1)/(m+1)! sum_i psi_i^m
      + B_{m+1}(1)/(m+1)! sum_Gamma 1/|Aut| xi_* sum_{i+j=m-1} psi^i (-psibar)^j

summed over one-edge boundary graphs (compact type omits the self-edge
graph).  The boundary sum carries a plus sign: that is the sign forced by
the classical first Chern class 2 delta - 13 lambda_1 - sum psi of the
tangent bundle and by the kappa_2 coefficient -1/2 in degree 2.  The
structure-sheaf correction from the boundary inclusions is the inverse Todd
expansion xi_*((psi+psibar)^(m-1)/m!).

Abelian side: the tangent bundle is the second symmetric power of the dual
Hodge bundle, with Chern roots -a_i - a_j for i <= j; characters are
expanded through power sums into lambda classes.  The reduced form applies
the vanishing of even power sums of the Hodge bundle, with the square-free
lambda monomials as the normal-form basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .algebra import bernoulli_polynomial, chern_from_ch
from .tautring import (
    Gen,
    ModuliSpec,
    TautClass,
    UnsupportedOperation,
    delta_irr,
    kappa,
    lam,
    one_edge_graphs,
    psi,
    zero,
)


# --------------------------------------------------------------------------
# curve side


def _decorate_edge(gen: Gen, exps: tuple[int, int]) -> Gen:
    (a, b, av, aw) = gen.edges[0]
    e2 = (a, b, av + exps[0], aw + exps[1])
    if (e2[1], e2[3]) < (e2[0], e2[2]):
        e2 = (e2[1], e2[0], e2[3], e2[2])
    return Gen(gen.genera, (e2,), gen.legs, gen.kappa, gen.lam)


def ch_log_cotangent(space: ModuliSpec, m: int) -> TautClass:
    """Degree-m Chern character of the log cotangent bundle."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    ck = bernoulli_polynomial(m + 1, 2) / factorial(m + 1)
    cp = bernoulli_polynomial(m + 1, 1) / factorial(m + 1)
    out = ck * kappa(space, m)
    for lab in space.markings:
        out = out - cp * psi(space, lab, m)
    if cp != 0:
        for gen, aut in one_edge_graphs(space):
            acc = zero(space)
            for i in range(m):
                j = m - 1 - i
                sign = Fraction((-1) ** j)
                acc = acc + sign * TautClass(
                    space, {_decorate_edge(gen, (i, j)): Fraction(1)}
                )
            out = out + (cp / aut) * acc
    return out


def ch_structure_sheaves(space: ModuliSpec, m: int) -> TautClass:
    """Degree-m character of the sum of boundary structure sheaves: the
    inverse Todd correction to the log sequence."""
    if m < 1:
        return zero(space)
    out = zero(space)
    for gen, aut in one_edge_graphs(space):
        acc = zero(space)
        for i in range(m):
            j = m - 1 - i
            coeff = Fraction(comb(m - 1, i), factorial(m))
            acc = acc + coeff * TautClass(
                space, {_decorate_edge(gen, (i, j)): Fraction(1)}
            )
        out = out + Fraction(1, aut) * acc
    return out


def ch_cotangent(space: ModuliSpec, m: int) -> TautClass:
    return ch_log_cotangent(space, m) - ch_structure_sheaves(space, m)


def ch_tangent(space: ModuliSpec, m: int) -> TautClass:
    """ch_m of the tangent bundle: (-1)^m times the cotangent character."""
    return Fraction((-1) ** m) * ch_cotangent(space, m)


def chern_tangent_moduli(space: ModuliSpec, k: int) -> list[TautClass]:
    """Chern classes c_1..c_k of the tangent bundle, exact.

    Degree 1 is returned in the lambda/psi/delta basis (kappa_1 expanded).
    Products beyond the implemented boundary calculus raise; the divisor
    pipelines need k <= 2 with boundary terms and k = 3 only on the
    interior.
    """
    if k > 3:
        raise UnsupportedOperation("Chern classes beyond degree 3 not needed")
    from .tautring import kappa1_expand

    ch = [ch_tangent(space, m) for m in range(1, k + 1)]
    cs = chern_from_ch(ch, k)
    return [kappa1_expand(c) for c in cs]


def c1_tangent(space: ModuliSpec) -> TautClass:
    return chern_tangent_moduli(space, 1)[0]


# --------------------------------------------------------------------------
# abelian side


@dataclass(frozen=True)
class HodgeExpression:
    """Polynomial in lambda classes of the rank-g Hodge bundle.

    Monomials are sorted tuples of indices: (1, 1, 3) is lambda_1^2
    lambda_3.  ``reduced`` records whether the even-power-sum relations have
    been applied (normal form: square-free monomials).
    """

    g: int
    coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]
    reduced: bool = False

    @classmethod
    def from_dict(cls, g: int, d: dict, reduced: bool = False) -> "HodgeExpression":
        clean = {}
        for mon, c in d.items():
            mon = tuple(sorted(mon))
            c = Fraction(c)
            if c == 0:
                continue
            if any(i > g for i in mon):
                continue  # lambda beyond the rank vanishes
            clean[mon] = clean.get(mon, Fraction(0)) + c
        items = tuple(sorted((m, c) for m, c in clean.items() if c != 0))
        return cls(g, items, reduced)

    def to_dict(self) -> dict:
        return dict(self.coeffs)

    @classmethod
    def zero(cls, g: int) -> "HodgeExpression":
        return cls.from_dict(g, {})

    @classmethod
    def unit(cls, g: int) -> "HodgeExpression":
        return cls.from_dict(g, {(): Fraction(1)})

    @classmethod
    def lam(cls, g: int, i: int) -> "HodgeExpression":
        return cls.from_dict(g, {(i,): Fraction(1)})

    def __add__(self, other: "HodgeExpression") -> "HodgeExpression":
        d = self.to_dict()
        for m, c in other.coeffs:
            d[m] = d.get(m, Fraction(0)) + c
        return HodgeExpression.from_dict(self.g, d)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HodgeExpression":
        s = Fraction(scalar)
        return HodgeExpression.from_dict(
            self.g, {m: s * c for m, c in self.coeffs}, self.reduced
        )

    def __mul__(self, other):
        if not isinstance(other, HodgeExpression):
            return self.__rmul__(other)
        d: dict = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                m = tuple(sorted(m1 + m2))
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return HodgeExpression.from_dict(self.g, d)

    def __eq__(self, other):
        return (
            isinstance(other, HodgeExpression)
            and self.g == other.g
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.g, self.coeffs))

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, mon) -> Fraction:
        return dict(self.coeffs).get(tuple(sorted(mon)), Fraction(0))

    def reduce(self) -> "HodgeExpression":
        """Normal form modulo the even power-sum relations: every square
        lambda_i^2 rewrites to 2(lambda_{i-1} lambda_{i+1} - lambda_{i-2}
        lambda_{i+2} + ...); the square-free monomials are a basis."""
        work = self.to_dict()
        out: dict = {}
        while work:
            mon, c = work.popitem()
            if c == 0:
                continue
            sq = _first_square(mon)
            if sq is None:
                out[mon] = out.get(mon, Fraction(0)) + c
                continue
            rest = list(mon)
            rest.remove(sq)
            rest.remove(sq)
            for j in range(1, sq + 1):
                hi = sq + j
                if hi > self.g:
                    break
                lo = sq - j
                repl = tuple(sorted(rest + ([lo, hi] if lo >= 1 else [hi])))
                coeff = c * Fraction(2 * (-1) ** (j - 1))
                work[repl] = work.get(repl, Fraction(0)) + coeff
        return HodgeExpression.from_dict(self.g, out, reduced=True)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mon, c in self.coeffs:
            if not mon:
                parts.append(str(c))
                continue
            names = []
            i = 0
            while i < len(mon):
                j = i
                while j < len(mon) and mon[j] == mon[i]:
                    j += 1
                e = j - i
                names.append(f"lambda{mon[i]}" + (f"^{e}" if e > 1 else ""))
                i = j
            body = "*".join(names)
            parts.append(f"{c}*{body}" if c != 1 else body)
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _first_square(mon) -> int | None:
    for i in range(len(mon) - 1):
        if mon[i] == mon[i + 1]:
            return mon[i]
    return None


def _power_sums(g: int, m: int) -> list[HodgeExpression]:
    """Power sums p_1..p_m of the Hodge Chern roots as lambda polynomials
    (Newton's identities with e_i = lambda_i, zero beyond the rank)."""
    e = [HodgeExpression.unit(g)] + [
        HodgeExpression.lam(g, i) if i <= g else HodgeExpression.zero(g)
        for i in range(1, m + 1)
    ]
    p: list = [None]
    for k in range(1, m + 1):
        acc = Fraction((-1) ** (k - 1) * k) * e[k]
        sign = 1
        for i in range(1, k):
            acc = acc + Fraction(sign) * (e[i] * p[k - i])
            sign = -sign
        p.append(acc)
    return p[1:]


def ch_tangent_Ag(g: int, m: int, reduced: bool = False) -> HodgeExpression:
    """Degree-m Chern character of the tangent bundle of the moduli of
    ppav's of dimension g: Chern roots -a_i - a_j over i <= j.

    Raw form is the plain symmetric-function expansion; the reduced form
    applies the even-power-sum vanishing.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m == 0:
        return Fraction(g * (g + 1), 2) * HodgeExpression.unit(g)
    if m > 2 * g:
        raise ValueError(f"degree {m} beyond the 2g cap")
    p = _power_sums(g, m)

    def P(k: int) -> HodgeExpression:
        if k == 0:
            return Fraction(g) * HodgeExpression.unit(g)
        return p[k - 1]

    # sum over i <= j of (a_i + a_j)^m, halved double count plus diagonal
    total = HodgeExpression.zero(g)
    for k in range(m + 1):
        total = total + Fraction(comb(m, k)) * (P(k) * P(m - k))
    total = total + Fraction(2**m) * P(m)
    total = Fraction(1, 2) * total
    out = Fraction((-1) ** m, factorial(m)) * total
    return out.reduce() if reduced else out


@dataclass(frozen=True)
class ToroidalDivisorClass:
    """Formal class a lambda_1 + b D on a rank-one toroidal enlargement of
    the abelian moduli: D is the (irreducible) boundary divisor symbol,
    pulling back to the irreducible boundary class on the curve side."""

    lambda1: Fraction
    boundary: Fraction

    def __neg__(self):
        return ToroidalDivisorClass(-self.lambda1, -self.boundary)

    def pullback_to_curves(self, space: ModuliSpec) -> TautClass:
        if space.policy != "stable":
            raise UnsupportedOperation("pullback needs the stable policy")
        return Fraction(self.lambda1) * lam(space) + Fraction(self.boundary) * delta_irr(space)

    def __str__(self):
        return f"{self.lambda1}*lambda1 + {self.boundary}*D".replace("+ -", "- ")


def c1_log_cotangent_Abar4() -> ToroidalDivisorClass:
    """First Chern class of the log cotangent bundle on the rank <= 1
    toroidal enlargement in genus 4: c_1(Sym^2 E) + [D] combine to
    5 lambda_1 - D."""
    # c_1(Sym^2 E) for rank 4 is (g+1) lambda_1 = 5 lambda_1; the boundary
    # sequence subtracts D
    return ToroidalDivisorClass(Fraction(5), Fraction(-1))
