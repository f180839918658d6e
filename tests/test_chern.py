import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from torcycle import tautring as tr
from torcycle.algebra import _accumulate, bernoulli_polynomial, ch_from_chern, chern_from_ch
from torcycle.chern import (
    InteriorClass,
    c1_log_cotangent_Abar4,
    c1_tangent,
    ch_tangent,
    ch_tangent_Ag,
    ch_tangent_interior,
    chern_tangent_moduli,
)
from torcycle.tautring import (
    ModuliSpec,
    TautClass,
    boundary_gen,
    delta_total,
    kappa,
    kappa1_expand,
    lam,
    make_gen,
    multiply,
    one_edge_graphs,
    psi,
    psi_total,
)

F = Fraction

M4 = ModuliSpec(4, ())


def expected_c1(space):
    return 2 * delta_total(space) - 13 * lam(space) - psi_total(space)


# The two boundary sums that ch_tangent joins into one edge weight, kept
# as a reference: ch_m(T) = (-1)^m (log cotangent - structure sheaves).

def edge_sum(space, m, weight):
    """sum over one-edge graphs of 1/|Aut| xi_* sum_{i+j=m-1} weight(i) psi^i psibar^j."""
    return TautClass(space, _accumulate(
        (F(weight(i), aut), {make_gen(gen.genera, [gen.edges[0][:2] + (i, m - 1 - i)],
                                      gen.legs): 1})
        for gen, aut in one_edge_graphs(space) for i in range(m)))


def ch_log_cotangent(space, m):
    """Degree-m character of the log cotangent bundle."""
    ck = bernoulli_polynomial(m + 1, 2) / factorial(m + 1)
    cp = bernoulli_polynomial(m + 1, 1) / factorial(m + 1)
    psis = TautClass(space, _accumulate((1, psi(space, lab, m).terms) for lab in space.markings))
    return ck * kappa(space, m) - cp * psis + cp * edge_sum(space, m, lambda i: (-1) ** (m - 1 - i))


def ch_structure_sheaves(space, m):
    """Degree-m character of the sum of boundary structure sheaves: the
    inverse Todd correction to the log sequence."""
    if m < 1:
        return tr.zero(space)
    return F(1, factorial(m)) * edge_sum(space, m, lambda i: comb(m - 1, i))


def ch_tangent_by_two_sums(space, m):
    return (-1) ** m * (ch_log_cotangent(space, m) - ch_structure_sheaves(space, m))


class TestLogCotangent:
    """The reference sums above, pinned at known values."""

    def test_kappa_coefficient_m1(self):
        c = ch_log_cotangent(M4, 1)
        assert c.coefficient(tr._trivial_gen(M4, kappa_mon=[(1, 1)])) == F(13, 12)

    def test_m2_is_half_kappa2_plus_boundary(self):
        # B_3(1) = 0 kills psi and boundary pieces of the log part
        c = ch_log_cotangent(M4, 2)
        assert c == F(1, 2) * kappa(M4, 2)

    def test_m1_delta_coefficient(self):
        c = ch_log_cotangent(M4, 1)
        boundary = c - F(13, 12) * kappa(M4, 1)
        assert boundary == F(1, 12) * delta_total(M4)

    def test_structure_sheaf_m1_is_delta(self):
        assert ch_structure_sheaves(M4, 1) == delta_total(M4)

    def test_structure_sheaf_m0(self):
        assert ch_structure_sheaves(M4, 0).is_zero()

    def test_structure_sheaf_m2(self):
        c = ch_structure_sheaves(M4, 2)
        genB = boundary_gen(M4, 2, (), exps=(1, 0))
        genA1 = boundary_gen(M4, 1, (), exps=(1, 0))
        genA3 = boundary_gen(M4, 1, (), exps=(0, 1))
        expect = (
            F(1, 2) * TautClass(M4, {genA1: F(1)})
            + F(1, 2) * TautClass(M4, {genA3: F(1)})
            + F(1, 2) * TautClass(M4, {genB: F(1)})  # 1/2 Aut x (1/2+1/2) folds
        )
        assert c == expect


class TestTangentChernClasses:
    @pytest.mark.parametrize(
        "g,n",
        [(1, 1), (2, 0), (2, 1), (3, 1), (3, 2), (4, 0), (5, 0)],
    )
    def test_c1_closed_form_ct(self, g, n):
        space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
        assert c1_tangent(space) == expected_c1(space)

    def test_c1_full_grid(self):
        # the closed form holds across every stable (g, n) with g <= 5,
        # n <= 2, not only at the quoted pairs
        for g in range(1, 6):
            for n in range(0, 3):
                if 2 * g - 2 + n <= 0:
                    continue
                space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
                assert c1_tangent(space) == expected_c1(space), (g, n)

    def test_c1_two_routes_agree(self):
        # negated (log minus structure sheaves) at m=1, kappa_1 expanded
        space = ModuliSpec(3, ("p",))
        route1 = c1_tangent(space)
        route2 = kappa1_expand(
            -1 * (ch_log_cotangent(space, 1) - ch_structure_sheaves(space, 1))
        )
        assert route1 == route2

    @given(st.integers(0, 4), st.integers(0, 3), st.integers(1, 4),
           st.sampled_from(("ct", "stable")))
    @settings(max_examples=60, deadline=None)
    def test_one_edge_sum_matches_two_sums(self, g, n, m, policy):
        # the one-pass weight w_i against the log cotangent and structure
        # sheaf sums it replaced
        if 2 * g - 2 + n <= 0:
            n = 3 - 2 * g
        space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)), policy)
        assert ch_tangent(space, m) == ch_tangent_by_two_sums(space, m)

    def test_c2_genus4_closed_form(self):
        cs = chern_tangent_moduli(M4, 2)
        c2 = cs[1]
        d = 13 * lam(M4) - 2 * delta_total(M4)
        genA = boundary_gen(M4, 1, (), exps=(1, 0))
        genA2 = boundary_gen(M4, 1, (), exps=(0, 1))
        genB = boundary_gen(M4, 2, (), exps=(1, 0))
        expect = (
            F(-1, 2) * kappa(M4, 2)
            + F(1, 2) * multiply(d, d)
            + F(1, 2) * (TautClass(M4, {genA: F(1)}) + TautClass(M4, {genA2: F(1)}))
            + F(1, 2) * TautClass(M4, {genB: F(1)})  # 1/4 x (psi x 1 + 1 x psi) folds
        )
        assert c2 == expect

    def test_memoized_tuple(self):
        cs = chern_tangent_moduli(M4, 2)
        assert type(cs) is tuple and chern_tangent_moduli(M4, 2) is cs

    def test_c2_kappa2_coefficient(self):
        c2 = chern_tangent_moduli(M4, 2)[1]
        coeff = c2.coefficient(tr._trivial_gen(M4, kappa_mon=[(2, 1)]))
        assert coeff == F(-1, 2)
        assert coeff != F(-1, 3)

    @staticmethod
    def boundary_free(c: TautClass) -> dict:
        return {g: coeff for g, coeff in c.terms.items() if not g.edges}

    def test_ch2_interior(self):
        space = ModuliSpec(5, ())
        assert self.boundary_free(ch_tangent(space, 2)) == (F(1, 2) * kappa(space, 2)).terms
        assert ch_tangent_interior(5, 2) == F(1, 2) * InteriorClass.kappa(2)

    def test_ch3_interior(self):
        space = ModuliSpec(5, ())
        assert self.boundary_free(ch_tangent(space, 3)) == (F(-119, 720) * kappa(space, 3)).terms
        assert ch_tangent_interior(5, 3) == F(-119, 720) * InteriorClass.kappa(3)

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_interior_closed_form(self, g):
        # the closed form is the boundary-free part of the full character,
        # with kappa_1 written as 12 lambda_1
        space = ModuliSpec(g, ())
        for m in (1, 2, 3):
            (gen, coeff), = self.boundary_free(ch_tangent(space, m)).items()
            assert gen == next(iter(kappa(space, m).terms))
            base = 12 * InteriorClass.lam(g, 1) if m == 1 else InteriorClass.kappa(m)
            assert ch_tangent_interior(g, m) == coeff * base

    @pytest.mark.parametrize("k", [0, -1])
    def test_degree_below_one(self, k):
        space = ModuliSpec(2, ())
        for build in (chern_tangent_moduli, ch_tangent, ch_tangent_interior):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                build(2 if build is ch_tangent_interior else space, k)


class TestAbelianSide:
    def test_ch1(self):
        for g in range(2, 7):
            assert ch_tangent_Ag(g, 1) == F(-(g + 1)) * InteriorClass.lam(g, 1)

    def test_ch2_raw(self):
        g = 5
        l1, l2 = InteriorClass.lam(g, 1), InteriorClass.lam(g, 2)
        raw = ch_tangent_Ag(g, 2)
        assert raw == F(g + 3, 2) * l1 * l1 - (g + 2) * l2

    def test_ch2_reduced(self):
        for g in range(2, 7):
            assert ch_tangent_Ag(g, 2, reduced=True) == InteriorClass.lam(g, 2)

    def test_ch3_raw_genus5(self):
        l1, l2, l3 = (InteriorClass.lam(5, i) for i in (1, 2, 3))
        raw = ch_tangent_Ag(5, 3)
        expect = F(-12, 6) * l1 * l1 * l1 + F(33, 6) * l1 * l2 + F(-27, 6) * l3
        assert raw == expect

    def test_reduction_lies_in_even_power_sum_ideal(self):
        # raw - reduced must vanish after reduction, and reduced forms of
        # even characters carry no pure lambda_1 power
        for g in range(2, 7):
            for m in range(1, 5):
                raw = ch_tangent_Ag(g, m)
                red = ch_tangent_Ag(g, m, reduced=True)
                assert (raw - red).reduce(g).is_zero()
                if m % 2 == 0:
                    assert red.terms.get((("lambda", 1),) * m, 0) == 0

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_top_chern_class_is_euler_class(self, g):
        # Gauss-Bonnet on the compact dual LG(g, 2g), whose Euler
        # characteristic is 2^g: c_N(T) = (-1)^N 2^g lambda_1...lambda_g,
        # N = g(g+1)/2, in the reduced ring (N exceeds 2g from g = 4 on)
        n = g * (g + 1) // 2
        chs = [ch_tangent_Ag(g, m, reduced=True) for m in range(1, n + 1)]
        euler = InteriorClass.one()
        for i in range(1, g + 1):
            euler = euler * InteriorClass.lam(g, i)
        assert chern_from_ch(chs, n)[n - 1].reduce(g) == (-1) ** n * 2**g * euler

    @pytest.mark.parametrize("g", [0, -1])
    def test_genus_below_one(self, g):
        # degree 0 used to return g(g+1)/2 before any genus check
        for m in (0, 1, 2):
            for reduced in (False, True):
                with pytest.raises(ValueError, match="genus must be >= 1"):
                    ch_tangent_Ag(g, m, reduced=reduced)

    def test_squarefree_normal_form(self):
        g = 6
        l1, l2, l3, l4 = (InteriorClass.lam(g, i) for i in (1, 2, 3, 4))
        red = (l2 * l2).reduce(g)
        assert red == 2 * l1 * l3 - 2 * l4

    def test_reduce_idempotent(self):
        g = 5
        e = ch_tangent_Ag(g, 4)
        assert e.reduce(g) == e.reduce(g).reduce(g)

    def test_str_renders_like_taut_classes(self):
        # a coefficient of -1 is elided like +1, as in cli.pretty_class
        l1, l5 = InteriorClass.lam(5, 1), InteriorClass.lam(5, 5)
        assert str(-1 * l5) == "-lambda5"
        assert str(3 * l1 * l1 - l5 + InteriorClass.one()) == "1 + 3*lambda1^2 - lambda5"
        assert str(0 * l1) == "0"


# Atiyah-Bott localization on the compact dual LG(g, 2g), an oracle for the
# reduced abelian ring that never rewrites a square: a torus with integer
# weights t_i fixes 2^g Lagrangian subspaces, one per sign vector eps.  At
# each one the Hodge bundle has roots eps_i t_i and the tangent space the
# weights -(eps_i t_i + eps_j t_j), i <= j; a top-degree class integrates to
# the sum over the fixed points of its value over the product of those
# weights.


def elementary(xs, k: int) -> int:
    """The k-th elementary symmetric function of ``xs``."""
    e = [1] + [0] * k
    for x in xs:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    return e[k]


def localize(g: int, weights, integrand) -> Fraction:
    """Sum over the fixed points of integrand(Hodge roots, tangent weights)
    divided by the product of the tangent weights."""
    total = Fraction(0)
    for eps in itertools.product((1, -1), repeat=g):
        roots = [e * t for e, t in zip(eps, weights)]
        tangent = [-(roots[i] + roots[j]) for i in range(g) for j in range(i, g)]
        total += Fraction(integrand(roots, tangent), prod(tangent))
    return total


def partitions(n: int, most: int | None = None):
    """Partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k, *rest)


class TestLocalization:
    @pytest.mark.parametrize("g, count", [(1, 1), (2, 3), (3, 11), (4, 42)])
    def test_chern_numbers(self, g, count):
        # every Chern number c_{k_1}...c_{k_r}(T), sum k_i = N = g(g+1)/2:
        # the reduced product of the program's Chern classes is a multiple of
        # lambda_1...lambda_g, and that multiple of the integral of
        # lambda_1...lambda_g is the localized Chern number, at two weight
        # vectors (a top-degree sum does not depend on the weights)
        n = g * (g + 1) // 2
        chs = [ch_tangent_Ag(g, m, reduced=True) for m in range(1, n + 1)]
        cs = chern_from_ch(chs, n)
        top = tuple(("lambda", i) for i in range(1, g + 1))  # lambda_1...lambda_g
        ks = list(partitions(n))
        assert len(ks) == count
        for weights in (range(1, g + 1), (2, 3, 5, 7)[:g]):
            lam_top = localize(g, weights, lambda r, w: prod(elementary(r, i)
                                                             for i in range(1, g + 1)))
            assert lam_top == (-1) ** n
            assert localize(g, weights, lambda r, w: prod(w)) == 2**g  # chi(LG(g, 2g))
            for k in ks:
                c = InteriorClass.one()
                for part in k:
                    c = (c * cs[part - 1]).reduce(g)
                assert set(c.terms) <= {top}
                number = localize(g, weights, lambda r, w: prod(elementary(w, part)
                                                                for part in k))
                assert c.terms.get(top, 0) * lam_top == number, k


#: lambda classes of a rank-4 Hodge bundle, and kappa classes
POLY_RANK = 4
POLY_GENERATORS = [("lambda", i) for i in range(1, POLY_RANK + 1)]
POLY_GENERATORS += [("kappa", i) for i in (1, 2, 3)]
POLY_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def polynomials(draw):
    """Sparse polynomials: up to five monomials of up to three generators."""
    out = 0 * InteriorClass.one()
    for mon, c in draw(st.lists(
        st.tuples(st.lists(st.sampled_from(POLY_GENERATORS), max_size=3), POLY_COEFFS),
        max_size=5,
    )):
        term = c * InteriorClass.one()
        for name, i in mon:
            gen = InteriorClass.lam(POLY_RANK, i) if name == "lambda" else InteriorClass.kappa(i)
            term = term * gen
        out = out + term
    return out


class TestPolynomialLaws:
    """Laws of the lambda/kappa polynomial ring over random sparse
    polynomials."""

    @given(polynomials(), polynomials(), polynomials(), POLY_COEFFS, POLY_COEFFS)
    @settings(max_examples=80, deadline=None)
    def test_linear_laws(self, a, b, c, s, t):
        parts = [(s, a), (t, b), (1, c), (-1, a)]
        fold = 0 * InteriorClass.one()
        for scale, x in parts:
            fold = fold + scale * x
        assert InteriorClass._carry(None, _accumulate((k, x.terms) for k, x in parts)) == fold
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero() and ((-1) * a + a).is_zero()
        assert s * (a + b) == s * a + s * b
        assert (s + t) * a == s * a + t * a

    @given(polynomials(), polynomials(), polynomials(), POLY_COEFFS)
    @settings(max_examples=60, deadline=None)
    def test_product_and_reduce(self, a, b, c, s):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        red = a.reduce(POLY_RANK)
        assert (s * a + b).reduce(POLY_RANK) == s * red + b.reduce(POLY_RANK)
        assert red.reduce(POLY_RANK) == red

    @given(st.lists(polynomials(), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_newton_round_trip(self, ch):
        assert ch_from_chern(chern_from_ch(ch, 3), 3) == ch


class TestToroidal:
    """The log cotangent c_1 of the genus-4 toroidal enlargement, pulled
    back to the curve side: 5 lambda_1 - delta_irr."""

    def test_value(self):
        space = ModuliSpec(4, (), "stable")
        c = c1_log_cotangent_Abar4(space)
        irr = next(iter(tr.delta_irr(space).terms))
        assert c.terms == {next(iter(lam(space).terms)): 5, irr: F(-1, 2)}

    def test_pullback(self):
        space = ModuliSpec(4, (), "stable")
        assert c1_log_cotangent_Abar4(space) == 5 * lam(space) - tr.delta_irr(space)
        with pytest.raises(tr.UnsupportedOperation):
            c1_log_cotangent_Abar4(ModuliSpec(4, ()))

    def test_tangent_negation(self):
        space = ModuliSpec(4, (), "stable")
        c = -1 * c1_log_cotangent_Abar4(space)
        assert c == tr.delta_irr(space) - 5 * lam(space)
