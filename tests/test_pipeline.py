import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from torcycle import chern, pipeline
from torcycle import tautring as tr
from torcycle.pipeline import (
    M4,
    M4_STABLE,
    InteriorClass,
    interior_socle_ratios,
    kappa_socle_integral,
    psi_socle_integral,
    reduce_interior_degree3_genus5,
    rename_marking,
    t_pullback_g4,
    t_pullback_g5,
    t_pushforward_Abar4,
    taut_to_interior,
    torelli_dimension,
)
from torcycle.tautring import (
    ModuliSpec,
    delta_irr,
    delta_sep,
    delta_total,
    kappa,
    lam,
    one,
    psi,
)

F = Fraction

# the (2,2) push-pull: p1 glues p to q after forgetting x, y; p2 glues x
# to y after forgetting p, q
B_F1 = ModuliSpec(2, ("p", "x"))
B_F2 = ModuliSpec(2, ("q", "y"))
B_GRAPH = tr.boundary_gen(M4, 2, ())
B_P1 = (B_GRAPH, ("p", "q"), {0: "x", 1: "y"})
B_P2 = (B_GRAPH, ("x", "y"), {0: "p", 1: "q"})


def full_b_pieces() -> dict:
    """The (2,2) pieces with every bidegree formed: c_2 of each factor, the
    full squares of p2^*c_1 and all of p2^*ch_2.  The (2,0) and (0,2) parts
    die in the push."""
    c1_f1, c2_f1 = chern.chern_tangent_moduli(B_F1, 2)
    c1_f2, c2_f2 = (
        rename_marking(rename_marking(c, "p", "q"), "x", "y") for c in (c1_f1, c2_f1)
    )
    c2_tx = (
        tr.ProductClass.from_factors([c1_f1, c1_f2])
        + tr.ProductClass.from_factors([c2_f1, one(B_F2)])
        + tr.ProductClass.from_factors([one(B_F1), c2_f2])
    )
    c1_tx = tr.ProductClass.from_factors([c1_f1, one(B_F2)]) + tr.ProductClass.from_factors(
        [one(B_F1), c1_f2]
    )
    p2c1 = pipeline._pull(chern.c1_tangent(M4), *B_P2)
    p2ch2 = pipeline._pull(chern.ch_tangent(M4, 2), *B_P2)
    return {
        "product_tangent": pipeline._push(c2_tx, *B_P1),
        "ambient_c2": -1 * pipeline._push(F(1, 2) * (p2c1 * p2c1) - p2ch2, *B_P1),
        "cross": pipeline._push(p2c1 * (p2c1 - c1_tx), *B_P1),
    }


def full_a_contribution():
    """The (1,3) push-pull with c_1(M_{1,p}) (x) 1 formed as well."""
    graph = tr.boundary_gen(M4, 1, ())
    f1, f2 = ModuliSpec(1, ("p",)), ModuliSpec(3, ("q", "y"))
    p1 = (graph, ("p", "q"), {1: "y"})
    p2 = (graph, ("p", "y"), {1: "q"})
    c1_m4 = chern.c1_tangent(M4)
    n_class = (
        pipeline._pull(F(-5) * lam(M4), *p1)
        - pipeline._pull(c1_m4, *p1)
        - pipeline._pull(c1_m4, *p2)
        + tr.ProductClass.from_factors([chern.c1_tangent(f1), one(f2)])
        + tr.ProductClass.from_factors([one(f1), chern.c1_tangent(f2)])
    )
    return pipeline._push(n_class, *p1)


class TestSocle:
    def test_psi_formula_small_case(self):
        # genus 1, one marking: the top lambda integral 1/24
        assert psi_socle_integral(1, (0,)) == F(1, 24)

    def test_psi_formula_genus2(self):
        # pushforward oracle: psi integrates to kappa_0 = 2g-2 times the
        # subtop pairing; on the genus-2 space the Hodge relation
        # lambda_2 = lambda_1^2 / 2 turns that into the known top
        # lambda_1^3 integral 1/2880
        v1 = psi_socle_integral(2, (1,))
        top_lambda1_cubed = F(1, 2880)
        assert v1 == (2 * 2 - 2) * F(1, 2) * top_lambda1_cubed

    def test_kappa_translation_two_markings(self):
        # K(a,b) = I(a+1,b+1) - K(a+b) by the exact pushforward identity
        g = 5
        lhs = kappa_socle_integral(g, (1, 2))
        rhs = psi_socle_integral(g, (2, 3)) - kappa_socle_integral(g, (3,))
        assert lhs == rhs

    def test_ratios_genus5(self):
        ratios = interior_socle_ratios(5)
        assert ratios[(3,)] == 1
        assert ratios[(2, 1)] == 20
        assert ratios[(1, 1, 1)] == 288

    def test_reduction_monomials(self):
        # lambda_1^3 = kappa_3/6 on the genus-5 interior
        l1 = InteriorClass.lam(5, 1)
        c = l1 * l1 * l1
        assert reduce_interior_degree3_genus5(c) == F(1, 6) * InteriorClass.kappa(3)
        # lambda_3 = kappa_3/40
        c = InteriorClass.lam(5, 3)
        assert reduce_interior_degree3_genus5(c) == F(1, 40) * InteriorClass.kappa(3)


class TestGenus4:
    def test_final_class(self):
        final, ledger = t_pullback_g4()
        assert final == 16 * lam(M4)

    def test_ledger_entries(self):
        _, ledger = t_pullback_g4()
        by_source = {e.source: e for e in ledger.entries}
        assert by_source["Delta+"].value == 8 * lam(M4) - 2 * delta_total(M4)
        assert by_source["A+"].value == 4 * delta_sep(M4, 1)
        assert by_source["B"].value == 8 * delta_sep(M4, 2)
        mults = [e.multiplicity for e in ledger.entries]
        assert mults == [1, 1, 1, 1, 1, -2, -2, -3, -3, 1, 1]

    def test_delta_terms_cancel(self):
        final, ledger = t_pullback_g4()
        boundary = final - final.interior()
        assert boundary.is_zero()

    def test_computed_once(self):
        # abar4 reuses the genus-4 result instead of rerunning it
        t_pullback_g4.cache_clear()
        t_pullback_g4()
        t_pushforward_Abar4()
        assert t_pullback_g4.cache_info().misses == 1

    def test_runtime(self):
        t_pullback_g4.cache_clear()
        t0 = time.time()
        t_pullback_g4()
        assert time.time() - t0 < 1.0


class TestFullExpansion:
    """Forming only the terms the push keeps changes no term of the result."""

    def test_b_pieces_match_full_expansion(self):
        total, pieces = pipeline._b_component_contribution()
        full = full_b_pieces()
        assert pieces.keys() == full.keys()
        for key, value in full.items():
            assert pieces[key] == value, key
        assert total == F(1, 2) * (full["product_tangent"] + full["ambient_c2"] + full["cross"])

    def test_a_contribution_matches_full_expansion(self):
        assert pipeline._a_component_contribution() == full_a_contribution()


def _factor_divisors(space):
    return (
        [lam(space), kappa(space, 1)]
        + [psi(space, m) for m in space.markings]
        + [tr.TautClass(space, {g: F(1)}) for g, _ in tr.one_edge_graphs(space)]
    )


@st.composite
def factor_classes(draw, space, degree):
    """A class of the given degree on one factor: a combination of products
    of ``degree`` of lambda_1, kappa_1, psi and one-edge classes."""
    divisors = _factor_divisors(space)
    out = tr.zero(space)
    for _ in range(draw(st.integers(1, 2))):
        term = one(space)
        for d in draw(st.lists(st.sampled_from(divisors), min_size=degree, max_size=degree)):
            term = tr.multiply(d, term)
        out = out + draw(st.integers(-3, 3).filter(bool)) * term
    return out


BIDEGREES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def b_product_classes(draw):
    """A degree <= 2 class on F1 x F2: a sum of factor products of
    bidegrees (a, b) with a + b <= 2, one of them (1,1)."""
    out = tr.ProductClass([B_F1, B_F2])
    for a, b in [(1, 1)] + draw(st.lists(st.sampled_from(BIDEGREES), max_size=3)):
        factors = [draw(factor_classes(B_F1, a)), draw(factor_classes(B_F2, b))]
        out = out + tr.ProductClass.from_factors(factors)
    return out


class TestBidegreeFilter:
    @given(b_product_classes())
    @settings(max_examples=40, deadline=None)
    def test_push_keeps_only_bidegree_11(self, x):
        x11 = tr.ProductClass._carry(x.spaces, {
            gens: c for gens, c in x.terms.items() if [g.degree() for g in gens] == [1, 1]
        })
        assert pipeline._kept(x, B_P1[2]) == x11
        assert pipeline._push(x, *B_P1) == pipeline._push(x11, *B_P1)

    def test_work_stays_off_the_projection_formula(self, monkeypatch):
        # every factor product of the (2,2) expansion has a degree-0 side,
        # so no ProductClass product reaches the projection formula
        depth = 0
        reached = []
        times = tr.ProductClass._times

        def counted_times(self, other):
            nonlocal depth
            depth += 1
            try:
                return times(self, other)
            finally:
                depth -= 1

        def watched(name, fn):
            def wrapper(*args):
                if depth:
                    reached.append(name)
                return fn(*args)
            return wrapper

        chern.chern_tangent_moduli.cache_clear()
        tr._project.cache_clear()
        monkeypatch.setattr(tr.ProductClass, "_times", counted_times)
        monkeypatch.setattr(tr, "_project", watched("_project", tr._project))
        monkeypatch.setattr(tr, "multiply", watched("multiply", tr.multiply))
        total, _ = pipeline._b_component_contribution()
        assert total == 8 * delta_sep(M4, 2)
        assert reached == []


class TestMemo:
    """The genus-4 push-pull computes each factor product, factor image and
    Chern class once."""

    def test_factor_products_once_per_times_call(self, monkeypatch):
        # one frame per ProductClass._times call, nested calls included;
        # a frame records only the products its own call asks for, not the
        # ones multiply makes in turn
        frames = []
        seen_total = 0
        times = tr.ProductClass._times

        def counted_times(self, other):
            nonlocal seen_total
            frames.append({"seen": set(), "depth": 0})
            try:
                return times(self, other)
            finally:
                seen_total += len(frames.pop()["seen"])

        def counted(mul):
            def wrapper(a, b):
                # products outside any _times call are not recorded
                top = frames[-1] if frames else {"seen": set(), "depth": 1}
                if top["depth"] == 0:
                    (ga,), (gb,) = a.terms, b.terms
                    assert (a.space, ga, gb) not in top["seen"]
                    top["seen"].add((a.space, ga, gb))
                top["depth"] += 1
                try:
                    return mul(a, b)
                finally:
                    top["depth"] -= 1
            return wrapper

        monkeypatch.setattr(tr.ProductClass, "_times", counted_times)
        monkeypatch.setattr(tr, "multiply", counted(tr.multiply))
        monkeypatch.setattr(tr, "_mul_poly", counted(tr._mul_poly))
        # the full expansion, where both squares multiply (a (x) 1)(a' (x) 1)
        full = full_b_pieces()
        assert full["product_tangent"] + full["ambient_c2"] + full["cross"] == 16 * delta_sep(M4, 2)
        assert seen_total > 100

    def test_map_factor_once_per_generator(self, monkeypatch):
        map_factor = tr.ProductClass.map_factor
        calls = []

        def counted_map_factor(self, i, fn):
            images = []

            def counted_fn(c):
                images.extend(c.terms)
                return fn(c)

            out = map_factor(self, i, counted_fn)
            assert sorted(images) == sorted({gens[i] for gens in self.terms})
            calls.append(len(images))
            return out

        monkeypatch.setattr(tr.ProductClass, "map_factor", counted_map_factor)
        t_pullback_g4.cache_clear()
        final, _ = t_pullback_g4()
        assert final == 16 * lam(M4)
        assert sum(calls) > 50

    def test_two_pointed_genus2_chern_once(self, monkeypatch):
        # the push keeps no degree-2 class of one factor alone, so no
        # two-pointed genus-2 space needs its degree-2 character
        degree2 = []
        ch_tangent = chern.ch_tangent

        def counted_ch_tangent(space, m):
            if m == 2 and space.genus == 2 and len(space.markings) == 2:
                degree2.append(space)
            return ch_tangent(space, m)

        monkeypatch.setattr(chern, "ch_tangent", counted_ch_tangent)
        t_pullback_g4.cache_clear()
        chern.chern_tangent_moduli.cache_clear()
        final, _ = t_pullback_g4()
        assert final == 16 * lam(M4)
        assert degree2 == []


class TestGenus5:
    def test_final_class(self):
        final, rep = t_pullback_g5()
        assert final == F(48, 5) * InteriorClass.kappa(3)

    def test_intermediates(self):
        _, rep = t_pullback_g5()
        k = InteriorClass.kappa
        l1, l2, l3 = (InteriorClass.lam(5, i) for i in (1, 2, 3))
        assert rep.ch_moduli[0] == -13 * l1
        assert rep.ch_moduli[1] == F(1, 2) * k(2)
        assert rep.ch_moduli[2] == F(-119, 720) * k(3)
        assert rep.ch_abelian[0] == -6 * l1
        assert rep.ch_abelian_display[1] == l2
        assert rep.ch_abelian[2] == -2 * l1 * l1 * l1 + F(11, 2) * l1 * l2 - F(9, 2) * l3
        assert rep.two_c3 == F(454, 15) * k(3)
        assert rep.multiplicity == -20

    def test_exact_closing_arithmetic(self):
        assert F(454, 15) - 20 * F(31, 30) == F(48, 5)

    def test_runtime(self):
        t0 = time.time()
        t_pullback_g5()
        assert time.time() - t0 < 1.0


class TestAbar4:
    def test_curve_side(self):
        curve_side, rep = t_pushforward_Abar4()
        assert curve_side == 16 * lam(M4_STABLE) - 2 * delta_irr(M4_STABLE)

    def test_delta_irr_coefficient(self):
        _, rep = t_pushforward_Abar4()
        assert rep.delta_irr_coeff_in_c1 == 2

    def test_pic_conclusion(self):
        _, rep = t_pushforward_Abar4()
        assert rep.pic_conclusion == "16*lambda1 - 2*D"


class TestDimensions:
    def test_values(self):
        assert torelli_dimension(4)[0] == 8
        assert torelli_dimension(5)[0] == 9
        assert torelli_dimension(10)[0] == -1

    def test_verdicts(self):
        assert "vanishes" in torelli_dimension(10)[1]
        assert "vanishes" in torelli_dimension(12)[1]
        assert "vanishes" not in torelli_dimension(4)[1]


class TestRename:
    def test_roundtrip(self):
        space = ModuliSpec(3, ("p", "q"))
        c = psi(space, "p") + 2 * kappa(space, 2)
        r = rename_marking(rename_marking(c, "p", "z"), "z", "p")
        assert r == c


class TestInteriorConversion:
    def test_kappa1_is_12_lambda1(self):
        space = ModuliSpec(5, ())
        assert taut_to_interior(kappa(space, 1)) == 12 * InteriorClass.lam(5, 1)
