import time
from fractions import Fraction

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
    psi,
)

F = Fraction


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
        total, _ = pipeline._b_component_contribution()
        assert total == 8 * delta_sep(M4, 2)
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
            assert sorted(map(tr._gen_sort_key, images)) == sorted(
                map(tr._gen_sort_key, {gens[i] for gens in self.terms})
            )
            calls.append(len(images))
            return out

        monkeypatch.setattr(tr.ProductClass, "map_factor", counted_map_factor)
        pipeline._b_component_contribution()
        assert sum(calls) > 50

    def test_two_pointed_genus2_chern_once(self, monkeypatch):
        # the (q, y) factor's Chern classes are the (p, x) ones renamed
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
        assert degree2 == [ModuliSpec(2, ("p", "x"))]


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
