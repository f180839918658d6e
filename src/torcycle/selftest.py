"""The acceptance suite: one callable per criterion, each returning a
result record with a pass flag, wall time, and a short detail string.
``run_all`` prints one line per criterion; the test suite asserts the same
records, so the command-line gate and pytest exercise identical code."""

import random
import time
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import chern, ctp, excess, period, pipeline
from .algebra import bernoulli_polynomial, ch_from_chern, chern_from_ch
from .tautring import (
    ModuliSpec,
    _apply_perm,
    canonicalize,
    delta_irr,
    delta_total,
    kappa,
    lam,
    make_gen,
    multiply,
    psi,
    psi_total,
    pullback_forgetful,
    pushforward_forgetful,
)

F = Fraction


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str
    budget: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.number}: {self.name} "
            f"({self.seconds:.2f}s / {self.budget:.0f}s) {self.detail}"
        )


def _run(number, name, budget, fn) -> CriterionResult:
    t0 = time.time()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    dt = time.time() - t0
    if passed and dt > budget:
        passed = False
        detail = f"runtime {dt:.2f}s exceeded budget {budget}s"
    return CriterionResult(number, name, passed, dt, detail, budget)


# --------------------------------------------------------------------------


def criterion_1_genus4() -> CriterionResult:
    def body():
        final, ledger = pipeline.t_pullback_g4()
        M4 = pipeline.M4
        assert final == 16 * lam(M4), f"final {final}"
        by = {e.source: e for e in ledger.entries}
        from .tautring import delta_sep

        assert by["Delta+"].value == 8 * lam(M4) - 2 * delta_total(M4)
        assert by["Delta-"].value == by["Delta+"].value
        assert by["A+"].value == 4 * delta_sep(M4, 1)
        assert by["A-"].value == 4 * delta_sep(M4, 1)
        assert by["B"].value == 8 * delta_sep(M4, 2)
        mults = [by[z].multiplicity for z in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6")]
        assert mults == [-2, -2, -3, -3, 1, 1], f"multiplicities {mults}"
        return "t*T4 = 16 lambda1 with ledger (-2,-2,-3,-3,+1,+1)"

    return _run(1, "genus-4 pullback of the Torelli cycle", 1.0, body)


def criterion_2_genus5() -> CriterionResult:
    def body():
        final, rep = pipeline.t_pullback_g5()
        k = chern.InteriorClass.kappa
        l1, l2, l3 = (chern.InteriorClass.lam(5, i) for i in (1, 2, 3))
        assert final == F(48, 5) * k(3), f"final {final}"
        assert rep.ch_moduli[0] == -13 * l1
        assert rep.ch_moduli[1] == F(1, 2) * k(2)
        assert rep.ch_moduli[2] == F(-119, 720) * k(3)
        assert rep.ch_abelian[0] == -6 * l1
        assert rep.ch_abelian_display[1] == l2
        assert rep.ch_abelian[2] == -2 * l1 * l1 * l1 + F(11, 2) * l1 * l2 - F(9, 2) * l3
        assert rep.two_c3 == F(454, 15) * k(3)
        return "t*T5 interior = 48/5 kappa3; 2c3(N) = 454/15 kappa3"

    return _run(2, "genus-5 interior pullback", 1.0, body)


def criterion_3_excess() -> CriterionResult:
    def body():
        assert excess.multiplicity(excess.ExcessDims(1, 1)) == -2
        assert excess.multiplicity(excess.ExcessDims(2, 1)) == -3
        assert excess.multiplicity(excess.ExcessDims(3, 3)) == -20
        for model in excess.BUILTIN_MODELS.values():
            assert excess.oracle_multiplicity(model) == excess.multiplicity(
                model.dims
            ), model.name
        for a, b in product(range(1, 9), repeat=2):
            assert excess.multiplicity(excess.ExcessDims(a, b)) == excess.multiplicity(
                excess.ExcessDims(b, a)
            )
        for d in range(1, 13):
            for k in range(d):
                assert excess.binomial_identity_check(d, k), (d, k)
        assert excess.verify_residual_model() == (8, 7, Fraction(1))
        return "m(1,1)=-2 m(2,1)=-3 m(3,3)=-20; oracle, symmetry, residual (8,7,1)"

    return _run(3, "excess multiplicity suite", 1.0, body)


def criterion_4_chern() -> CriterionResult:
    def body():
        for g, n in ((1, 1), (2, 0), (2, 1), (3, 1), (3, 2), (4, 0), (5, 0)):
            space = ModuliSpec(g, tuple(f"m{i}" for i in range(n)))
            got = chern.c1_tangent(space)
            want = 2 * delta_total(space) - 13 * lam(space) - psi_total(space)
            assert got == want, f"c1 at ({g},{n})"
        M4 = pipeline.M4
        c2 = chern.chern_tangent_moduli(M4, 2)[1]
        from . import tautring as tr

        coeff = c2.coefficient(tr._trivial_gen(M4, kappa_mon=[(2, 1)]))
        assert coeff == F(-1, 2), f"kappa2 coefficient {coeff}"
        assert coeff != F(-1, 3)
        d = 13 * lam(M4) - 2 * delta_total(M4)
        from .tautring import TautClass, boundary_gen

        expect = (
            F(-1, 2) * kappa(M4, 2)
            + F(1, 2) * multiply(d, d)
            + F(1, 2) * TautClass(M4, {boundary_gen(M4, 1, (), exps=(1, 0)): 1})
            + F(1, 2) * TautClass(M4, {boundary_gen(M4, 1, (), exps=(0, 1)): 1})
            + F(1, 2) * TautClass(M4, {boundary_gen(M4, 2, (), exps=(1, 0)): 1})
        )
        assert c2 == expect, "closed form of c2"
        M4S = pipeline.M4_STABLE
        tor = chern.c1_log_cotangent_Abar4(M4S)
        assert tor == 5 * lam(M4S) - delta_irr(M4S), f"toroidal {tor}"
        return "c1 grid, c2 closed form (kappa2 coefficient -1/2), toroidal 5 lambda1 - D"

    return _run(4, "Chern class suite", 5.0, body)


def criterion_5_ctp() -> CriterionResult:
    def body():
        comps = ctp.enumerate_components(4, max_edges=1)
        assert len(comps) == 5, f"{len(comps)} genus-4 components"
        dims = sorted(ctp.component_dimension(c) for c in comps)
        assert dims == [9, 9, 9, 9, 10], dims
        assert len(ctp.enumerate_components(5, max_edges=0)) == 2
        assert len(ctp.enumerate_components(2)) == 1
        table = {z.name: z for z in ctp.one_edge_intersections(4)}
        for name in ("Z1", "Z2", "Z3", "Z4"):
            assert table[name].dimension == 8 and table[name].divisorial
        assert not table["Delta+Delta-"].divisorial

        rng = random.Random(424242)
        checked = 0
        for _ in range(10_000):
            p = _random_pairing(rng)
            assert bool(ctp.check_pairing(p)) == _oracle_pairing(p)
            checked += 1
        valid = []
        while len(valid) < 40:
            p = _random_pairing(rng, max_side=5)
            if ctp.check_pairing(p):
                valid.append(p)
        for p in valid:
            assert ctp.pairing_equivalent(p, p)
        for p in valid[:20]:
            for q in valid[:20]:
                assert ctp.pairing_equivalent(p, q) == ctp.pairing_equivalent(q, p)
        return f"5 components, dims ok, Z1..Z4 dim 8, {checked} pairings vs oracle"

    return _run(5, "fiber-product combinatorics suite", 10.0, body)


def _random_pairing(rng, max_side=10):
    left = rng.randint(1, max_side)
    right = rng.randint(1, max_side)
    blue, red = [], []
    for acc in (blue, red):
        ls = list(range(left))
        rs = list(range(right))
        rng.shuffle(ls)
        rng.shuffle(rs)
        k = rng.randint(0, min(left, right))
        acc.extend(zip(ls[:k], rs[:k]))
    return ctp.HalfEdgePairing(rng.randint(2, 5), left, right, tuple(blue), tuple(red))


def _oracle_pairing(p) -> bool:
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in p.nodes():
        parent[v] = v
    for (u, v, _) in p.colored_edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    verts: dict = {}
    edges: dict = {}
    for v in p.nodes():
        verts.setdefault(find(v), set()).add(v)
    for (u, v, c) in p.colored_edges():
        edges.setdefault(find(u), []).append(c)
    two = 0
    for root, vs in verts.items():
        ne, nv = len(edges.get(root, [])), len(vs)
        if ne == nv:
            if ne == 2:
                two += 1
            elif ne != 4:
                return False
        elif ne == nv - 1:
            if ne > 3:
                return False
        else:
            return False
    return two <= 2 * p.genus + 2


def criterion_6_period() -> CriterionResult:
    def body():
        for curve in (period.BASE_CURVE_1, period.BASE_CURVE_2):
            tau, _ = period.period_matrix(curve)
            assert abs(tau[0][1] - tau[1][0]) < 1e-8, "tau symmetry"
            a, b, d = tau[0][0].imag, tau[0][1].imag, tau[1][1].imag
            assert a > 0 and a * d - b * b > 0, "Im tau positive definite"
            nb = period.normalized_basis(curve)
            assert nb.residual < 1e-8, "duality residual"
        for i in (1, 2):
            g1, _ = period.compute_G(period.BASE_CURVE_1, i, eps=0.05)
            g2, _ = period.compute_G(period.BASE_CURVE_1, i, eps=0.1)
            assert abs(g1 - g2) <= 1e-6 * max(1.0, abs(g1)), f"G{i} eps drift"
        lo = period.rho4(period.PeriodConfig(tol=1e-8))
        hi = period.rho4(period.PeriodConfig(tol=1e-11))
        assert abs(lo.value - hi.value) <= 1e-6 * abs(hi.value), "resolution ladder"
        assert hi.passed and abs(hi.value) > 10 * hi.quadrature_error
        return f"rho4 = {hi.value.real:+.6e}{hi.value.imag:+.1e}i, margin ok"

    return _run(6, "period and nonvanishing certificate suite", 30.0, body)


def criterion_7_cross_module() -> CriterionResult:
    def body():
        rng = random.Random(20260808)
        for _ in range(1000):
            nv = rng.randint(1, 6)
            genera = [rng.randint(1, 6) for _ in range(nv)]
            edges = [(rng.randrange(w), w) for w in range(1, nv)]
            kap = (
                {rng.randrange(nv): [(rng.randint(1, 3), 1)]}
                if rng.random() < 0.5
                else {}
            )
            g = make_gen(genera, edges, [], kap)
            perm = list(range(nv))
            rng.shuffle(perm)
            h = _apply_perm(g, perm)
            cg, ag = canonicalize(g)
            ch_, ah = canonicalize(h)
            assert cg == ch_ and ag == ah, "canonical form not relabeling-invariant"
            assert canonicalize(cg)[0] == cg, "canonicalization not idempotent"

        space = ModuliSpec(4, ("p",))
        up = space.with_extra_marking("x")
        scale = F(2 * 4 - 2 + 1)
        for alpha in (lam(space), kappa(space, 2), delta_total(space)):
            pulled = pullback_forgetful(alpha, "x")
            down = pushforward_forgetful(multiply(psi(up, "x"), pulled), "x")
            assert down == scale * alpha, "table round trip"

        for _ in range(200):
            k = rng.randint(2, 8)
            x = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(k)]
            assert ch_from_chern(chern_from_ch(x, k), k) == x, "Newton round trip"
        for m in range(2, 21):
            assert bernoulli_polynomial(m, 1) == bernoulli_polynomial(m, 0), (
                f"Bernoulli identity at {m}"
            )
        return "canonicalization (1000 graphs), table round trip, algebra laws"

    return _run(7, "cross-module property suite", 30.0, body)


CRITERIA = (
    criterion_1_genus4,
    criterion_2_genus5,
    criterion_3_excess,
    criterion_4_chern,
    criterion_5_ctp,
    criterion_6_period,
    criterion_7_cross_module,
)


def run_all() -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        print(res.line())
        results.append(res)
    return results
