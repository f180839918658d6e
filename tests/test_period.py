import cmath
import math

import numpy as np
import pytest

from torcycle import period as P
from torcycle.period import (
    BASE_CURVE_1,
    BASE_CURVE_2,
    BRANCH_CLEARANCE,
    EllipseContour,
    HyperellipticCurve,
    PathClearanceError,
    PeriodConfig,
    cauchy_kernel_coeffs,
    compute_D,
    compute_G,
    contour_integrate,
    normalized_basis,
    period_matrix,
    rho4,
    standard_contours,
    y_on_path,
)


class TestCurve:
    def test_y_squared_at_base(self):
        # (-1)(-2)(-3)(-4)(-5)(-6) = 720, upper branch positive
        y0 = BASE_CURVE_1.y_upper(0.0)
        assert abs(y0 * y0 - 720) < 1e-9
        assert y0.real > 0

    def test_second_curve(self):
        y0 = BASE_CURVE_2.y_upper(0.0)
        assert abs(y0 * y0 - 840) < 1e-9

    def test_bad_roots(self):
        with pytest.raises(ValueError):
            HyperellipticCurve((1, 1, 2, 3, 4, 5))

    def test_taylor_consistency(self):
        y0, y1, y2 = BASE_CURVE_1.y_taylor0()
        h = 1e-5
        num = (BASE_CURVE_1.y_upper(h) - BASE_CURVE_1.y_upper(-h)) / (2 * h)
        assert abs(num - y1) < 1e-5


class TestSheetTracking:
    def test_monodromy_one_root(self):
        loop = EllipseContour(0.5, 1.5, 0.2, +1, "one-root")
        ys = y_on_path(BASE_CURVE_1, loop, 128)
        # continuation around a single branch point negates Y
        assert abs(ys[0][1] + ys[-1][1]) < 0.1 * abs(ys[0][1])

    def test_monodromy_two_roots(self):
        loop = EllipseContour(0.5, 2.5, 0.4, +1, "two-root")
        ys = y_on_path(BASE_CURVE_1, loop, 128)
        assert abs(ys[0][1] - ys[-1][1]) < 0.1 * abs(ys[0][1])

    def test_clearance(self):
        with pytest.raises(PathClearanceError):
            EllipseContour(1.0 + 1e-9, 2.5, 0.3).check(BASE_CURVE_1)

    @pytest.mark.parametrize("left", [0.5, 2.5, 4.5])
    def test_clearance_flat_arc(self, left):
        # both crossings are clear, but the arcs pass 1e-4 above and below
        # the two branch points between them
        with pytest.raises(PathClearanceError):
            EllipseContour(left, left + 2, 1e-4).check(BASE_CURVE_1)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_clearance_exact(self, factor):
        # a flat arc from 0.5 to 2.5 over branch points 1 and 2, each at
        # offset 1/2 from its center (half-width 1): its nearest approach d
        # to either satisfies d^2 = s - s/4 / (1 - s) with s = height^2,
        # solved here for s at d = factor * BRANCH_CLEARANCE
        d2 = (factor * BRANCH_CLEARANCE) ** 2
        s = (0.75 + d2 - math.sqrt((0.75 + d2) ** 2 - 4 * d2)) / 2
        arc = EllipseContour(0.5, 2.5, math.sqrt(s))
        if factor < 1:
            with pytest.raises(PathClearanceError):
                arc.check(BASE_CURVE_1)
        else:
            arc.check(BASE_CURVE_1)


def ref_y_upper(curve, z):
    """Node-by-node reference: the product of cmath principal roots."""
    out = 1.0 + 0.0j
    for r in curve.roots:
        out *= cmath.sqrt(z - r)
    return -out


def ref_point(c, t):
    ang = 2 * math.pi * t
    return complex(c.center + c.halfwidth * math.cos(ang), c.height * math.sin(ang))


def ref_derivative(c, t):
    ang = 2 * math.pi * t
    return 2 * math.pi * complex(-c.halfwidth * math.sin(ang), c.height * math.cos(ang))


def ref_sheet_sign(c, curve, t):
    if t % 1.0 < 0.5:
        return c.upper_sign
    return c.upper_sign * (-1 if curve.axis_flip(c.left) else 1)


def close(a, b, rtol=1e-13):
    return abs(a - b) <= rtol * max(1.0, abs(b))


class TestArrayEvaluation:
    """The node rows of a refinement level (``_midpoint_samples``) and the
    scalar maps they are built from agree with a node-by-node cmath
    reference, and every value is a Python number."""

    # inside the cuts (f < 0), outside them, off the axis, and on the axis
    # approached from below (-0.0 imaginary part)
    REAL = [1.5, 3.5, 5.5, 0.0, 2.5, 4.5, 7.0, -1.0, 1.0 + 1e-6]
    COMPLEX = [1.5 + 0.3j, 2.5 - 0.2j, 5.9 + 1e-9j, complex(1.5, -0.0),
               complex(3.5, -0.0), complex(2.5, -0.0), complex(-1.0, -0.0)]
    TS = [0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 0.999, 1.2, -0.3]
    #: the standard contours (B1 and B2 flip on the lower arc, A1 and A2 do
    #: not) and a lower-sheet loop
    CONTOURS = (*standard_contours(BASE_CURVE_1).values(), EllipseContour(-0.3, 0.3, 0.3, -1))

    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    @pytest.mark.parametrize("points", [REAL, COMPLEX])
    def test_y_upper(self, curve, points):
        for z in points:
            y = curve.y_upper(z)
            assert type(y) is complex
            assert close(y, ref_y_upper(curve, z)), z

    def test_contour_maps(self):
        for c in self.CONTOURS:
            for t in self.TS:
                z, dz, s = c.point(t), c.derivative(t), c.sheet_sign(BASE_CURVE_1, t)
                assert type(z) is complex and type(dz) is complex
                assert type(s) is int
                assert close(z, ref_point(c, t))
                assert close(dz, ref_derivative(c, t))
                assert s == ref_sheet_sign(c, BASE_CURVE_1, t)

    @pytest.mark.parametrize("n", [16, 64])
    def test_level_rows(self, n):
        curve = BASE_CURVE_1
        for c in self.CONTOURS:
            rows = P._midpoint_samples(curve, c, n)
            assert type(rows) is tuple and len(rows) == n
            for k, (z, y, dz) in enumerate(rows):
                t = (k + 0.5) / n
                assert z == c.point(t)
                assert dz == c.derivative(t) / n
                assert y == c.sheet_sign(curve, t) * curve.y_upper(z)

    def test_y_on_path_python_pairs(self):
        ys = y_on_path(BASE_CURVE_1, standard_contours(BASE_CURVE_1)["B1"], 16)
        assert all(type(z) is complex and type(y) is complex for z, y in ys)


class TestPythonTypes:
    """Every value the module returns is a Python complex or float (an
    np.float64 would print as np.float64(...) in --machine output)."""

    def test_period_matrix(self):
        tau, err = period_matrix(BASE_CURVE_1)
        assert all(type(x) is complex for row in tau for x in row)
        assert type(err) is float

    def test_rho4(self):
        cert = rho4()
        assert type(cert.value) is complex
        assert type(cert.quadrature_error) is float
        assert all(type(v) is complex for _, v in cert.table)

    def test_segment_and_kernel(self):
        kc = cauchy_kernel_coeffs(BASE_CURVE_1)
        assert all(type(x) is complex for x in (*kc.h, *kc.k, *kc.alpha))
        assert type(kc.residual) is float
        for rule in ("contour", "segments"):
            val, err = compute_G(BASE_CURVE_1, 1, eps=None, rule=rule)
            assert type(val) is complex and type(err) is float


def legendre_segment(fn, curve, a, b, n):
    """Reference: Gauss-Legendre of order n on the root segment [r_a, r_b]
    after x = m - h cos(theta).  Y's two endpoint roots are taken as
    sqrt(x - r_a) sqrt(x - r_b) = i h sin(theta): from x - r they would
    lose digits at the end nodes (1e-12 on a cut of length 0.15)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    r = curve.roots
    m, h = (r[a] + r[b]) / 2, (r[b] - r[a]) / 2
    total = 0j
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        theta = (node + 1) * math.pi / 2
        x = m - h * math.cos(theta)
        y = -1j * h * math.sin(theta)
        for root in r[:a] + r[b + 1:]:
            y *= cmath.sqrt(x - root)
        total += fn(x, y) * h * math.sin(theta) * math.pi / 2 * weight
    return total


#: the uneven curve of the period goldens: short cut 2 and short gaps
UNEVEN_CURVE = HyperellipticCurve((0.5, 0.7, 1.9, 2.05, 3, 4.4))


class TestQuadrature:
    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2, UNEVEN_CURVE])
    def test_segment_rule_vs_legendre(self, curve):
        r = curve.roots
        segments = sorted({seg for segs in P.SEGMENT_ROOTS.values() for seg in segs})
        for a, b in segments:
            for p in (0, 1, -1, -3):
                fn = P._power_integrand(p)
                got = P.gauss_segment(fn, curve, r[a], r[b], 48)
                want = legendre_segment(fn, curve, a, b, 48)
                assert type(got) is complex
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, p)

    def test_residue_theorem(self):
        # dz/z around the unit-ish circle: 2 pi i (counterclockwise)
        circle = EllipseContour(-0.3, 0.3, 0.3, +1, "unit")
        curve = HyperellipticCurve((5, 6, 7, 8, 9, 10))  # far away
        val, err = contour_integrate(lambda z, y: 1.0 / z, curve, circle, 1e-12)
        assert abs(val - 2j * math.pi) < 1e-12
        assert err < 1e-10

    def test_exact_differential(self):
        circle = EllipseContour(-0.3, 0.3, 0.3, +1, "unit")
        curve = HyperellipticCurve((5, 6, 7, 8, 9, 10))
        val, _ = contour_integrate(lambda z, y: z, curve, circle, 1e-12)
        assert abs(val) < 1e-12

    def test_cross_rule_agreement(self):
        fn = lambda z, y: 1.0 / y
        for name in ("A1", "A2", "B1", "B2"):
            v1, _ = P._cycle_integral(BASE_CURVE_1, name, fn, 1e-10)
            v2, _ = P.segment_period(BASE_CURVE_1, name, fn)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1)), name


class TestPeriodMatrix:
    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    def test_riemann_relations(self, curve):
        tau, _ = period_matrix(curve)
        assert abs(tau[0][1] - tau[1][0]) < 1e-8
        im = np.array([[tau[i][j].imag for j in range(2)] for i in range(2)])
        eig = np.linalg.eigvalsh(im)
        assert eig[0] > 0 and eig[1] > 0

    def test_contour_deformation_independence(self):
        tau1, _ = period_matrix(BASE_CURVE_1)
        # perturb the contour heights by 20 percent
        base = standard_contours(BASE_CURVE_1)
        fat = {
            k: EllipseContour(c.left, c.right, 1.2 * c.height, c.upper_sign, k)
            for k, c in base.items()
        }
        nb = normalized_basis(BASE_CURVE_1)
        tau2 = [[0j, 0j], [0j, 0j]]
        for i, name in enumerate(("B1", "B2")):
            for j, (al, be) in enumerate(((nb.a, nb.b), (nb.c, nb.d))):
                fn = (lambda A, B: (lambda z, y: (A + B * z) / y))(al, be)
                # the cycles run clockwise, the ellipses counterclockwise
                v, _ = contour_integrate(fn, BASE_CURVE_1, fat[name], 1e-10)
                tau2[i][j] = -v
        diff = max(
            abs(tau1[i][j] - tau2[i][j]) for i in range(2) for j in range(2)
        )
        assert diff < 1e-6


class TestNormalizedBasis:
    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    def test_duality_residual(self, curve):
        nb = normalized_basis(curve)
        assert nb.residual < 1e-8

    def test_invertible(self):
        nb = normalized_basis(BASE_CURVE_1)
        assert abs(nb.det()) > 1e-6

    def test_contour_stability(self):
        nb1 = normalized_basis(BASE_CURVE_1)
        # independent route: A-periods via segment quadrature
        fn0 = lambda z, y: 1.0 / y
        fn1 = lambda z, y: z / y
        M = [[0j, 0j], [0j, 0j]]
        for i, name in enumerate(("A1", "A2")):
            M[i][0], _ = P.segment_period(BASE_CURVE_1, name, fn0)
            M[i][1], _ = P.segment_period(BASE_CURVE_1, name, fn1)
        a, b = P._solve2(M, (1.0, 0.0))
        c, d = P._solve2(M, (0.0, 1.0))
        for x, y in ((a, nb1.a), (b, nb1.b), (c, nb1.c), (d, nb1.d)):
            assert abs(x - y) < 1e-6 * max(1.0, abs(y))


class TestKernel:
    def test_normalization_residual(self):
        kc = cauchy_kernel_coeffs(BASE_CURVE_1)
        assert kc.residual < 1e-8

    def test_taylor_vs_circle(self):
        exact = cauchy_kernel_coeffs(BASE_CURVE_1, eps=None)
        circ = cauchy_kernel_coeffs(BASE_CURVE_1, eps=0.05)
        for a, b in zip(exact.alpha, circ.alpha):
            assert abs(a - b) < 1e-9
        assert abs(exact.h[2] - circ.h[2]) < 1e-8
        assert abs(exact.k[2] - circ.k[2]) < 1e-8

    @pytest.mark.parametrize("curve, eps", [
        (BASE_CURVE_1, 0.05), (BASE_CURVE_1, 0.08),
        (BASE_CURVE_2, 0.05), (BASE_CURVE_2, 0.08),
        # clustered: the first branch point just outside 2 eps
        (HyperellipticCurve((0.17, 0.5, 1.1, 2.0, 3.3, 4.1)), 0.08),
    ])
    def test_circle_default_nodes(self, curve, eps):
        # the default node count leaves only rounding: aliasing is at most
        # (eps / min |r|)^n <= 2^-n
        got = P.y_taylor_by_circle(curve, eps)
        for a, b in zip(got, curve.y_taylor0()):
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_radius_independence(self):
        c1 = cauchy_kernel_coeffs(BASE_CURVE_1, eps=0.05)
        c2 = cauchy_kernel_coeffs(BASE_CURVE_1, eps=0.1)
        assert abs(c1.h[2] - c2.h[2]) < 1e-6 * max(1.0, abs(c1.h[2]))
        assert abs(c1.k[2] - c2.k[2]) < 1e-6 * max(1.0, abs(c1.k[2]))


class TestG:
    def test_inner_residue_vs_circle(self):
        # at fixed outer points the inner integral of the kernel against
        # z1^(-3) over a small circle must match 2 pi i times the series
        # coefficient that the residue route uses
        import cmath
        import math

        curve = BASE_CURVE_1
        kc = cauchy_kernel_coeffs(curve)
        fn = P.g_integrand(kc)
        eps = 0.05
        n = 600
        contour = standard_contours(curve)["B1"]
        for t in (0.1, 0.3, 0.6, 0.85):
            z = contour.point(t)
            y = contour.sheet_sign(curve, t) * curve.y_upper(z)
            total = 0j
            for k in range(n):
                s = (k + 0.5) / n
                z1 = eps * cmath.exp(2j * math.pi * s)
                y1 = curve.y_upper(z1)
                kernel = (
                    (y1 + y) / (2 * (z - z1) * y)
                    + (kc.h[0] + kc.h[1] * z1 + kc.h[2] * z1 * z1) / y
                    + (kc.k[0] + kc.k[1] * z1 + kc.k[2] * z1 * z1) * z / y
                )
                total += kernel / z1**3 * (2j * math.pi * z1) / n
            residue_route = 2j * math.pi * (fn(z, y) + 1 / (2 * z**3))
            assert abs(total - residue_route) < 1e-8 * max(1.0, abs(total))

    def test_rule_agreement(self):
        for i in (1, 2):
            gc, _ = compute_G(BASE_CURVE_1, i, rule="contour")
            gs, _ = compute_G(BASE_CURVE_1, i, rule="segments")
            assert abs(gc - gs) < 1e-8 * max(1.0, abs(gc))

    def test_eps_independence(self):
        for i in (1, 2):
            g1, _ = compute_G(BASE_CURVE_1, i, eps=0.05)
            g2, _ = compute_G(BASE_CURVE_1, i, eps=0.1)
            assert abs(g1 - g2) < 1e-6 * max(1.0, abs(g1))


class TestD:
    def test_values_finite_nonzero(self):
        (d1, d2), nb = compute_D(BASE_CURVE_2)
        assert abs(d1) > 1e-6 and abs(d2) > 1e-6

    def test_zero_locus_formula(self):
        (d1, _), nb = compute_D(BASE_CURVE_2)
        y0, y1, _ = BASE_CURVE_2.y_taylor0()
        assert abs(d1 * y0 - (nb.a * y1 - nb.b)) < 1e-9

    def test_sheet_covariance(self):
        # normalizing the basis against the opposite branch negates
        # (a, b, c, d) and hence both constants
        (d1, d2), _ = compute_D(BASE_CURVE_2, sheet=+1)
        (f1, f2), _ = compute_D(BASE_CURVE_2, sheet=-1)
        assert abs(f1 + d1) < 1e-9
        assert abs(f2 + d2) < 1e-9


class TestRho4:
    def test_certificate(self):
        cert = rho4()
        assert cert.passed
        assert abs(cert.value) > 10 * cert.quadrature_error

    def test_resolution_ladder(self):
        c1 = rho4(PeriodConfig(tol=1e-8))
        c2 = rho4(PeriodConfig(tol=1e-11))
        assert abs(c1.value - c2.value) < 1e-6 * abs(c2.value)

    def test_eps_independence(self):
        c1 = rho4(PeriodConfig(eps=0.05))
        c2 = rho4(PeriodConfig(eps=0.1))
        assert abs(c1.value - c2.value) < 1e-6 * abs(c1.value)

    def test_table_complete(self):
        cert = rho4()
        keys = {k for k, _ in cert.table}
        assert {"a", "b", "c", "d", "h2", "k2", "G1", "G2", "D1", "D2"} <= keys

    def test_deterministic(self):
        c1 = rho4()
        # the second run recomputes every contour, A-period, kernel and G_i
        P.standard_contours.cache_clear()
        P._a_periods.cache_clear()
        P.cauchy_kernel_coeffs.cache_clear()
        P._G.cache_clear()
        P._midpoint_samples.cache_clear()
        c2 = rho4()
        assert c1.value == c2.value and c1.quadrature_error == c2.quadrature_error


class TestMemo:
    """Each curve's contours, A-periods, kernel coefficients and G_i are
    computed once, shared as immutable values."""

    def test_counts(self, monkeypatch):
        # a curve pair no other test uses, so the counts start cold
        curve = HyperellipticCurve((1.0, 2.1, 3.05, 4.2, 5.1, 6.3))
        curve2 = HyperellipticCurve((1.0, 2.1, 3.05, 4.2, 5.1, 7.2))
        counts = {"integrals": 0, "checks": 0}
        integrate, check = P.contour_integrate, EllipseContour.check

        def counted_integrate(*args, **kwargs):
            counts["integrals"] += 1
            return integrate(*args, **kwargs)

        def counted_check(contour, c):
            counts["checks"] += 1
            return check(contour, c)

        monkeypatch.setattr(P, "contour_integrate", counted_integrate)
        monkeypatch.setattr(EllipseContour, "check", counted_check)
        period_matrix(curve)
        rho4(PeriodConfig(curve1=curve, curve2=curve2))
        for i in (1, 2):
            for rule in ("contour", "segments"):
                compute_G(curve, i, rule=rule)
        # 10 + 4 A-periods, 4 B-periods of tau, and G_1 and G_2 once each,
        # shared by rho4 and compute_G (70 integrals and 72 checks when
        # nothing was shared)
        assert counts["integrals"] == 20
        assert counts["checks"] == 8

    def test_immutable(self):
        contours = standard_contours(BASE_CURVE_1)
        with pytest.raises(TypeError):
            contours["A1"] = contours["B1"]
        for powers in ((0, 1), (-1, -2, -3)):
            M = P._a_periods(BASE_CURVE_1, 1e-10, powers)
            assert type(M) is tuple and all(type(row) is tuple for row in M)
            assert all(len(row) == len(powers) for row in M)

    def test_clearance_failure_not_cached(self):
        # the cut-1/cut-2 gap is 1.5e-3, so the A-contour crossing in it
        # lies within clearance of both branch points
        curve = HyperellipticCurve((1, 2, 2.0015, 3, 4, 5))
        for _ in range(2):
            with pytest.raises(PathClearanceError):
                standard_contours(curve)
        with pytest.raises(PathClearanceError):
            period_matrix(curve)

    def test_levels_built_once(self, monkeypatch):
        # two curves whose B-levels outnumber a 16-level cache, so a smaller
        # cache rebuilds their A-levels for the inverse-power A-periods
        curves = [(0.92, 1.77, 1.86, 1.91, 4.68, 4.81), (0.82, 0.9, 2.47, 4.44, 7.06, 7.12)]
        for memo in (P.standard_contours, P._a_periods, P.cauchy_kernel_coeffs, P._G,
                     P._midpoint_samples):
            memo.cache_clear()
        levels = set()
        samples = P._midpoint_samples

        def recorded(curve, contour, n):
            levels.add((curve, contour, n))
            return samples(curve, contour, n)

        monkeypatch.setattr(P, "_midpoint_samples", recorded)
        for roots in curves:
            curve = HyperellipticCurve(roots)
            period_matrix(curve, 1e-11)
            rho4(PeriodConfig(tol=1e-11, curve1=curve,
                              curve2=HyperellipticCurve(roots[:5] + (roots[5] + 1,))))
            for i in (1, 2):
                compute_G(curve, i, tol=1e-11, rule="segments")
        assert samples.cache_info().misses == len(levels) > 32

    def test_invalid_G_arguments(self):
        # validated before the memo: each call raises, and nothing is stored
        before = P._G.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="cycle index"):
                compute_G(BASE_CURVE_1, 3)
            with pytest.raises(ValueError, match="unknown rule"):
                compute_G(BASE_CURVE_1, 1, rule="simpson")
        assert P._G.cache_info().currsize == before
