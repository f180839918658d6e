import cmath
import io
import itertools
import math
import pathlib
import runpy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def y_on_path(curve, contour, samples):
    """Branch-consistent samples (z, Y) along the contour."""
    return [(z, y) for z, y, _ in P._level_rows(curve, contour, samples, False)]


class TestSheetTracking:
    def test_monodromy_one_root(self):
        loop = EllipseContour(0.5, 1.5, 0.2, "one-root")
        ys = y_on_path(BASE_CURVE_1, loop, 128)
        # continuation around a single branch point negates Y
        assert abs(ys[0][1] + ys[-1][1]) < 0.1 * abs(ys[0][1])

    def test_monodromy_two_roots(self):
        loop = EllipseContour(0.5, 2.5, 0.4, "two-root")
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
    """Sign s(t) with Y(t) = s(t) * Y_up(z(t)): +1 on the upper arc, on the
    lower arc flipped when Yref jumps at the crossings."""
    if t % 1.0 < 0.5:
        return 1
    return -1 if curve.axis_flip(c.left) else 1


def close(a, b, rtol=1e-13):
    return abs(a - b) <= rtol * max(1.0, abs(b))


class TestArrayEvaluation:
    """The node rows of a refinement level (``_level_rows``) agree with a
    node-by-node cmath reference, and every value is a Python number."""

    # inside the cuts (f < 0), outside them, off the axis, and on the axis
    # approached from below (-0.0 imaginary part)
    REAL = [1.5, 3.5, 5.5, 0.0, 2.5, 4.5, 7.0, -1.0, 1.0 + 1e-6]
    COMPLEX = [1.5 + 0.3j, 2.5 - 0.2j, 5.9 + 1e-9j, complex(1.5, -0.0),
               complex(3.5, -0.0), complex(2.5, -0.0), complex(-1.0, -0.0)]
    #: the standard contours: B1 and B2 flip on the lower arc, A1 and A2 do not
    CONTOURS = tuple(standard_contours(BASE_CURVE_1).values())

    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    @pytest.mark.parametrize("points", [REAL, COMPLEX])
    def test_y_upper(self, curve, points):
        for z in points:
            y = curve.y_upper(z)
            assert type(y) is complex
            assert close(y, ref_y_upper(curve, z)), z

    @pytest.mark.parametrize("n", [16, 64])
    def test_level_rows(self, n):
        # level n in full, then the odd nodes that level 2n adds
        curve = BASE_CURVE_1
        for c in self.CONTOURS:
            for level, odd, ks in ((n, False, range(n)), (2 * n, True, range(1, 2 * n, 2))):
                rows = P._level_rows(curve, c, level, odd)
                assert type(rows) is tuple and len(rows) == len(ks)
                for k, (z, y, dz) in zip(ks, rows):
                    t = P.NODE_OFFSET + k / level
                    assert type(z) is complex and type(y) is complex
                    assert z == ref_point(c, t)
                    assert dz == ref_derivative(c, t) / level
                    assert y == ref_sheet_sign(c, curve, t) * curve.y_upper(z)

    @pytest.mark.parametrize("n", [16, 64])
    def test_segment_rows(self, n):
        # theta = k pi/n with both ends, Y over h sin(theta), weight pi/n
        # halved at the ends; inside the segment Y matches y_upper
        curve, r = BASE_CURVE_1, BASE_CURVE_1.roots
        for a, b in sorted({seg for segs in P.SEGMENT_ROOTS.values() for seg in segs}):
            m, h = (r[a] + r[b]) / 2, (r[b] - r[a]) / 2
            for level, odd, ks in ((n, False, range(n + 1)), (2 * n, True, range(1, 2 * n, 2))):
                rows = P._level_rows(curve, (r[a], r[b]), level, odd)
                assert type(rows) is tuple and len(rows) == len(ks)
                for k, (x, y, w) in zip(ks, rows):
                    theta = k * math.pi / level
                    assert x == m - h * math.cos(theta) and type(y) is complex
                    assert w == math.pi / level / (2 if k in (0, level) else 1)
                    if 0 < k < level:
                        assert close(y * h * math.sin(theta), curve.y_upper(x), 1e-12)

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


def gauss_segment(fn, curve, a, b, n):
    """Integral of fn(x, Y_up(x)) dx over the root segment [a, b] by the
    (n + 1)-point Gauss-Chebyshev-Lobatto rule: one level of the nested
    segment rows."""
    return sum(fn(x, y) * w for x, y, w in P._level_rows(curve, (a, b), n, False))


#: the uneven curve of the period goldens: short cut 2 and short gaps
UNEVEN_CURVE = HyperellipticCurve((0.5, 0.7, 1.9, 2.05, 3, 4.4))


class TestQuadrature:
    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2, UNEVEN_CURVE])
    def test_segment_rule_vs_legendre(self, curve):
        r = curve.roots
        segments = sorted({seg for segs in P.SEGMENT_ROOTS.values() for seg in segs})
        for a, b in segments:
            for p in (0, 1, -1, -3):
                fn = P.laurent_integrand(((p, 1.0),))
                got = gauss_segment(fn, curve, r[a], r[b], 48)
                want = legendre_segment(fn, curve, a, b, 48)
                assert type(got) is complex
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, p)

    def test_residue_theorem(self):
        # dz/z around the unit-ish circle: 2 pi i (counterclockwise)
        circle = EllipseContour(-0.3, 0.3, 0.3, "unit")
        curve = HyperellipticCurve((5, 6, 7, 8, 9, 10))  # far away
        val, err = contour_integrate(lambda z, y: 1.0 / z, curve, circle, 1e-12)
        assert abs(val - 2j * math.pi) < 1e-12
        assert err < 1e-10

    def test_exact_differential(self):
        circle = EllipseContour(-0.3, 0.3, 0.3, "unit")
        curve = HyperellipticCurve((5, 6, 7, 8, 9, 10))
        val, _ = contour_integrate(lambda z, y: z, curve, circle, 1e-12)
        assert abs(val) < 1e-12

    def test_cross_rule_agreement(self):
        laurent = ((0, 1.0),)
        for name in ("A1", "A2", "B1", "B2"):
            v1, _ = P._cycle_integral(BASE_CURVE_1, name, laurent, 1e-10)
            v2, _ = P.segment_period(BASE_CURVE_1, name, laurent)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1)), name


def g_reference(kc, z, y):
    """The z1^2 coefficient of the kernel, odd part, as the kernel's
    expansion states it."""
    a0, a1, a2 = kc.alpha
    return (a2 / z + a1 / z**2 + a0 / z**3) / (2 * y) + (kc.h[2] + kc.k[2] * z) / y


def bound_cases(curve):
    """(fn, laurent) pairs to check the segment bound on: z^p for p = -3 ..
    1, the tau basis differentials and, where the kernel exists, the G
    integrand, whose Laurent pairs are checked against ``g_reference`` on
    the way.  Each fn is the production evaluator of its pairs."""
    cases = [((p, 1.0),) for p in range(-3, 2)]
    nb = normalized_basis(curve)
    cases += [((0, A), (1, B)) for A, B in ((nb.a, nb.b), (nb.c, nb.d))]
    try:
        kc = cauchy_kernel_coeffs(curve)
    except PathClearanceError:
        pass
    else:
        laurent = P.g_laurent(kc)
        fn = P.laurent_integrand(laurent)
        for z in (0.7 + 0.2j, -1.3 + 0.5j, 2.9 - 1.1j):
            y = curve.y_upper(z)
            err = abs(fn(z, y) - g_reference(kc, z, y))
            assert err <= 1e-13 * sum(abs(c * z**p / y) for p, c in laurent)
        cases.append(laurent)
    return [(P.laurent_integrand(laurent), laurent) for laurent in cases]


def reference_segment(fn, curve, a, b, n):
    """Level n of the segment rule summed with math.fsum, so that the
    reference adds no summation error of its own."""
    terms = [fn(x, y) * w for x, y, w in P._level_rows(curve, (a, b), n, False)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def check_segment_bounds(curve):
    """On every segment of ``SEGMENT_ROOTS``, at n = 48 and 96: the error
    bound of level n is at least |T_n - T_8n|, for each integrand of
    ``bound_cases`` (negative powers only off the base point)."""
    r = curve.roots
    cases = bound_cases(curve)
    for i, j in sorted({seg for segs in P.SEGMENT_ROOTS.values() for seg in segs}):
        a, b = r[i], r[j]
        for n in (48, 96):
            bounds = P._segment_bounds(curve, a, b, n)
            for fn, laurent in cases:
                if any(p not in bounds for p, _ in laurent):
                    continue
                bound = sum(abs(c) * bounds[p] for p, c in laurent)
                ref = reference_segment(fn, curve, a, b, 8 * n)
                err = abs(gauss_segment(fn, curve, a, b, n) - ref)
                assert err <= bound, (curve.roots, (i, j), n, laurent, err, bound)


class TestSegmentBound:
    """The segment rule's a-priori error bound (Trefethen-Weideman on the
    Bernstein ellipse, plus rounding) holds against a level eight times
    finer."""

    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    def test_base_curves(self, curve):
        check_segment_bounds(curve)

    def test_scan_curves(self):
        for roots in scan_curves():
            check_segment_bounds(HyperellipticCurve(roots))

    @given(st.floats(-5, 5), st.lists(st.floats(0.05, 5), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_random_sextics(self, start, gaps):
        check_segment_bounds(HyperellipticCurve(list(itertools.accumulate(gaps, initial=start))))

    def test_tol_decides_the_work(self):
        # a cut of length 2.85 next to a gap of 0.05: tol 1e-4 stops at 48
        # intervals, 1e-12 needs more; both stay within their bounds
        curve = HyperellipticCurve((0.5, 3.35, 3.4, 4.0, 5.0, 6.0))
        levels = {}
        for tol in (1e-4, 1e-12):
            calls = []

            def fn(x, y):
                calls.append(x)
                return 1.0 / y

            value, err = P.segment_integrate(fn, curve, 0.5, 3.35, tol, ((0, 1.0),))
            assert err <= tol * max(abs(value), 1.0)
            levels[tol] = len(calls) - 1
        assert levels[1e-4] == 48 < levels[1e-12]


class ContourReached(Exception):
    pass


class TestProductionRoute:
    def test_contours_only_behind_the_contour_rule(self, monkeypatch):
        # with the contours and contour quadrature refused and every memo
        # empty, the period matrix, the normalized basis, the kernel, D and
        # the default certificate still compute; only the contour rule of G
        # reaches the contours
        def refuse(*args, **kwargs):
            raise ContourReached

        for memo in (P.standard_contours, P._a_periods, P.cauchy_kernel_coeffs, P._G,
                     P._level_rows, P._segment_bounds):
            memo.cache_clear()
        monkeypatch.setattr(P, "contour_integrate", refuse)
        monkeypatch.setattr(P, "standard_contours", refuse)
        period_matrix(BASE_CURVE_1)
        normalized_basis(BASE_CURVE_2)
        cauchy_kernel_coeffs(BASE_CURVE_1, eps=0.05)
        compute_D(BASE_CURVE_2)
        assert rho4().passed
        assert compute_G(BASE_CURVE_1, 1) == compute_G(BASE_CURVE_1, 1, rule="segments")
        with pytest.raises(ContourReached):
            compute_G(BASE_CURVE_1, 1, rule="contour")

    @pytest.mark.parametrize("r0", [-1.0, 0.0, 5e-4])
    def test_base_point_on_segment(self, r0, monkeypatch):
        # a negative power on a segment that contains, touches or comes
        # within clearance of the base point: refused at the boundary
        # before any node is built, every time (nothing cached)
        curve = HyperellipticCurve((r0, 1, 2, 3, 4, 5))
        built, rows = [], P._level_rows

        def recorded(*args):
            built.append(args)
            return rows(*args)

        monkeypatch.setattr(P, "_level_rows", recorded)
        laurent = ((-1, 1.0), (0, 0.5))
        for _ in range(2):
            with pytest.raises(PathClearanceError, match="base point"):
                P.segment_integrate(P.laurent_integrand(laurent), curve, r0, 1.0, 1e-10, laurent)
            with pytest.raises(PathClearanceError, match="base point"):
                P.segment_period(curve, "A1", ((-1, 1.0),), 1e-10)
        assert built == []
        # without a pole at 0 the same segment integrates
        laurent = ((0, 1.0),)
        value, err = P.segment_integrate(P.laurent_integrand(laurent), curve, r0, 1.0, 1e-10,
                                         laurent)
        assert built and err <= 1e-10 * max(abs(value), 1.0)


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
            k: EllipseContour(c.left, c.right, 1.2 * c.height, k)
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

    def test_err_covers_the_a_periods(self):
        # the A1 period of dx/Y errs by 4.9e-13 here, inside its own bound,
        # and moves tau off symmetry by 1.5e-12, far above the B-cell
        # quadrature errors alone (7.0e-15); the tol-1e-13 matrix is within
        # err of this one entry by entry
        curve = HyperellipticCurve((0, 2.875, 2.92578125, 7.92578125, 10.92578125,
                                    13.92578125))
        tau, err = period_matrix(curve)
        assert abs(tau[0][1] - tau[1][0]) <= err
        fine, _ = period_matrix(curve, 1e-13)
        assert max(abs(tau[i][j] - fine[i][j]) for i in range(2) for j in range(2)) <= err


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
        # independent route: A-periods of 1 and z on the A ellipses (the
        # cycles run clockwise, the ellipses counterclockwise), inverted by
        # numpy; (a, b) and (c, d) are the columns of the inverse
        contours = standard_contours(BASE_CURVE_1)
        M = [[-contour_integrate(fn, BASE_CURVE_1, contours[name], 1e-10)[0]
              for fn in (lambda z, y: 1.0 / y, lambda z, y: z / y)] for name in ("A1", "A2")]
        (a, c), (b, d) = np.linalg.inv(np.array(M)).tolist()
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

    @pytest.mark.parametrize("eps", [0.0, -1.0, -0.05, math.nan])
    def test_circle_needs_positive_radius(self, eps):
        # a zero radius divides by zero, a negative one is a circle of radius
        # |eps| that skips the clearance check, and nan never converges
        with pytest.raises(ValueError, match="eps must be > 0"):
            P.y_taylor_by_circle(BASE_CURVE_1, eps)

    def test_base_point_enclosed(self):
        # this curve's standard A1 ellipse crosses the axis at -1.0665,
        # around the pole of z^-1 / Y at the base point: its contour period
        # differs from the segment period by the clockwise residue
        # -2 pi i / Y_up(0).  The A1 cycle is the cut [0.5, 3.633], which
        # does not enclose 0: the segment A-periods of z^p / Y match an
        # ellipse that hugs the cut, crossing at 0.25 right of the base
        # point, and the kernel, both G rules and the certificate compute
        curve = HyperellipticCurve((0.5, 3.633, 7.355, 11.341, 16.057, 19.769))
        enclosing = standard_contours(curve)["A1"]
        assert enclosing.left < 0
        # the cycle runs clockwise, the ellipses counterclockwise
        laurent = ((-1, 1.0),)
        contour = -contour_integrate(P.laurent_integrand(laurent), curve, enclosing, 1e-10)[0]
        segments, _ = P.segment_period(curve, "A1", laurent)
        assert abs(contour - segments + 2j * math.pi / curve.y_upper(0.0)) < 1e-15
        hugging = EllipseContour(0.25, enclosing.right, enclosing.height, "A1 hugging")
        hugging.check(curve)
        for p in range(-3, 2):
            fn = lambda z, y, p=p: z**p / y
            contour = -contour_integrate(fn, curve, hugging, 1e-13)[0]
            segments, _ = P.segment_period(curve, "A1", ((p, 1.0),))
            assert abs(contour - segments) <= 1e-14 * abs(segments), p
        assert cauchy_kernel_coeffs(curve).residual < 1e-13
        for i in (1, 2):
            gc, _ = compute_G(curve, i, rule="contour")
            gs, _ = compute_G(curve, i, rule="segments")
            assert abs(gc - gs) <= 1e-13 * abs(gs)
        assert rho4(PeriodConfig(curve1=curve)).passed

    @pytest.mark.parametrize("r1, clear", [(2.999, False), (2.996, True)])
    def test_base_point_clearance(self, r1, clear):
        # the standard A1 ellipse crosses at 1.5 r0 - r1 / 2, 5e-4 and 2e-3
        # right of the base point, within and outside the clearance; the A1
        # cycle is the cut [1, r1], so the kernel computes either way
        curve = HyperellipticCurve((1, r1, 4, 5, 6, 7))
        assert (standard_contours(curve)["A1"].left >= BRANCH_CLEARANCE) == clear
        assert cauchy_kernel_coeffs(curve).residual < 1e-8

    @pytest.mark.parametrize(
        "roots, message",
        [
            ((-5, -4, -3, -2, -1, 0), "too close to a branch point"),
            ((-5, -4, -3, -2, 5e-4, 1), "too close to a branch point"),
            ((-6, -5, -4, -3, -2, 1), "base point on a cut"),
        ],
    )
    def test_branch_point_at_base_point(self, roots, message):
        # 0 on or near a branch point of the third cut, which no A-cycle
        # uses, or inside that cut: Y(0) is 0 or nearly, or the eps-circle
        # crosses the axis where Y changes sheet, and the kernel refuses
        with pytest.raises(PathClearanceError, match=message):
            cauchy_kernel_coeffs(HyperellipticCurve(roots))

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
        fn = P.laurent_integrand(P.g_laurent(kc))
        eps = 0.05
        n = 600
        contour = standard_contours(curve)["B1"]
        for t in (0.1, 0.3, 0.6, 0.85):
            z = ref_point(contour, t)
            y = ref_sheet_sign(contour, curve, t) * curve.y_upper(z)
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
        P._level_rows.cache_clear()
        c2 = rho4()
        assert c1.value == c2.value and c1.quadrature_error == c2.quadrature_error


class TestMemo:
    """Each curve's contours, A-periods, kernel coefficients and G_i are
    computed once, shared as immutable values."""

    def test_counts(self, monkeypatch):
        # a curve pair no other test uses, so the counts start cold
        curve = HyperellipticCurve((1.0, 2.1, 3.05, 4.2, 5.1, 6.3))
        curve2 = HyperellipticCurve((1.0, 2.1, 3.05, 4.2, 5.1, 7.2))
        counts = {"segments": 0, "contours": 0, "checks": 0}
        segment, contour, check = P.segment_integrate, P.contour_integrate, EllipseContour.check

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(P, "segment_integrate", counted("segments", segment))
        monkeypatch.setattr(P, "contour_integrate", counted("contours", contour))
        monkeypatch.setattr(EllipseContour, "check", counted("checks", check))
        period_matrix(curve)
        rho4(PeriodConfig(curve1=curve, curve2=curve2))
        for i in (1, 2):
            for rule in ("contour", "segments"):
                compute_G(curve, i, rule=rule)
        # segment integrals: 2 + 2 A-periods of 1 and z on the cuts of each
        # curve, 2 x 3 for the B-periods of tau (B1 has two segments, B2
        # one), 3 x 2 inverse-power A-periods, and 2 + 1 for G_1 and G_2,
        # shared by rho4 and compute_G; two contour integrals, for the
        # contour-rule G_i, on the contours of the first curve, built and
        # checked once by the first of them
        assert counts == {"segments": 23, "contours": 2, "checks": 4}

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
        # lies within clearance of both branch points: the contours and the
        # contour rule of G refuse the curve every time, while the kernel
        # coefficients, on the segments, compute
        curve = HyperellipticCurve((1, 2, 2.0015, 3, 4, 5))
        for _ in range(2):
            with pytest.raises(PathClearanceError):
                standard_contours(curve)
            with pytest.raises(PathClearanceError):
                compute_G(curve, 1, rule="contour")
        assert cauchy_kernel_coeffs(curve).residual < 1e-8

    def test_levels_built_once(self, monkeypatch):
        # two curves whose segment levels and contour-rule G levels
        # outnumber a 32-level cache, so a smaller cache rebuilds their
        # segment levels between the tau and the inverse-power A-periods
        curves = [(0.92, 1.77, 1.86, 1.91, 4.68, 4.81), (0.82, 0.9, 2.47, 4.44, 7.06, 7.12)]
        for memo in (P.standard_contours, P._a_periods, P.cauchy_kernel_coeffs, P._G,
                     P._level_rows):
            memo.cache_clear()
        levels = set()
        rows = P._level_rows

        def recorded(curve, path, n, odd):
            levels.add((curve, path, n, odd))
            return rows(curve, path, n, odd)

        monkeypatch.setattr(P, "_level_rows", recorded)
        for roots in curves:
            curve = HyperellipticCurve(roots)
            period_matrix(curve, 1e-11)
            rho4(PeriodConfig(tol=1e-11, curve1=curve,
                              curve2=HyperellipticCurve(roots[:5] + (roots[5] + 1,))))
            for i in (1, 2):
                for rule in ("contour", "segments"):
                    compute_G(curve, i, tol=1e-11, rule=rule)
        assert rows.cache_info().misses == len(levels) > 32

    def test_nodes_built_once_per_integral(self, monkeypatch):
        # a contour integral converged at N nodes calls y_upper N times and
        # its integrand N times; a second integrand on the contour reuses
        # every row, and a segment integral at N intervals reads N + 1 nodes
        curve = HyperellipticCurve((1.0, 2.2, 3.1, 4.3, 5.2, 6.4))
        contour = standard_contours(curve)["B1"]
        P._level_rows.cache_clear()
        levels, calls = [], {"y_upper": 0, "fn": 0}
        rows, y_upper = P._level_rows, HyperellipticCurve.y_upper

        def recorded(curve, path, n, odd):
            levels.append(n)
            return rows(curve, path, n, odd)

        def counted_y_upper(self, z):
            calls["y_upper"] += 1
            return y_upper(self, z)

        def fn(z, y):
            calls["fn"] += 1
            return 1.0 / y

        monkeypatch.setattr(P, "_level_rows", recorded)
        monkeypatch.setattr(HyperellipticCurve, "y_upper", counted_y_upper)
        contour_integrate(fn, curve, contour, 1e-12)
        N = max(levels)
        assert N > 64 and calls == {"y_upper": N, "fn": N}
        contour_integrate(lambda z, y: z / y, curve, contour, 1e-12)
        assert calls["y_upper"] == N
        levels.clear()
        calls.update(y_upper=0, fn=0)
        P.segment_integrate(fn, curve, curve.roots[1], curve.roots[2], 1e-12, ((0, 1.0),))
        assert calls == {"y_upper": 0, "fn": max(levels) + 1}

    def test_invalid_G_arguments(self):
        # validated before the memo: each call raises, and nothing is stored
        before = P._G.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="cycle index"):
                compute_G(BASE_CURVE_1, 3)
            with pytest.raises(ValueError, match="unknown rule"):
                compute_G(BASE_CURVE_1, 1, rule="simpson")
        assert P._G.cache_info().currsize == before


class TestScan:
    def test_node_count(self):
        # the first five curves of scripts/period_scan.py: the nodes the
        # nested quadrature builds from empty memos, pinned
        path = pathlib.Path(__file__).parent.parent / "scripts" / "period_scan.py"
        out = io.StringIO()
        assert runpy.run_path(str(path))["scan"](5, out=out) == 15612
        lines = out.getvalue().splitlines()
        assert len(lines) == 11 and lines[-1] == "nodes_built\t15612"


# --------------------------------------------------------------------------
# Thomae's formula: an outside check of the value of tau


#: the ten even characteristics [a; b], a and b in {0, 1/2}^2 with 4 a.b even
EVEN_CHARACTERISTICS = [(a, b) for a in itertools.product((0, 0.5), repeat=2)
                        for b in itertools.product((0, 0.5), repeat=2)
                        if (4 * (a[0] * b[0] + a[1] * b[1])) % 2 == 0]

#: largest residual accepted; the curves below reach 2e-14, and a relative
#: error of 1e-9 in one entry of tau gives about 5e-10
THOMAE_TOL = 1e-12


def theta_fourth_powers(tau):
    """|theta[a; b](0, tau)|^4 for the ten even characteristics, in stdlib
    cmath.  The sum over n in Z^2 stops where exp(-pi lmin |n|^2) falls
    below 1e-16, lmin the least eigenvalue of Im tau."""
    t11, t12, t22 = tau[0][0], tau[0][1] + tau[1][0], tau[1][1]
    a, b, c = t11.imag, t12.imag / 2, t22.imag
    lmin = (a + c) / 2 - math.hypot((a - c) / 2, b)
    n = math.ceil(math.sqrt(37 / (math.pi * lmin)))
    out = []
    for (a1, a2), (b1, b2) in EVEN_CHARACTERISTICS:
        total = 0j
        for x, y in itertools.product(range(-n, n + 1), repeat=2):
            x, y = x + a1, y + a2
            total += cmath.exp(1j * math.pi * (t11 * x * x + t12 * x * y + t22 * y * y
                                               + 2 * (b1 * x + b2 * y)))
        out.append(abs(total) ** 4)
    return out


def thomae_residual(tau, roots):
    """Thomae (1870; Mumford, Tata Lectures on Theta II, IIIa.8): for each
    split of the six branch points into triples S and T, an even theta
    constant has theta^4 = c * (+-) prod_{i<j in S} (e_i - e_j) prod_{i<j in
    T} (e_i - e_j).  The multiset of the ten |theta|^4, scaled by its
    largest, does not depend on which characteristic goes with which split,
    so it checks tau whatever its homology basis.  Returns the largest
    difference of the two sorted, scaled multisets."""
    thetas = sorted(theta_fourth_powers(tau))
    splits = sorted(
        math.prod(abs(roots[i] - roots[j]) for part in (s, set(range(6)) - set(s))
                  for i, j in itertools.combinations(sorted(part), 2))
        for s in itertools.combinations(range(6), 3) if 0 in s)
    return max(abs(t / thetas[-1] - p / splits[-1]) for t, p in zip(thetas, splits))


def scan_curves():
    path = pathlib.Path(__file__).parent.parent / "scripts" / "period_scan.py"
    return [roots for roots, _ in runpy.run_path(str(path))["random_curves"](5, 40)]


class TestThomae:
    def test_even_characteristics(self):
        assert len(EVEN_CHARACTERISTICS) == 10

    @pytest.mark.parametrize("curve", [BASE_CURVE_1, BASE_CURVE_2])
    def test_base_curves(self, curve):
        assert thomae_residual(period_matrix(curve)[0], curve.roots) < THOMAE_TOL

    def test_scan_curves(self):
        for roots in scan_curves():
            tau, _ = period_matrix(HyperellipticCurve(roots))
            assert thomae_residual(tau, roots) < THOMAE_TOL, roots

    @given(st.floats(-5, 5), st.lists(st.floats(0.05, 5), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_random_sextics(self, start, gaps):
        # at tol 1e-10 an A-period may err by 5e-13 and tau with it (see
        # TestPeriodMatrix.test_err_covers_the_a_periods), so the matrix is
        # asked for THOMAE_TOL itself; a tol of 1e-13 is more than the
        # segment rule certifies on clustered roots such as (3, 3.25,
        # 3.375, 3.5, 4.5, 5.5), where it raises QuadratureError
        roots = list(itertools.accumulate(gaps, initial=start))
        tau, _ = period_matrix(HyperellipticCurve(roots), 1e-12)
        assert thomae_residual(tau, roots) < THOMAE_TOL

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_detects_a_planted_error(self, entry):
        # one entry of tau off by a relative 1e-9 fails the check
        tau = [row[:] for row in period_matrix(BASE_CURVE_1)[0]]
        i, j = entry
        tau[i][j] *= 1 + 1e-9
        assert thomae_residual(tau, BASE_CURVE_1.roots) > 100 * THOMAE_TOL
