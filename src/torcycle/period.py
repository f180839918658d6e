"""Numerical period integrals on genus-2 hyperelliptic curves and the
nonvanishing certificate for the second-order period expansion coefficient.

Geometry.  A curve Y^2 = prod (x - r_i) with six real increasing branch
points has cuts [r0,r1], [r2,r3], [r4,r5] (where the sextic is negative).
A1, A2 are clockwise loops around cuts 1 and 2; B1 (B2) crosses the real
axis inside cut 1 (2) and cut 3, its upper arc on the upper branch.  So B1
meets only A1 and B2 only A2: the basis is symplectic, and the tests
assert that tau is symmetric with positive definite imaginary part.

Branch tracking.  Yref(z) = prod principal-sqrt(z - r_i) is continuous on
each open half plane and changes sign across the real axis exactly where
an odd number of branch points lies to the right, so the sheets along an
ellipse crossing the axis at two known points are exact.  The upper branch
is Y(0) = +sqrt(f(0)) continued through the closed upper half plane: Y_up
= -Yref there.

Quadrature.  Every integrand is g(z) dz / Y, g a Laurent polynomial with
powers -3 to 1, and is given once: as the pairs (p, c_p) of g = sum c_p
z^p, which ``laurent_integrand`` evaluates at the nodes and
``_segment_bounds`` bounds.  Production integrates over branch-point
segments: a nested trapezoid rule in theta = k pi/n with both ends, x = m -
h cos(theta) (nested Gauss-Chebyshev-Lobatto, Waldvogel, BIT 2006).  Y's
endpoint roots are taken as -i h sin(theta), and the integrand is called
with Y / (h sin(theta)), which absorbs dx.  A segment integral stops at
the first level whose error, an a-priori truncation bound plus modelled
rounding, is within tol, and returns it: the rule is half the periodic
trapezoid rule of 2n nodes, which errs by at most 4 pi M / (rho^2n - 1)
for an integrand bounded by M on the strip |Im theta| < log(rho)
(Trefethen-Weideman, SIAM Rev. 56, 2014, Thm 3.2), the image of the
Bernstein ellipse of parameter rho around the segment.  Clockwise cycles
are twice their segment integrals: an A-cycle over its cut, B1 over the f
> 0 gaps between its crossings, so no loop keeps clear of the base point;
a negative power on a segment near it, or a base point on a cut, is refused.
Closed contours at t = 2^-18 + k/n (no node of a level up to 65536 nodes
on a real-axis crossing), doubled until two levels agree, are the second
route; only ``compute_G(rule="contour")`` takes it, as the independent
check the benchmark's G job compares with segments.  Level 2n adds only
the odd nodes, so an integral converged at N nodes evaluates N, once each
with Python numbers.  The module needs only math and cmath (numpy cost
every process about 0.12 s and 10 MB), and returns Python complex or
float values, so ``--machine`` prints plain reprs.  Everything is bitwise
deterministic for fixed configuration.

Memoization.  Built once: a curve's contours; the rows (z, Y, weight) a
level adds on a path, shared by its integrands; a segment level's error
bounds; A-periods per (curve, tol); kernel coefficients per (curve, tol,
eps); G_i per (curve, i, eps, tol, rule), so ``rho4`` and ``compute_G``
share one B_i integral.  The memos are bounded LRU caches of immutable
values.  A failure (a clearance check, a bad argument) is not cached.
"""

import cmath
import functools
import math
from types import MappingProxyType
from typing import NamedTuple

from . import validated_make


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the tolerance."""


class PathClearanceError(ValueError):
    """A path runs too close to a branch point or to the base point."""


#: minimum allowed distance between any path point and a branch point
BRANCH_CLEARANCE = 1e-3
#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


# --------------------------------------------------------------------------
# curve and sheet bookkeeping


class _HyperellipticCurveFields(NamedTuple):
    roots: tuple[float, ...]


class HyperellipticCurve(_HyperellipticCurveFields):
    """Six real increasing branch points; cuts pair them consecutively."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, roots):
        if len(roots) != 6:
            raise ValueError("exactly six branch points")
        rs = tuple(float(r) for r in roots)
        if not all(map(math.isfinite, rs)):
            raise ValueError("branch points must be finite")
        if any(rs[i] >= rs[i + 1] for i in range(5)):
            raise ValueError("branch points must be strictly increasing")
        return super().__new__(cls, rs)

    def y_ref(self, z) -> complex:
        """Product of principal square roots; continuous off the real axis.
        For real x < r the root of x - r is i sqrt(r - x)."""
        (r0, r1, r2, r3, r4, r5), sqrt = self.roots, cmath.sqrt
        return (sqrt(z - r0) * sqrt(z - r1) * sqrt(z - r2)
                * sqrt(z - r3) * sqrt(z - r4) * sqrt(z - r5))

    def y_upper(self, z) -> complex:
        """The upper branch: +sqrt(f(0)) at the base point, continued
        through the closed upper half plane."""
        return -self.y_ref(z)

    def axis_flip(self, x: float) -> bool:
        """Does Yref jump when a path crosses the real axis at x?  True iff
        an odd number of branch points lies to the right."""
        if any(abs(x - r) < BRANCH_CLEARANCE for r in self.roots):
            raise PathClearanceError(f"crossing {x} too close to a branch point")
        return sum(1 for r in self.roots if r > x) % 2 == 1

    def y_taylor0(self) -> tuple[complex, complex, complex]:
        """Taylor coefficients (Y(0), Y'(0), Y''(0)/2) of the upper branch
        at the base point z = 0."""
        y0 = self.y_upper(0.0)
        # f = c0 + c1 z + c2 z^2 + ..., multiplied out one factor z - r at a
        # time, so f'(0) = c1 and f''(0) = 2 c2
        c = [1.0]
        for r in self.roots:
            c = [lower - r * same for lower, same in zip([0.0, *c], [*c, 0.0])]
        f1, f2 = c[1], 2 * c[2]
        y1 = f1 / (2 * y0)
        y2 = (f2 - 2 * y1 * y1) / (2 * y0)
        return y0, y1, y2 / 2


#: The two base curves: the second differs only in its last branch point.
BASE_CURVE_1 = HyperellipticCurve((1, 2, 3, 4, 5, 6))
BASE_CURVE_2 = HyperellipticCurve((1, 2, 3, 4, 5, 7))


class EllipseContour(NamedTuple):
    """Closed contour crossing the real axis exactly at x = left and
    x = right, traversed counterclockwise starting at the right crossing.
    Y is Y_up on the upper arc; on the lower arc it is flipped when Yref
    jumps at the crossings."""

    left: float
    right: float
    height: float
    label: str = ""

    @property
    def center(self) -> float:
        return (self.left + self.right) / 2

    @property
    def halfwidth(self) -> float:
        return (self.right - self.left) / 2

    def check(self, curve: HyperellipticCurve) -> None:
        # closure: the two crossings must flip consistently
        fl = curve.axis_flip(self.left)
        fr = curve.axis_flip(self.right)
        if fl != fr:
            raise ValueError(f"contour {self.label}: inconsistent sheet closure")
        # |z - r|^2 = (c - r + w u)^2 + h^2 (1 - u^2) is a quadratic in
        # u = cos(angle) on [-1, 1] with u^2 coefficient w^2 - h^2: least at
        # an end, or at its vertex when that coefficient is positive
        w, h = self.halfwidth, self.height
        bend = w * w - h * h
        for r in curve.roots:
            d = self.center - r
            us = (-1.0, 1.0, max(-1.0, min(1.0, -w * d / bend))) if bend > 0 else (-1.0, 1.0)
            if min((d + w * u) ** 2 + h * h * (1 - u * u) for u in us) < BRANCH_CLEARANCE**2:
                raise PathClearanceError(
                    f"contour {self.label} within clearance of a branch point"
                )


@functools.lru_cache(maxsize=32)
def standard_contours(curve: HyperellipticCurve) -> MappingProxyType:
    """A1, A2 around cuts 1, 2 (crossings in the f > 0 gaps); B1 through
    cuts 1 and 3; B2 through cuts 2 and 3."""
    r = curve.roots
    left_out, m12, m34 = r[0] - (r[1] - r[0]) / 2, (r[1] + r[2]) / 2, (r[3] + r[4]) / 2
    c1, c2, c3 = (r[0] + r[1]) / 2, (r[2] + r[3]) / 2, (r[4] + r[5]) / 2
    contours = {
        "A1": EllipseContour(left_out, m12, 0.55 * (m12 - left_out) / 2, "A1"),
        "A2": EllipseContour(m12, m34, 0.55 * (m34 - m12) / 2, "A2"),
        "B1": EllipseContour(c1, c3, 0.40 * (c3 - c1) / 2, "B1"),
        "B2": EllipseContour(c2, c3, 0.55 * (c3 - c2) / 2, "B2"),
    }
    for c in contours.values():
        c.check(curve)
    return MappingProxyType(contours)


# --------------------------------------------------------------------------
# quadrature engines


#: Offset of the contour nodes t = NODE_OFFSET + k/n: t is 0 or 1/2, a
#: real-axis crossing where the sheet sign jumps, only when 2^18 divides n,
#: so no node of a level up to ``CONTOUR_NODES[1]`` = 65536 lies on one.
NODE_OFFSET = 1 / 262144


@functools.lru_cache(maxsize=64)
def _level_rows(curve, path, n, odd):
    """The rows (z, Y, weight) level n of the nested trapezoid rule adds on
    ``path``: its odd nodes k when ``odd``, else all of them.  On a contour
    t = NODE_OFFSET + k/n (k < n), Y is branch-consistent and the weight is
    z'(t)/n.  On a root segment (a, b), theta = k pi/n (k <= n), x = m -
    h cos(theta), Y is taken over h sin(theta) and the weight is pi/n,
    halved at the ends.  Built once and shared by every integrand."""
    rows = []
    if isinstance(path, EllipseContour):
        c, w, h = path.center, path.halfwidth, path.height
        lower = -1 if curve.axis_flip(path.left) else 1
        for k in range(1, n, 2) if odd else range(n):
            t = NODE_OFFSET + k / n
            ang = 2 * math.pi * t
            cos, sin = math.cos(ang), math.sin(ang)
            z = complex(c + w * cos, h * sin)
            sign = 1 if t < 0.5 else lower
            rows.append((z, sign * curve.y_upper(z), 2 * math.pi * complex(-w * sin, h * cos) / n))
        return tuple(rows)
    a, b = path
    m, h = (a + b) / 2, (b - a) / 2
    r0, r1, r2, r3 = (r for r in curve.roots if r not in path)
    sqrt = cmath.sqrt
    for k in range(1, n, 2) if odd else range(n + 1):
        x = m - h * math.cos(k * math.pi / n)
        # Y_up = -sqrt(x - a) sqrt(x - b) prod(others) = -i h sin(theta) prod(others)
        y = -1j * sqrt(x - r0) * sqrt(x - r1) * sqrt(x - r2) * sqrt(x - r3)
        rows.append((x, y, math.pi / n / (2 if k in (0, n) else 1)))
    return tuple(rows)


def _nested(fn, curve, path, what, tol, nodes, bound=None):
    """(value, error) of the nested trapezoid rule on ``path`` at levels
    nodes[0], twice that, ... up to nodes[1], each adding its new rows (T_2n
    = T_n / 2 + those), until the error, bound(n) or else the change from
    the level before, is within tol relative to max(|value|, 1)."""
    (n, nmax), value = nodes, None
    while n <= nmax:
        prev, odd = value, value is not None
        rows = _level_rows(curve, path, n, odd)
        value = (prev / 2 if odd else 0) + sum([fn(z, y) * w for z, y, w in rows])
        err = bound(n) if bound else abs(value - prev) if odd else math.inf
        if err <= tol * max(abs(value), 1.0):
            return value, err
        n *= 2
    raise QuadratureError(f"{what}: no convergence at {nmax} nodes")


#: (first, most) nodes of the nested rule on a contour and on a segment
CONTOUR_NODES = (64, 65536)
SEGMENT_NODES = (48, 3072)


def contour_integrate(fn, curve, contour, tol=1e-10):
    """Trapezoid integral of fn(z, Y) dz over the closed contour, doubling
    nodes until two refinements agree within tol (relative).  fn is called
    once per node with Python numbers z and Y."""
    return _nested(fn, curve, contour, f"contour {contour.label}", tol, CONTOUR_NODES)


def segment_integrate(fn, curve, a, b, tol, laurent):
    """Integral of fn(x, Y_up(x)) dx over the root segment [a, b] by nested
    Gauss-Chebyshev-Lobatto rules, fn = ``laurent_integrand(laurent)``: the
    first level whose bound is within tol, with that bound."""
    what = f"segment [{a},{b}]"
    if min(p for p, _ in laurent) < 0 and max(a, -b, 0.0) < BRANCH_CLEARANCE:
        raise PathClearanceError(f"{what} within clearance of the base point")

    def bound(n):
        bounds = _segment_bounds(curve, a, b, n)
        return sum(abs(c) * bounds[p] for p, c in laurent)

    return _nested(fn, curve, (a, b), what, tol, SEGMENT_NODES, bound)


def laurent_integrand(laurent):
    """fn(z, Y) = g(z) / Y, g = sum c_p z^p over pairs (p, c_p) of distinct
    powers (Horner's rule, times z^low): every period integrand's evaluator."""
    coef = dict(laurent)
    low = min(coef)
    top, *rest = [coef.get(q, 0) for q in range(max(coef), low - 1, -1)]

    def fn(z, y):
        g = top
        for c in rest:
            g = g * z + c
        return g * z**low / y

    return fn


def _hull(A, B, C, D):  # max of (l A + (1 - l) B) C^l D^(1 - l), 0 <= l <= 1: log-concave
    v = (B - A) / math.log(C / D) if C != D else A
    if not min(A, B) < v < max(A, B):
        return max(A * C, B * D)
    lam = (v - B) / (A - B)
    return v * C**lam * D ** (1 - lam)


@functools.lru_cache(maxsize=128)
def _segment_bounds(curve, a, b, n):
    """{p: e_p}, e_p bounding |T_n - I| for x^p / Y on the root segment [a,
    b] (p < 0 only clear of the base point): the module's bound at log(rho)
    = its limit less k / 2n, k = 1/2 at a branch point, -p at the base
    point, whichever is nearest.  |x - r| >= |Re x - r| (a vertex is nearest
    r, as in ``EllipseContour.check``), q = prod_r |Re x - r|^(-1/2) and
    |x|^p q for p <= 0 are log-convex, and ``_hull`` bounds |x| q.  Rounding,
    modelled, adds u pi M_0 (n + 1 + kappa) / sqrt(n + 1), M_0 that bound on
    [a, b]: the worst case of summing n + 1 terms each within kappa u, kappa
    = 24 plus k (4 (|m| + h) / d + 3 pi h / sqrt(d (d + 2 h))) per
    singularity of order k at distance d (node moves), over sqrt(n + 1) as
    independent errors add (Higham, Accuracy and Stability, 2002, 2.8)."""
    m, h = (a + b) / 2, (b - a) / 2
    r0, r1, r2, r3 = others = [r for r in curve.roots if r not in (a, b)]

    def sup(d, p):  # of |x^p / prod (x - r)^(1/2)| on the ellipse of real semi-axis d
        ends = (m - d, 0.0, m + d) if p == 1 and abs(m) < d else (m - d, m + d)
        qs = [abs((t - r0) * (t - r1) * (t - r2) * (t - r3)) ** -0.5 for t in ends]
        if p <= 0:
            return max(abs(t) ** p * q for t, q in zip(ends, qs))
        sizes = [abs(t) + math.sqrt(d * d - h * h) for t in ends]  # |x| <= |Re x| + |Im x|
        return max(map(_hull, sizes, sizes[1:], qs, qs[1:]))

    def shift(d):  # relative move of the integrand per order of a singularity d away
        return 4 * (abs(m) + h) / d + 3 * math.pi * h / math.sqrt(d * (d + 2 * h))

    branch = min(abs(r - m) for r in others)
    cond = 24 + sum(shift(abs(r - m) - h) / 2 for r in others)
    bounds = {}
    for p in range(-3 if max(a, -b, 0.0) >= BRANCH_CLEARANCE else 0, 2):
        reach, k = (abs(m), -p) if p < 0 and abs(m) < branch else (branch, 0.5)
        alpha = max(math.acosh(reach / h) - k / (2 * n), math.acosh(reach / h) / 2)
        trunc = 2 * math.pi * sup(h * math.cosh(alpha), p) / math.expm1(min(2 * n * alpha, 700))
        kappa = cond - (p * shift(abs(m) - h) if p < 0 else 0) + n + 1
        bounds[p] = trunc + UNIT_ROUNDOFF * math.pi * sup(h, p) * kappa / math.sqrt(n + 1)
    return MappingProxyType(bounds)


# --------------------------------------------------------------------------
# periods and the normalized basis


def _cycle_integral(curve, name, laurent, tol):
    """Contour period of a clockwise cycle (the ellipses run counterclockwise,
    hence the sign): the orientation that makes tau symmetric with positive
    definite imaginary part, as the segment decompositions also take."""
    contour = standard_contours(curve)[name]
    val, err = contour_integrate(laurent_integrand(laurent), curve, contour, tol)
    return -val, err


@functools.lru_cache(maxsize=64)
def _a_periods(curve, tol, powers):
    """M[i][j] = (value, error) of the integral over A_i of z^p dz/Y for p =
    powers[j], as tuples."""
    return tuple(
        tuple(segment_period(curve, name, ((p, 1.0),), tol) for p in powers)
        for name in ("A1", "A2")
    )


class NormalizedBasis(NamedTuple):
    """v1 = (a + b z) dz/Y, v2 = (c + d z) dz/Y with A-period duality."""

    a: complex
    b: complex
    c: complex
    d: complex
    residual: float

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c


def normalized_basis(curve: HyperellipticCurve, tol=1e-10) -> NormalizedBasis:
    """(a, b) and (c, d) are the columns of M^-1, M the A-periods of 1 and z."""
    (m00, m01), (m10, m11) = M = [[v for v, _ in row] for row in _a_periods(curve, tol, (0, 1))]
    det = m00 * m11 - m01 * m10
    if abs(det) < 1e-14:
        raise ZeroDivisionError("singular A-period matrix")
    a, b, c, d = m11 / det, -m10 / det, -m01 / det, m00 / det
    # duality residual, re-evaluated
    res = max(abs(al * M[i][0] + be * M[i][1] - (i == j))
              for i in range(2) for j, (al, be) in enumerate(((a, b), (c, d))))
    basis = NormalizedBasis(a, b, c, d, res)
    if abs(basis.det()) < 1e-12:
        raise ZeroDivisionError("degenerate normalized basis")
    return basis


def period_matrix(curve: HyperellipticCurve, tol=1e-10):
    """tau[i][j] = integral over B_i of v_j, A-normalized, and an error
    bound on every entry: the B quadrature error of the entry plus the
    A-period errors E carried through N = M^-1 to first order.  As dN = -N
    dM N, tau = B N moves by -tau dM N, at most (|tau| E |N|)[i][j]."""
    nb = normalized_basis(curve, tol)
    cells = [[segment_period(curve, name, ((0, al), (1, be)), tol)
              for al, be in ((nb.a, nb.b), (nb.c, nb.d))] for name in ("B1", "B2")]
    tau = [[v for v, _ in row] for row in cells]
    E = [[e for _, e in row] for row in _a_periods(curve, tol, (0, 1))]
    N = ((nb.a, nb.c), (nb.b, nb.d))
    err = max(e + sum(abs(tau[i][k]) * E[k][m] * abs(N[m][j]) for k in (0, 1) for m in (0, 1))
              for i, row in enumerate(cells) for j, (_, e) in enumerate(row))
    return tau, err


# segment decompositions (the production quadrature route) -----------------


#: Root-index pairs (a, b) of the segments [r_a, r_b] of each cycle: its
#: cut for an A-cycle; for a B-cycle the f > 0 gaps between its axis
#: crossings (the cut portions cancel between the two arcs, the gaps double).
SEGMENT_ROOTS = {"A1": ((0, 1),), "A2": ((2, 3),), "B1": ((1, 2), (3, 4)), "B2": ((3, 4),)}


def segment_period(curve, name, laurent, tol=1e-10):
    """Clockwise period of sum c_p z^p dz / Y, (p, c_p) in ``laurent``, over
    cycle ``name``: twice the sum of its segment integrals, in table order."""
    fn, r = laurent_integrand(laurent), curve.roots
    vals, errs = zip(*(segment_integrate(fn, curve, r[a], r[b], tol, laurent)
                       for a, b in SEGMENT_ROOTS[name]))
    return 2 * sum(vals[1:], vals[0]), 2 * sum(errs[1:], errs[0])


# --------------------------------------------------------------------------
# Cauchy kernel coefficients and the double integrals


class KernelCoefficients(NamedTuple):
    """z1-Taylor data of the A-normalized kernel at the base point: h and k
    coefficient pairs per order, plus the Y-Taylor coefficients used."""

    h: tuple[complex, ...]
    k: tuple[complex, ...]
    alpha: tuple[complex, complex, complex]
    residual: float


#: Trapezoid nodes on the eps-circle of ``y_taylor_by_circle``.
CIRCLE_NODES = 64


def y_taylor_by_circle(curve, eps):
    """Taylor coefficients of the upper branch at 0 from the eps-circle
    (trapezoid; the circle crosses the axis outside every cut, so the sheet
    is constant on it): the order-m coefficient is the mean of Y / z^m,
    all three orders accumulated in one pass.  Aliasing from the orders
    m + jn costs at most (eps / min |r|)^n <= 2^-n relative, as every
    |r| > 2 eps: n = CIRCLE_NODES = 64 is below rounding."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if any(abs(r) <= 2 * eps for r in curve.roots):
        raise PathClearanceError("eps-circle too close to a branch point")
    n = CIRCLE_NODES
    s0 = s1 = s2 = 0j
    for k in range(n):
        z = eps * cmath.exp(2j * math.pi * ((k + 0.5) / n))
        y = curve.y_upper(z)
        s0 += y
        s1 += y / z
        s2 += y / (z * z)
    return s0 / n, s1 / n, s2 / n


@functools.lru_cache(maxsize=64)
def cauchy_kernel_coeffs(
    curve: HyperellipticCurve, tol=1e-10, eps: float | None = None
) -> KernelCoefficients:
    """Solve the A-normalization of the kernel order by order in the second
    argument around 0.  Memoized per (curve, tol, eps).

    The kernel is (y1 + y) dz / (2 (z - z1) y) + h(z1) dz/y + k(z1) z dz/y.
    Its pure 1/(2 (z - z1)) part has zero A-periods, as an A-cycle is its cut
    (0 on a cut or near a branch point raises PathClearanceError), so each
    order is (h, k) = M^-1 rhs: M the A-period matrix, inverted by the
    normalized basis, and rhs from the expanded y1/(2(z-z1)) term.
    """
    if curve.axis_flip(0.0):
        raise PathClearanceError("base point on a cut")
    nb = normalized_basis(curve, tol)
    M, P = ([[v for v, _ in row] for row in _a_periods(curve, tol, powers)]
            for powers in ((0, 1), (-1, -2, -3)))
    # inverse power A-periods: P[i][k - 1] = integral over A_i of z^-k dz/Y
    alpha = y_taylor_by_circle(curve, eps) if eps is not None else curve.y_taylor0()
    hs, ks, residual = [], [], 0.0
    for order in range(3):
        rhs = [-sum(alpha[j] * P[i][order - j] for j in range(order + 1)) / 2 for i in range(2)]
        h, k = nb.a * rhs[0] + nb.c * rhs[1], nb.b * rhs[0] + nb.d * rhs[1]
        hs.append(h)
        ks.append(k)
        for i in range(2):
            residual = max(residual, abs(h * M[i][0] + k * M[i][1] - rhs[i]))
    return KernelCoefficients(tuple(hs), tuple(ks), alpha, residual)


def g_laurent(kc: KernelCoefficients):
    """Outer integrand of the double integral after the inner residue, the
    kernel's z1^2 coefficient (a2/z + a1/z^2 + a0/z^3) / (2 Y) + (h2 + k2 z) / Y
    as pairs (p, c_p) of sum c_p z^p dz / Y, odd part (the even 1/(2 z^3) dz
    piece integrates to zero over cycles that do not enclose the base point)."""
    return (*((p, a / 2) for p, a in zip((-3, -2, -1), kc.alpha)), (0, kc.h[2]), (1, kc.k[2]))


def compute_G(curve: HyperellipticCurve, i: int, eps: float | None = 0.05,
              tol: float = 1e-10, rule: str = "segments"):
    """G_i: the B_i integral of 2 pi i times the z1^2 coefficient of the
    kernel (inner circle radius ``eps``, or the exact Y-Taylor data when
    None), by the "segments" (production, bounded error) or "contour" rule
    (the independent check, a doubling estimate)."""
    if i not in (1, 2):
        raise ValueError("cycle index is 1 or 2")
    if rule not in ("contour", "segments"):
        raise ValueError(f"unknown rule {rule!r}")
    return _G(curve, i, eps, tol, rule)


@functools.lru_cache(maxsize=64)
def _G(curve, i, eps, tol, rule):
    """compute_G on validated arguments, memoized on all five of them."""
    kc = cauchy_kernel_coeffs(curve, tol, eps)
    route = _cycle_integral if rule == "contour" else segment_period
    val, err = route(curve, f"B{i}", g_laurent(kc), tol)
    return 2j * math.pi * val, 2 * math.pi * err


def compute_D(curve2: HyperellipticCurve, tol=1e-10):
    """The two constants from the second-order term of the glued
    differentials: (a Y'(0) - b)/Y(0) and (c Y'(0) - d)/Y(0) with the
    normalized-basis constants of the second curve and its upper branch."""
    nb = normalized_basis(curve2, tol)
    y0, y1, _ = curve2.y_taylor0()
    if abs(y0) < 1e-12:
        raise ZeroDivisionError("Y(0) below the numerical floor")
    return ((nb.a * y1 - nb.b) / y0, (nb.c * y1 - nb.d) / y0), nb


# --------------------------------------------------------------------------
# the certificate


#: The certificate passes when |rho4| exceeds this many quadrature errors.
CERTIFICATE_MARGIN = 10.0


class PeriodConfig(NamedTuple):
    eps: float = 0.05
    tol: float = 1e-10
    curve1: HyperellipticCurve = BASE_CURVE_1
    curve2: HyperellipticCurve = BASE_CURVE_2


class Rho4Certificate(NamedTuple):
    value: complex
    quadrature_error: float
    table: tuple[tuple[str, complex], ...] = ()

    @property
    def passed(self) -> bool:
        return abs(self.value) > CERTIFICATE_MARGIN * self.quadrature_error


def rho4(config: PeriodConfig = PeriodConfig()) -> Rho4Certificate:
    """The combination  -(c1 G1 - a1 G2)(c2 D1 - a2 D2)  whose
    nonvanishing certifies the nonreduced structure: a..d from the first
    curve normalize the kernel side, the primed constants from the second
    curve feed the D quotients."""
    c1curve, c2curve, tol = config.curve1, config.curve2, config.tol

    nb1 = normalized_basis(c1curve, tol)
    kc = cauchy_kernel_coeffs(c1curve, tol, config.eps)
    G1, e1 = compute_G(c1curve, 1, config.eps, tol)
    G2, e2 = compute_G(c1curve, 2, config.eps, tol)
    (D1, D2), nb2 = compute_D(c2curve, tol)

    left = nb1.c * G1 - nb1.a * G2
    right = nb2.c * D1 - nb2.a * D2
    value = -left * right

    e_left = abs(nb1.c) * e1 + abs(nb1.a) * e2 + abs(left) * nb1.residual
    e_right = abs(right) * (nb2.residual + kc.residual)
    # rounding: left and right within 4 u of L and R, -left right within 11 u of L R
    L, R = abs(nb1.c * G1) + abs(nb1.a * G2), abs(nb2.c * D1) + abs(nb2.a * D2)
    err = abs(right) * e_left + abs(left) * e_right + 11 * UNIT_ROUNDOFF * L * R

    table = (
        ("a", nb1.a), ("b", nb1.b), ("c", nb1.c), ("d", nb1.d),
        ("a'", nb2.a), ("b'", nb2.b), ("c'", nb2.c), ("d'", nb2.d),
        ("h2", kc.h[2]), ("k2", kc.k[2]),
        ("G1", G1), ("G2", G2), ("D1", D1), ("D2", D2),
    )
    return Rho4Certificate(value, err, table)
