"""Numerical period integrals on genus-2 hyperelliptic curves and the
nonvanishing certificate for the second-order period expansion coefficient.

Geometry.  A curve Y^2 = prod (x - r_i) with six real increasing branch
points carries branch cuts [r0,r1], [r2,r3], [r4,r5] (where the sextic is
negative).  The homology basis:

* A1, A2: clockwise loops around the first and second cut;
* B1: a closed contour crossing the real axis inside cut 1 and inside cut
  3 (upper arc on the upper branch, return arc on the other branch);
* B2: the same between cut 2 and cut 3.

With these crossings B1 meets only A1 and B2 only A2, so the basis is
symplectic; the computed period matrix is symmetric with positive definite
imaginary part, which the tests assert rather than assume.

Branch tracking.  The reference value Yref(z) = prod principal-sqrt(z-r_i)
is continuous on each open half plane; analytic continuation along a path
only changes sign when the path crosses the real axis at a point with an
odd number of branch points to its right (exactly the cut criterion for
real branch points).  Contours are ellipses crossing the axis at two known
points, so the sheet bookkeeping is exact, not heuristic.  The "upper
branch" is fixed by Y(0) = +sqrt(f(0)) continued along paths in the closed
upper half plane, giving Y_up(z) = -Yref(z) there.

Quadrature.  Two independent deterministic routes, both by a nested
trapezoid rule, which converges exponentially for analytic periodic
integrands (Trefethen-Weideman, SIAM Rev. 56, 2014): on closed contours at
t = 2^-18 + k/n, an offset that keeps every node of every level up to
65536 nodes off the real-axis crossings; on branch-point segments at
theta = k pi/n with both ends, after x = m - h cos(theta) (nested
Gauss-Chebyshev-Lobatto, Waldvogel, BIT 2006).  There Y's two endpoint
roots are taken analytically as -i h sin(theta), and the integrand is
called with Y / (h sin(theta)), which absorbs dx and is finite at the
ends: every integrand in the module is g(z) / Y, homogeneous of degree -1
in Y, and must stay so.  Level 2n adds only the odd nodes, T_2n = (T_n +
M_n) / 2 with M_n the midpoint sum, so an integral converged at N nodes
builds and integrates N.  Integrands are called once per node with Python
numbers; the module needs only math and cmath (importing numpy cost every
process about 0.12 s and 10 MB), and every value returned is a Python
complex or float, so ``--machine`` output prints plain reprs.  Segment
decompositions of the cycle integrals:

    A1(cw):  integral = +2 int_{r0}^{r1} g/Y_up dx   (odd integrands)
    B1(ccw): integral = -2 [int over the f>0 gaps between the crossings]

The clearance check is exact: the squared distance from a real branch
point to an ellipse is a quadratic in cos(angle), minimized in closed form.

Error estimates come from node doubling; everything is bitwise
deterministic for fixed configuration.

Memoization.  Each curve's contours are built and checked once; the rows
(z, Y, weight) each level adds on a contour or segment once, shared by
every integrand on the path (the five A-period powers, the basis and G
integrands on a B-cycle); its A-periods of z^p dz/Y (p = 0, 1, -1, -2, -3)
once per (curve, tol); the kernel coefficients once per (curve, tol, eps),
and G_i once per (curve, i, eps, tol, rule), so ``rho4`` and a caller of
``compute_G`` share one B_i integral.  The memos are bounded LRU caches,
since a scan may visit any number of curves, and return immutable values
(a read-only mapping, tuples, immutable records), since every caller
shares them.  A failure (a clearance check, an invalid argument) is not
cached: it re-raises.
"""

from __future__ import annotations

import cmath
import functools
import math
from types import MappingProxyType
from typing import NamedTuple

from . import validated_make


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the tolerance."""


class PathClearanceError(ValueError):
    """A path runs too close to a branch point."""


#: minimum allowed distance between any path point and a branch point
BRANCH_CLEARANCE = 1e-3


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
        out = 1 + 0j
        for r in self.roots:
            out *= cmath.sqrt(z - r)
        return out

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
    left_out = r[0] - (r[1] - r[0]) / 2
    m12 = (r[1] + r[2]) / 2
    m34 = (r[3] + r[4]) / 2
    c1 = (r[0] + r[1]) / 2
    c2 = (r[2] + r[3]) / 2
    c3 = (r[4] + r[5]) / 2
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
    others = [r for r in curve.roots if r not in path]
    for k in range(1, n, 2) if odd else range(n + 1):
        x = m - h * math.cos(k * math.pi / n)
        # Y_up = -sqrt(x - a) sqrt(x - b) prod(others) = -i h sin(theta) prod(others)
        y = -1j
        for r in others:
            y *= cmath.sqrt(x - r)
        rows.append((x, y, math.pi / n / (2 if k in (0, n) else 1)))
    return tuple(rows)


def _doubling(fn, curve, path, what, tol, n0, nmax):
    """(value, error) of the nested trapezoid rule on ``path``: start at n0
    nodes and double, integrating only the rows each level adds (a running
    sum, T_2n = T_n / 2 + those rows), until two levels agree within tol
    relative to max(|value|, 1), failing past nmax nodes."""
    prev = sum(fn(z, y) * w for z, y, w in _level_rows(curve, path, n0, False))
    n = 2 * n0
    while n <= nmax:
        cur = prev / 2 + sum(fn(z, y) * w for z, y, w in _level_rows(curve, path, n, True))
        err = abs(cur - prev)
        if err <= tol * max(abs(cur), 1.0):
            return cur, err
        prev = cur
        n *= 2
    raise QuadratureError(f"{what}: no convergence at {nmax} nodes")


#: (first, most) nodes of the nested rule on a contour and on a segment
CONTOUR_NODES = (64, 65536)
SEGMENT_NODES = (48, 3072)


def contour_integrate(fn, curve, contour, tol=1e-10):
    """Trapezoid integral of fn(z, Y) dz over the closed contour, doubling
    nodes until two refinements agree within tol (relative).  fn is called
    once per node with Python numbers z and Y."""
    return _doubling(fn, curve, contour, f"contour {contour.label}", tol, *CONTOUR_NODES)


def segment_integrate(fn, curve, a, b, tol=1e-10):
    """Integral of fn(x, Y_up(x)) dx over the root-to-root segment [a, b]
    by nested Gauss-Chebyshev-Lobatto rules (the trapezoid rule in theta
    with both ends), doubling the order like ``contour_integrate`` and
    reading the same nested rows.  fn must be g(x) / Y (see the module
    notes)."""
    return _doubling(fn, curve, (a, b), f"segment [{a},{b}]", tol, *SEGMENT_NODES)


# --------------------------------------------------------------------------
# periods and the normalized basis


def _cycle_integral(curve, name, fn, tol):
    """All cycles are traversed clockwise (the ellipses are parameterized
    counterclockwise, hence the global sign): the A-loops run clockwise
    around their cuts and the upper arcs of the B-contours run from the
    lower cut to cut 3.  This orientation renders tau symmetric with
    positive definite imaginary part."""
    val, err = contour_integrate(fn, curve, standard_contours(curve)[name], tol)
    return -val, err


def _power_integrand(p):
    """z^p / Y.  A negative power is evaluated as 1 / (z^-p Y): z**p / y
    rounds differently, and the certificate's last digits would move."""
    if p >= 0:
        return lambda z, y: z**p / y
    return lambda z, y: 1.0 / (z**-p * y)


@functools.lru_cache(maxsize=64)
def _a_periods(curve, tol, powers):
    """M[i][j] = integral over A_i of z^p dz/Y for p = powers[j], as tuples."""
    return tuple(
        tuple(_cycle_integral(curve, name, _power_integrand(p), tol)[0] for p in powers)
        for name in ("A1", "A2")
    )


def _solve2(M, rhs):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if abs(det) < 1e-14:
        raise ZeroDivisionError("singular A-period matrix")
    x0 = (rhs[0] * M[1][1] - rhs[1] * M[0][1]) / det
    x1 = (M[0][0] * rhs[1] - M[1][0] * rhs[0]) / det
    return x0, x1


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
    M = _a_periods(curve, tol, (0, 1))
    a, b = _solve2(M, (1.0, 0.0))
    c, d = _solve2(M, (0.0, 1.0))
    # duality residual, re-evaluated
    res = 0.0
    for i in range(2):
        for (al, be, target) in ((a, b, 1.0 if i == 0 else 0.0),
                                 (c, d, 1.0 if i == 1 else 0.0)):
            val = al * M[i][0] + be * M[i][1]
            res = max(res, abs(val - target))
    basis = NormalizedBasis(a, b, c, d, res)
    if abs(basis.det()) < 1e-12:
        raise ZeroDivisionError("degenerate normalized basis")
    return basis


def period_matrix(curve: HyperellipticCurve, tol=1e-10):
    """tau[i][j] = integral over B_i of v_j, A-normalized."""
    nb = normalized_basis(curve, tol)
    tau = [[0j, 0j], [0j, 0j]]
    err = 0.0
    for i, name in enumerate(("B1", "B2")):
        for j, (al, be) in enumerate(((nb.a, nb.b), (nb.c, nb.d))):
            fn = (lambda A, B: (lambda z, y: (A + B * z) / y))(al, be)
            v, e = _cycle_integral(curve, name, fn, tol)
            tau[i][j] = v
            err = max(err, e)
    return tau, err


# segment decompositions (the independent quadrature route) -----------------


#: Root-index pairs (a, b) of the segments [r_a, r_b] of each cycle: its
#: cut for an A-cycle; for a B-cycle the f > 0 gaps between its axis
#: crossings (the cut portions cancel between the two arcs, the gaps double).
SEGMENT_ROOTS = {"A1": ((0, 1),), "A2": ((2, 3),), "B1": ((1, 2), (3, 4)), "B2": ((3, 4),)}


def segment_period(curve, name, fn, tol=1e-10):
    """Clockwise period of an odd integrand over cycle ``name``: twice the
    sum of its segment integrals, added in table order."""
    r = curve.roots
    vals, errs = zip(*(segment_integrate(fn, curve, r[a], r[b], tol)
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

    The kernel is (y1 + y) dz / (2 (z - z1) y) + h(z1) dz/y + k(z1) z dz/y;
    the pure 1/(2 (z - z1)) part has zero A-periods (the contours do not
    enclose the base point), so each order is a 2x2 solve against the
    A-period matrix with right side from the expanded y1/(2(z-z1)) term.
    That assumption is checked: the A1 loop, the leftmost contour, must
    cross the axis at least ``BRANCH_CLEARANCE`` right of 0, or
    PathClearanceError is raised.
    """
    left = standard_contours(curve)["A1"].left
    if not left >= BRANCH_CLEARANCE:
        raise PathClearanceError(
            f"A1 loop crosses the axis at {left}, not {BRANCH_CLEARANCE} right of the base point")
    alpha = (
        y_taylor_by_circle(curve, eps) if eps is not None else curve.y_taylor0()
    )
    M = _a_periods(curve, tol, (0, 1))
    # inverse power A-periods: P[i][k - 1] = integral over A_i of z^-k dz/Y
    P = _a_periods(curve, tol, (-1, -2, -3))
    hs = []
    ks = []
    residual = 0.0
    for order in range(3):
        rhs = []
        for i in range(2):
            acc = 0j
            for j in range(order + 1):
                acc += alpha[j] * P[i][order - j]
            rhs.append(-acc / 2)
        h, k = _solve2(M, rhs)
        hs.append(h)
        ks.append(k)
        for i in range(2):
            residual = max(residual, abs(h * M[i][0] + k * M[i][1] - rhs[i]))
    return KernelCoefficients(tuple(hs), tuple(ks), alpha, residual)


def g_integrand(kc: KernelCoefficients):
    """Outer integrand of the double integral after the inner residue: the
    z1^2 coefficient of the kernel, odd part (the even 1/(2 z^3) dz piece
    integrates to zero over cycles that do not enclose the base point)."""
    a0, a1, a2 = kc.alpha
    h2, k2 = kc.h[2], kc.k[2]

    def fn(z, y):
        return (a2 / z + a1 / z**2 + a0 / z**3) / (2 * y) + (h2 + k2 * z) / y

    return fn


def compute_G(curve: HyperellipticCurve, i: int, eps: float | None = 0.05,
              tol: float = 1e-10, rule: str = "contour"):
    """G_i: the B_i integral of 2 pi i times the z1^2 coefficient of the
    kernel (inner circle radius ``eps``, or the exact Y-Taylor data when
    None).  ``rule`` picks the quadrature route."""
    if i not in (1, 2):
        raise ValueError("cycle index is 1 or 2")
    if rule not in ("contour", "segments"):
        raise ValueError(f"unknown rule {rule!r}")
    return _G(curve, i, eps, tol, rule)


@functools.lru_cache(maxsize=64)
def _G(curve, i, eps, tol, rule):
    """compute_G on validated arguments, memoized on all five of them."""
    fn = g_integrand(cauchy_kernel_coeffs(curve, tol, eps))
    integrate = _cycle_integral if rule == "contour" else segment_period
    val, err = integrate(curve, f"B{i}", fn, tol)
    tau_factor = 2j * math.pi
    return tau_factor * val, abs(tau_factor) * err


def compute_D(curve2: HyperellipticCurve, tol=1e-10):
    """The two constants from the second-order term of the glued
    differentials: (a Y'(0) - b)/Y(0) and (c Y'(0) - d)/Y(0) with the
    normalized-basis constants of the second curve and its upper branch."""
    nb = normalized_basis(curve2, tol)
    y0, y1, _ = curve2.y_taylor0()
    if abs(y0) < 1e-12:
        raise ZeroDivisionError("Y(0) below the numerical floor")
    d1 = (nb.a * y1 - nb.b) / y0
    d2 = (nb.c * y1 - nb.d) / y0
    return (d1, d2), nb


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
    c1curve, c2curve = config.curve1, config.curve2
    tol = config.tol

    nb1 = normalized_basis(c1curve, tol)
    kc = cauchy_kernel_coeffs(c1curve, tol, config.eps)
    G1, e1 = compute_G(c1curve, 1, config.eps, tol)
    G2, e2 = compute_G(c1curve, 2, config.eps, tol)
    (D1, D2), nb2 = compute_D(c2curve, tol)

    left = nb1.c * G1 - nb1.a * G2
    right = nb2.c * D1 - nb2.a * D2
    value = -left * right

    e_left = abs(nb1.c) * e1 + abs(nb1.a) * e2 + abs(left) * nb1.residual
    e_right = abs(right) * (nb2.residual + kc.residual + 1e-15)
    err = abs(right) * e_left + abs(left) * e_right + 1e-15

    table = (
        ("a", nb1.a), ("b", nb1.b), ("c", nb1.c), ("d", nb1.d),
        ("a'", nb2.a), ("b'", nb2.b), ("c'", nb2.c), ("d'", nb2.d),
        ("h2", kc.h[2]), ("k2", kc.k[2]),
        ("G1", G1), ("G2", G2), ("D1", D1), ("D2", D2),
    )
    return Rho4Certificate(value, err, table)
