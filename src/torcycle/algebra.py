"""Exact rational arithmetic, sparse linear combinations, truncated power
series, Bernoulli polynomials, Newton-identity conversions between Chern
characters and Chern classes, and the human renderer of classes.

Rationals are plain :class:`fractions.Fraction` values: always reduced,
positive denominator, exact arithmetic.  They serialize as ``p/q`` (or ``p``
when the denominator is 1), which is what ``str`` already produces.

:func:`render_sum` is the one human rendering of a sum of monomials, and
:func:`power` of one generator power; every pretty-printer of classes
(``cli.pretty_class``, ``chern.InteriorClass``) goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Hashable, Iterable, Mapping, Sequence

Rational = Fraction

#: Largest Bernoulli index computed by default.  Exceeding it is an error,
#: never a silent truncation.
BERNOULLI_CAP = 32


class DegreeCapError(ValueError):
    """A degree/index exceeded its configured cap."""


class CapMismatchError(ValueError):
    """Two truncated series with different caps were combined."""


class NonInvertibleError(ZeroDivisionError):
    """Multiplicative inverse of a series with zero constant term."""


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """m-th Bernoulli number with the convention B_1 = -1/2."""
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m > BERNOULLI_CAP:
        raise DegreeCapError(f"Bernoulli index {m} exceeds cap {BERNOULLI_CAP}")
    if m == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


def bernoulli_polynomial(m: int, x: Rational) -> Fraction:
    """Exact value of the Bernoulli polynomial B_m(x), with B_1(x) = x - 1/2.

    This convention makes B_{m+1}(2)/(m+1)! the kappa-class coefficient in
    the log-cotangent Chern character (13/12 at m=1, 1/2 at m=2).
    """
    if m < 0:
        raise ValueError("Bernoulli degree must be non-negative")
    if m > BERNOULLI_CAP:
        raise DegreeCapError(f"Bernoulli degree {m} exceeds cap {BERNOULLI_CAP}")
    x = Fraction(x)
    return sum(
        (comb(m, k) * bernoulli_number(k) * x ** (m - k) for k in range(m + 1)),
        Fraction(0),
    )


# --------------------------------------------------------------------------
# sparse linear combinations


def _accumulate(
    parts: Iterable[tuple[Fraction | int, Mapping[Hashable, Fraction]]],
) -> dict:
    """Sum of ``scale * terms`` over the ``(scale, terms)`` parts, collected
    in one dict; keys whose coefficients cancel are dropped.  Coefficients
    are Fractions and scales Fractions or ints, so every sum is exact.  This
    is the one place where sparse coefficients are added and scaled."""
    acc: dict = {}
    for scale, terms in parts:
        unit = scale == 1
        for key, c in terms.items():
            if not unit:
                c = c * scale
            if key in acc:
                acc[key] += c
            else:
                acc[key] = c
    return {key: c for key, c in acc.items() if c}


class _LinearCombination:
    """Sparse Fraction-linear combination ``terms = {key: coefficient}`` on
    one ambient: the kernel shared by ``tautring.TautClass``,
    ``tautring.ProductClass`` and ``chern.InteriorClass``.

    It supplies sum, difference, negation, scalar multiple, equality and
    hash, all through :func:`_accumulate`.  A subclass stores ``terms``
    (admitted keys, no zero coefficient), reports its ambient through
    ``_ambient`` (``None`` by default), rebuilds an instance from such terms
    with ``_carry(ambient, terms)`` and multiplies two instances in
    ``_times``.  Sums of many classes belong in one ``_accumulate`` call
    followed by one ``_carry``, not in a chain of ``+``.
    """

    __slots__ = ()
    _MISMATCH = "ambient mismatch"

    def _ambient(self):
        return None

    @classmethod
    def _carry(cls, ambient, terms: dict):
        self = cls.__new__(cls)
        self.terms = terms
        return self

    def _common(self, other):
        ambient = self._ambient()
        if other._ambient() != ambient:
            raise ValueError(self._MISMATCH)
        return ambient

    def __add__(self, other):
        parts = ((1, self.terms), (1, other.terms))
        return self._carry(self._common(other), _accumulate(parts))

    def __sub__(self, other):
        parts = ((1, self.terms), (-1, other.terms))
        return self._carry(self._common(other), _accumulate(parts))

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        parts = ((Fraction(scalar), self.terms),)
        return self._carry(self._ambient(), _accumulate(parts))

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._times(other)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self._ambient() == other._ambient()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._ambient(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms


# --------------------------------------------------------------------------
# human rendering


def power(name: str, e: int) -> str:
    """``name^e``, or plain ``name`` when e is 1."""
    return name + (f"^{e}" if e > 1 else "")


def render_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Human rendering of a sum of ``(coefficient, monomial)`` terms, in the
    order given: an empty monomial prints as its coefficient, a coefficient
    of 1 or -1 is elided, and ``+ -`` folds to ``- ``.  The empty sum is
    ``0``."""
    parts = []
    for c, mon in terms:
        if not mon:
            parts.append(str(c))
        elif c == 1:
            parts.append(mon)
        elif c == -1:
            parts.append(f"-{mon}")
        else:
            parts.append(f"{c}*{mon}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# --------------------------------------------------------------------------
# truncated power series


class FrozenValue:
    """Immutable algebraic value: read-only slots, equal and hashed by the
    tuple of its fields.  No tuple, so ``x + y`` or ``2 * x`` reaches the
    class's own operators or raises ``TypeError``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through setattr
        return type(self), self._values()

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class TruncatedSeries(FrozenValue):
    """Univariate power series over Fraction, truncated at a fixed degree.

    ``coeffs[i]`` is the coefficient of H^i; ``len(coeffs) == cap + 1``.
    Operations never read beyond the cap.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_list(cls, values: Sequence, cap: int) -> "TruncatedSeries":
        vals = [Fraction(v) for v in values[: cap + 1]]
        vals += [Fraction(0)] * (cap + 1 - len(vals))
        return cls(tuple(vals))

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls.from_list([1], cap)

    def _check(self, other: "TruncatedSeries"):
        if self.cap != other.cap:
            raise CapMismatchError(f"cap mismatch: {self.cap} != {other.cap}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            n = self.cap
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(tuple(out))
        return TruncatedSeries(tuple(Fraction(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Series inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NonInvertibleError("constant term is zero")
        n = self.cap
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / c0
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -acc / c0
        return TruncatedSeries(tuple(out))

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.inverse() ** (-n)
        out = TruncatedSeries.one(self.cap)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def coefficient(self, k: int) -> Fraction:
        if k > self.cap:
            raise DegreeCapError(f"coefficient {k} beyond cap {self.cap}")
        return self.coeffs[k]


def line_bundle_series(degrees: Sequence[int], cap: int) -> TruncatedSeries:
    """Total Chern series prod_i (1 + d_i H) of a sum of line bundles."""
    out = TruncatedSeries.one(cap)
    for d in degrees:
        out = out * TruncatedSeries.from_list([1, d], cap)
    return out


def chern_from_ch(ch, k: int) -> list:
    """Chern classes c_1..c_k from Chern characters via Newton's identities.

    ``ch`` is the sequence ch_1..ch_k; entry m is homogeneous of degree m in
    any commutative Q-algebra (only ``+``, ``*`` and multiplication by
    Fraction are used).  For k=3 this reproduces the closed form
    c_3 = ch_1^3/6 - ch_1 ch_2 + 2 ch_3.
    """
    entries = tuple(ch)
    if len(entries) < k:
        raise DegreeCapError(f"need ch_1..ch_{k}, got {len(entries)} entries")
    # power sums p_m = m! ch_m
    p = [None] + [Fraction(factorial(m)) * entries[m - 1] for m in range(1, k + 1)]
    e: list = [None]
    for m in range(1, k + 1):
        acc = p[m]
        sign = -1
        for i in range(1, m):
            acc = acc + Fraction(sign) * (e[i] * p[m - i])
            sign = -sign
        e.append(Fraction((-1) ** (m - 1), m) * acc)
    return e[1:]


def ch_from_chern(c, k: int) -> list:
    """Inverse of :func:`chern_from_ch`: ch_1..ch_k from c_1..c_k."""
    cs = tuple(c)
    if len(cs) < k:
        raise DegreeCapError(f"need c_1..c_{k}, got {len(cs)} entries")
    e = [None] + list(cs[:k])
    p: list = [None]
    for m in range(1, k + 1):
        acc = Fraction((-1) ** (m - 1) * m) * e[m]
        sign = 1
        for i in range(1, m):
            acc = acc + Fraction(sign) * (e[i] * p[m - i])
            sign = -sign
        p.append(acc)
    return [Fraction(1, factorial(m)) * p[m] for m in range(1, k + 1)]
