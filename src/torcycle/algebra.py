"""Exact rational arithmetic, sparse linear combinations, Bernoulli
polynomials, Newton-identity conversions between Chern characters and Chern
classes, and the human renderer of classes.

Rationals are exact: an ``int`` when integral, a reduced
:class:`fractions.Fraction` otherwise (:func:`_rational`).  They serialize
as ``p/q`` (or ``p`` when integral), which is what ``str`` already produces.

:func:`render_sum` is the one human rendering of a sum of monomials, and
:func:`power` of one generator power; every pretty-printer of classes
(``cli.pretty_class``, ``chern.InteriorClass``) goes through them.

Newton's identities (:func:`chern_from_ch`) are the one route from Chern
roots to Chern classes: ``chern``, ``pipeline`` and the local models of
``excess`` all hand them characters, ch_m = p_m/m! of the roots' power sums.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Hashable, Iterable, Mapping

Rational = int | Fraction

#: Largest Bernoulli index computed by default.  Exceeding it is an error,
#: never a silent truncation.
BERNOULLI_CAP = 32


class DegreeCapError(ValueError):
    """A degree/index exceeded its configured cap."""


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


def _rational(x) -> Rational:
    """x as an exact rational: an ``int`` when integral, else a Fraction."""
    x = x if type(x) is int else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _accumulate(
    parts: Iterable[tuple[Rational, Mapping[Hashable, Rational]]],
) -> dict:
    """Sum of ``scale * terms`` over the ``(scale, terms)`` parts, collected
    in one dict; keys whose coefficients cancel are dropped.  Every sum is
    exact: an ``int`` when integral, a Fraction otherwise.  This is the one
    place where sparse coefficients are added and scaled."""
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
    return {key: c.numerator if c.denominator == 1 else c for key, c in acc.items() if c}


class _LinearCombination:
    """Sparse exact linear combination ``terms = {key: coefficient}`` (an ``int``
    when integral, a Fraction otherwise) on one ambient: the kernel shared by
    ``tautring.TautClass``, ``tautring.ProductClass`` and ``chern.InteriorClass``.

    It supplies sum, difference, scalar multiple (``(-1) * x`` negates),
    equality and hash, all through :func:`_accumulate`.  A subclass stores
    ``terms`` (admitted keys, no zero coefficient), reports its ambient
    through ``_ambient`` (``None`` by default), rebuilds an instance from
    such terms with ``_carry(ambient, terms)`` and multiplies two instances
    in ``_times``.  Sums of many classes belong in one ``_accumulate`` call
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

    def __rmul__(self, scalar):
        parts = ((_rational(scalar), self.terms),)
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


def render_sum(terms: Iterable[tuple[Rational, str]]) -> str:
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
# Chern characters and Chern classes


def chern_from_ch(ch, k: int) -> list:
    """Chern classes c_1..c_k from Chern characters via Newton's identities.

    ``ch`` is the sequence ch_1..ch_k; entry m is homogeneous of degree m in
    any commutative Q-algebra (only ``+``, ``*`` and multiplication by an
    int or a Fraction are used).  For k=3 this reproduces the closed form
    c_3 = ch_1^3/6 - ch_1 ch_2 + 2 ch_3.
    """
    entries = tuple(ch)
    if len(entries) < k:
        raise DegreeCapError(f"need ch_1..ch_{k}, got {len(entries)} entries")
    # power sums p_m = m! ch_m
    p = [None] + [factorial(m) * entries[m - 1] for m in range(1, k + 1)]
    e: list = [None]
    for m in range(1, k + 1):
        acc = p[m]
        sign = -1
        for i in range(1, m):
            acc = acc + sign * (e[i] * p[m - i])
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
        acc = (-1) ** (m - 1) * m * e[m]
        sign = 1
        for i in range(1, m):
            acc = acc + sign * (e[i] * p[m - i])
            sign = -sign
        p.append(acc)
    return [Fraction(1, factorial(m)) * p[m] for m in range(1, k + 1)]
