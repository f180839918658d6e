"""Excess-intersection multiplicity for two component varieties meeting in a
point, the projective-space local-model oracle that certifies it, the
combinatorial identity used in its derivation, and the fixed residual
intersection model that pins the +1 coefficients of the nonreduced loci.

Both models read Chern classes of virtual split bundles
sum O(a_i) - sum O(b_j) on projective space, through Newton's identities
(``algebra.chern_from_ch``) on the characters
ch_m = (sum a_i^m - sum b_j^m)/m! in powers of the hyperplane class H.  The
oracle takes c_k of the quotient N/N_sub of a local model; the residual
model splits c_3(O(2)^3) on P^3 into a divisor part, read as
c_2(O(2)^3 - O(1)), and a residual point.  Neither shares code with
:func:`multiplicity`.

The multiplicity m(d_A, d_B) corrects the intersection class X.V when the
fiber product has two components A, B of dimensions d_A, d_B meeting
transversely at a point.  It depends only on those dimensions.

Note on the summation range of the combinatorial identity
sum_j C(d,j) C(j,k) = (2^(d-k)-1) C(d,k): the effective range is j = k..d-1
(the summand vanishes below k), which is the range that makes the identity
true; :func:`binomial_identity_check` verifies it exhaustively.
"""

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from . import validated_make
from .algebra import chern_from_ch


class _ExcessDimsFields(NamedTuple):
    d_A: int
    d_B: int


class ExcessDims(_ExcessDimsFields):
    """Dimensions of the two components meeting at the point."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, d_A: int, d_B: int):
        if d_A < 1 or d_B < 1:
            raise ValueError("component dimensions must be >= 1")
        return super().__new__(cls, d_A, d_B)

    @property
    def d(self) -> int:
        return self.d_A + self.d_B


class LocalModel(NamedTuple):
    """Split-bundle local model on projective space.

    ``bundle`` lists line-bundle degrees of the rank-n bundle whose section
    cuts out the union A u B inside P^ambient; ``sub_a`` / ``sub_b`` list the
    degrees of the normal bundles of A resp. B.
    """

    ambient: int
    bundle: tuple[int, ...]
    sub_a: tuple[int, ...]
    sub_b: tuple[int, ...]
    dims: ExcessDims
    name: str = ""

    def top_degree(self) -> int:
        """deg c_n(bundle) with n = ambient dimension."""
        if len(self.bundle) != self.ambient:
            raise ValueError("top class needs rank == ambient dimension")
        out = 1
        for d in self.bundle:
            out *= d
        return out


def multiplicity(dims: ExcessDims) -> int:
    """Exact multiplicity m(d_A, d_B) of the point of intersection."""
    da, db, d = dims.d_A, dims.d_B, dims.d
    total = 0
    for k in range(1, d):
        bracket = comb(k - 1, da - 1) * (-1) ** da + comb(k - 1, db - 1) * (-1) ** db
        total += (-1) ** (k + 1) * (2 ** (d - k) - 1) * comb(d, k) * bracket
    return total + 2**d - 2


def multiplicity_shifted(d_a: int, d_b: int, k: int) -> int:
    """m after cutting both components down by a k-dimensional intersection
    (k = 0 gives m itself)."""
    ExcessDims(d_a, d_b)  # the unshifted dimensions must be valid too
    if k < 0:
        raise ValueError(f"shift {k} is negative")
    if d_a - k < 1 or d_b - k < 1:
        raise ValueError(f"shift {k} makes a component dimension non-positive")
    return multiplicity(ExcessDims(d_a - k, d_b - k))


def _split_chern(plus, minus, k: int) -> Fraction:
    """c_k of the virtual bundle sum O(a) - sum O(b) over a in ``plus`` and
    b in ``minus`` on projective space, as a multiple of H^k."""
    if k < 0:
        raise ValueError(f"degree {k} is negative")
    if k == 0:
        return Fraction(1)
    ch = [Fraction(sum(a**m for a in plus) - sum(b**m for b in minus), factorial(m))
          for m in range(1, k + 1)]
    return chern_from_ch(ch, k)[-1]


def chern_quotient_degree(model: LocalModel, sub: str, k: int) -> Fraction:
    """Degree of c_k(N/N_sub) on the model: c_k of the virtual bundle
    N - N_sub, whose total Chern class is prod(1+a_i H)/prod(1+b_j H);
    H^ambient is the point class."""
    if k > model.ambient:
        raise ValueError("degree beyond the ambient dimension")
    degrees = {"A": model.sub_a, "B": model.sub_b}[sub]
    return _split_chern(model.bundle, degrees, k)


def oracle_multiplicity(model: LocalModel) -> int:
    """Multiplicity read off the local model: top class minus the two
    canonical quotient-Chern contributions."""
    dims = model.dims
    total = Fraction(model.top_degree())
    total -= chern_quotient_degree(model, "A", dims.d_A)
    total -= chern_quotient_degree(model, "B", dims.d_B)
    if total.denominator != 1:
        raise ValueError(f"non-integral oracle value {total}")
    return int(total)


#: The three shipped local models: two P^3's in P^6, a plane and a line in
#: P^3, and two lines in P^2.
BUILTIN_MODELS = {
    "b2": LocalModel(6, (2,) * 6, (1, 1, 1), (1, 1, 1), ExcessDims(3, 3), "b2"),
    "b3": LocalModel(3, (0, 2, 2), (1,), (1, 1), ExcessDims(2, 1), "b3"),
    "b4": LocalModel(2, (2, 0), (1,), (1,), ExcessDims(1, 1), "b4"),
}


def binomial_identity_check(d: int, k: int) -> bool:
    """sum_{j=k}^{d-1} C(d,j) C(j,k) == (2^(d-k)-1) C(d,k), checked exactly."""
    if not 0 <= k <= d - 1:
        raise ValueError("need 0 <= k <= d-1")
    lhs = sum(comb(d, j) * comb(j, k) for j in range(k, d))
    return lhs == (2 ** (d - k) - 1) * comb(d, k)


def verify_residual_model() -> tuple[int, Fraction, Fraction]:
    """Residual-intersection bookkeeping on the fixed model: a section of
    O(2)^3 on P^3 cutting V(xz, yz, z^2), with Cartier divisor D = V(z) and
    residual scheme the point R = V(x, y, z).

    Returns (total, divisor_part, residual_part) with total = deg c_3 = 8,
    the divisor contribution 7, and the residual point contribution 1.  The
    residual part certifies the +1 multiplicities of the two nonreduced loci
    in the genus-4 fiber product.
    """
    bundle = (2, 2, 2)
    total = _split_chern(bundle, (), 3)

    # divisor part: {c(E) . s(D, P^3)}_0 with s(D, P^3) = H/(1+H), and
    # c(E) H/(1+H) = H c(E - O(D)): the H^2 coefficient of c(E - O(1))
    divisor_part = _split_chern(bundle, (1,), 2)

    # residual part: {c(E) c(O(D))^{-1} . [R]}_0 on the point R
    residual_part = _split_chern(bundle, (1,), 0)

    if total.denominator != 1:
        raise ValueError("non-integral total")
    total_int = int(total)
    if total_int != divisor_part + residual_part:
        raise ArithmeticError(
            f"residual decomposition broke: {total_int} != {divisor_part} + {residual_part}"
        )
    return total_int, divisor_part, residual_part
