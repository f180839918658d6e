"""torcycle: exact and numerical intersection theory on moduli of curves.

The package computes divisor-level Torelli cycle classes in genus 4 and 5,
Chern characters of moduli tangent bundles, excess-intersection
multiplicities, the combinatorial stratification of the Torelli self-fiber
product, and a numerical nonvanishing certificate built from genus-2 period
integrals.

All symbolic computations are exact over the rationals.  The only floating
point lives in :mod:`torcycle.period`.
"""

__version__ = "0.1.0"

#: ``_make`` of the records that validate in ``__new__``; ``_replace`` calls it.
validated_make = classmethod(lambda cls, fields: cls(*fields))
