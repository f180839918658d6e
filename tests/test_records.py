"""The records keep their value semantics: validation and normalization at
construction, read-only fields, hashing by the field tuple, tuple order
for ``ModuliSpec``, ``Name(field=value, ...)`` reprs, per-instance memos on
``HalfEdgePairing``, and operators on the algebraic values that never fall
back to tuple concatenation or repetition."""

import copy
import pickle
from fractions import Fraction

import pytest

from torcycle import cli, ctp, excess, period, pipeline, selftest
from torcycle.algebra import TruncatedSeries
from torcycle.chern import ToroidalDivisorClass
from torcycle.ctp import HalfEdgePairing, MalformedPairingError, PairingVerdict
from torcycle.excess import ExcessDims
from torcycle.period import BASE_CURVE_1, HyperellipticCurve
from torcycle.tautring import Gen, ModuliSpec, make_gen

F = Fraction


def field_names(record) -> tuple[str, ...]:
    cls = type(record)
    return getattr(cls, "__match_args__", None) or cls.__slots__


#: a builder of one instance of every immutable record of the package
FROZEN_RECORDS = {
    "TruncatedSeries": lambda: TruncatedSeries((1, 2)),
    "ToroidalDivisorClass": lambda: ToroidalDivisorClass(F(5), F(-1)),
    "ModuliSpec": lambda: ModuliSpec(2, ("p",)),
    "Gen": lambda: make_gen((2,), legs=(("p", 0, 1),)),
    "Component": lambda: ctp.enumerate_components(4, max_edges=1)[0],
    "HalfEdgePairing": lambda: HalfEdgePairing(2, 2, 2, ((0, 0),), ((0, 1),)),
    "PairingVerdict": lambda: PairingVerdict(False, "path of length 1"),
    "IntersectionStratum": lambda: ctp.one_edge_intersections()[0],
    "ExcessDims": lambda: ExcessDims(2, 3),
    "LocalModel": lambda: excess.BUILTIN_MODELS["b3"],
    "HyperellipticCurve": lambda: BASE_CURVE_1,
    "EllipseContour": lambda: period.standard_contours(BASE_CURVE_1)["A1"],
    "NormalizedBasis": lambda: period.normalized_basis(BASE_CURVE_1),
    "KernelCoefficients": lambda: period.cauchy_kernel_coeffs(BASE_CURVE_1),
    "PeriodConfig": lambda: period.PeriodConfig(),
    "Rho4Certificate": lambda: period.rho4(),
    "LedgerEntry": lambda: pipeline.t_pullback_g4()[1].entries[0],
    "ContributionLedger": lambda: pipeline.t_pullback_g4()[1],
    "Genus5Report": lambda: pipeline.t_pullback_g5()[1],
    "Abar4Report": lambda: pipeline.t_pushforward_Abar4()[1],
    "CriterionResult": lambda: selftest.CriterionResult(1, "name", True, 0.25, "detail", 1.0),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_fields_read_only(name):
    record = FROZEN_RECORDS[name]()
    assert type(record).__name__ == name
    for field in field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_copy_and_pickle(name):
    record = FROZEN_RECORDS[name]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_run_config_read_only():
    # the parsed command-line configuration is read-only like every other
    # record: nothing assigns to it
    cfg = cli.RunConfig(machine=True)
    with pytest.raises(AttributeError):
        cfg.machine = False


@pytest.mark.parametrize("build, error, message", [
    (lambda: ModuliSpec(2, ("p", "p")), ValueError, "duplicate marking labels"),
    (lambda: ModuliSpec(0, ("b", "a")), ValueError, "unstable ambient (0, ('a', 'b'))"),
    (lambda: ModuliSpec(1, ("p",), "open"), ValueError, "unknown policy 'open'"),
    (lambda: HyperellipticCurve((1, 2, 3)), ValueError, "exactly six branch points"),
    (lambda: HyperellipticCurve((1, 1, 2, 3, 4, 5)), ValueError,
     "branch points must be strictly increasing"),
    (lambda: HalfEdgePairing(2, 2, 2, blue=((0, 2),)), MalformedPairingError,
     "half-edge index out of range"),
    (lambda: HalfEdgePairing(2, 2, 2, red=((0, 0), (0, 1))), MalformedPairingError,
     "vertex with two red edges"),
    (lambda: HalfEdgePairing(-5, 1, 1), MalformedPairingError,
     "genus, left and right must be >= 0"),
    (lambda: HalfEdgePairing(2, -1, 1), MalformedPairingError,
     "genus, left and right must be >= 0"),
    (lambda: HalfEdgePairing(2, 1, -1), MalformedPairingError,
     "genus, left and right must be >= 0"),
    (lambda: ExcessDims(0, 3), ValueError, "component dimensions must be >= 1"),
    (lambda: TruncatedSeries(()), ValueError,
     "series needs at least the constant coefficient"),
], ids=["duplicate", "unstable", "policy", "six-roots", "increasing", "range",
        "two-red", "negative-genus", "negative-left", "negative-right", "dims",
        "empty-series"])
def test_validation(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda: HyperellipticCurve((1, 2, 3, 4, 5, 6))._replace(roots=(3, 2, 1)), ValueError,
     "exactly six branch points"),
    (lambda: BASE_CURVE_1._replace(roots=(6, 5, 4, 3, 2, 1)), ValueError,
     "branch points must be strictly increasing"),
    (lambda: HyperellipticCurve._make([(1, 1, 2, 3, 4, 5)]), ValueError,
     "branch points must be strictly increasing"),
    (lambda: HalfEdgePairing(2, 2, 1)._replace(blue=((0, 0), (1, 0))), MalformedPairingError,
     "vertex with two blue edges"),
    (lambda: HalfEdgePairing._make((2, 2, 2, ((0, 2),), ())), MalformedPairingError,
     "half-edge index out of range"),
    (lambda: HalfEdgePairing(2, 1, 1)._replace(genus=-1), MalformedPairingError,
     "genus, left and right must be >= 0"),
    (lambda: HalfEdgePairing._make((2, 1, -1)), MalformedPairingError,
     "genus, left and right must be >= 0"),
    (lambda: ModuliSpec(2, ("b", "a"))._replace(markings=("x", "x")), ValueError,
     "duplicate marking labels"),
    (lambda: ModuliSpec._make((1, ("p",), "open")), ValueError, "unknown policy 'open'"),
    (lambda: ExcessDims(2, 3)._replace(d_A=0), ValueError, "component dimensions must be >= 1"),
    (lambda: ExcessDims._make((1, 0)), ValueError, "component dimensions must be >= 1"),
], ids=["curve-replace-count", "curve-replace-order", "curve-make", "pairing-replace",
        "pairing-make", "pairing-replace-genus", "pairing-make-right", "spec-replace",
        "spec-make", "dims-replace", "dims-make"])
def test_replace_and_make_validate(build, error, message):
    # _replace and _make build through the constructor, so they check too
    test_validation(build, error, message)


def test_replace_and_make_normalize():
    space = ModuliSpec(2, ("b", "a"))._replace(markings=("z", "y"))
    assert space.markings == ("y", "z") and space == ModuliSpec(2, ("y", "z"))
    assert ModuliSpec._make((2, ["q", 1, "p"])) == ModuliSpec(2, ("1", "p", "q"), "ct")
    curve = BASE_CURVE_1._replace(roots=[1, 2, 3, 4, 5, F(13, 2)])
    assert curve.roots == (1.0, 2.0, 3.0, 4.0, 5.0, 6.5)
    assert all(type(r) is float for r in curve.roots)
    assert type(HyperellipticCurve._make([range(6)])) is HyperellipticCurve
    pairing = HalfEdgePairing(2, 2, 2)._replace(red=((0, 1),))
    assert type(pairing) is HalfEdgePairing and pairing == HalfEdgePairing(2, 2, 2, (), ((0, 1),))
    assert ExcessDims._make([2, 3]) == ExcessDims(2, 3)


def test_normalization():
    space = ModuliSpec(genus=2, markings=["q", 1, "p"])
    assert space.markings == ("1", "p", "q") and space.policy == "ct"
    assert space == ModuliSpec(2, ("p", "q", "1"))
    curve = HyperellipticCurve([1, 2, 3, 4, 5, F(13, 2)])
    assert curve.roots == (1.0, 2.0, 3.0, 4.0, 5.0, 6.5)
    assert all(type(r) is float for r in curve.roots)
    series = TruncatedSeries((1, 0.5))
    assert series.coeffs == (F(1), F(1, 2))
    assert all(type(c) is Fraction for c in series.coeffs)


def test_hash_is_field_tuple_hash():
    gen = make_gen((1, 2), edges=((0, 1),), legs=(("p", 0, 1),))
    assert hash(gen) == hash((gen.genera, gen.edges, gen.legs, gen.kappa, gen.lam))
    assert gen == Gen(gen.genera, gen.edges, gen.legs, gen.kappa, gen.lam)
    space = ModuliSpec(3, ("x",), "stable")
    assert hash(space) == hash((3, ("x",), "stable"))
    series = TruncatedSeries((1, 2))
    assert hash(series) == hash(((F(1), F(2)),))
    assert hash(ToroidalDivisorClass(F(5), F(-1))) == hash((F(5), F(-1)))


def test_moduli_spec_order():
    ordered = [ModuliSpec(1, ("p",)), ModuliSpec(1, ("p", "q")), ModuliSpec(2, ()),
               ModuliSpec(2, (), "stable"), ModuliSpec(2, ("p",))]
    assert sorted(ordered) == ordered
    assert sorted(reversed(ordered)) == ordered
    assert ModuliSpec(2, ()) < ModuliSpec(2, (), "stable")


def test_reprs():
    assert repr(ModuliSpec(2, ("p",))) == "ModuliSpec(genus=2, markings=('p',), policy='ct')"
    assert repr(ExcessDims(1, 2)) == "ExcessDims(d_A=1, d_B=2)"
    assert repr(TruncatedSeries((1,))) == "TruncatedSeries(coeffs=(Fraction(1, 1),))"
    assert (repr(ToroidalDivisorClass(F(5), F(-1)))
            == "ToroidalDivisorClass(lambda1=Fraction(5, 1), boundary=Fraction(-1, 1))")
    assert repr(PairingVerdict(True)) == "PairingVerdict(ok=True, reason='')"


def test_pairing_memos_once_per_instance(monkeypatch):
    calls = {"check": 0, "completion": 0}
    check, complete = ctp.check_pairing, ctp.completion

    def counted_check(p):
        calls["check"] += 1
        return check(p)

    def counted_completion(p):
        calls["completion"] += 1
        return complete(p)

    monkeypatch.setattr(ctp, "check_pairing", counted_check)
    monkeypatch.setattr(ctp, "completion", counted_completion)
    p = HalfEdgePairing(2, 2, 2, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
    q = HalfEdgePairing(2, 2, 2, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
    for _ in range(3):
        assert ctp.pairing_equivalent(p, q)
    assert p._verdict is p._verdict and p._completion is p._completion
    # one verdict and one completion per instance, however often asked
    assert calls == {"check": 2, "completion": 2}


def test_verdict_truth():
    assert not PairingVerdict(False, "cycle of length 3")
    assert PairingVerdict(True)


def test_series_operators():
    series = TruncatedSeries((1, 2, 3))
    assert 2 * series == series * 2 == TruncatedSeries((2, 4, 6))
    with pytest.raises(TypeError):
        series + (1,)
    with pytest.raises(TypeError):
        len(series)
    assert series != (series.coeffs,)


def test_toroidal_class_operators():
    tdc = ToroidalDivisorClass(F(5), F(-1))
    assert -tdc == ToroidalDivisorClass(F(-5), F(1))
    with pytest.raises(TypeError):
        tdc + tdc
    with pytest.raises(TypeError):
        2 * tdc
