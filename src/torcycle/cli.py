"""Command-line frontend.

Subcommands: chern, taut, excess, ctp, period, torelli, constants,
selftest.  ``--machine`` switches to line-oriented ``key<TAB>value``
records; the human mode pretty-prints classes.  Exit status: 0 on success,
1 on a computation mismatch, a failed certificate or a quadrature that
does not converge (a one-line message), 2 on usage errors, 3
when the request needs a shape outside the implemented calculus
(``UnsupportedOperation``; a one-line message naming the shape goes to
stderr).  Configuration is flags-only for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NamedTuple

from . import chern, ctp, excess, period, pipeline
from .algebra import power, render_sum
from .tautring import (
    Gen,
    ModuliSpec,
    TautClass,
    UnsupportedOperation,
    canonicalize,
    check_stability,
    gen_to_string,
    kappa,
    kappa1_expand,
    parse_gen,
)


class RunConfig(NamedTuple):
    machine: bool = False
    explain: bool = False


def _emit(cfg: RunConfig, key: str, value):
    if cfg.machine:
        print(f"{key}\t{value}")
    else:
        print(f"{key} = {value}")


# --------------------------------------------------------------------------
# pretty printing


def _name_gen(g: Gen) -> str:
    """Human name of a basis term; the empty string for the unit."""

    def kappa_lambda(v):
        return ([power(f"kappa{i}", e) for (i, e) in g.kappa[v]]
                + [power(f"lambda{i}", e) for (i, e) in g.lam[v]])

    if g.is_trivial_graph():
        parts = kappa_lambda(0) + [power(f"psi_{lab}", e) for (lab, _, e) in g.legs if e]
        return "*".join(parts)
    if len(g.edges) == 1:
        (a, b, av, aw) = g.edges[0]

        def side(v, halfpsi):
            bits = kappa_lambda(v)
            for (lab, lv, e) in g.legs:
                if lv == v:
                    bits.append(f"psi_{lab}^{e}" if e else lab)
            if halfpsi:
                bits.append(f"psi^{halfpsi}")
            body = "*".join(bits)
            return f"{g.genera[v]}" + (f"[{body}]" if body else "")

        if a == b:
            dec = []
            if av:
                dec.append(f"psi^{av}")
            if aw:
                dec.append(f"psibar^{aw}")
            body = "*".join(dec)
            return f"gen_irr({side(a, 0)})" + (f"[{body}]" if body else "")
        return f"gen({side(a, av)}|{side(b, aw)})"
    return "[" + gen_to_string(g) + "]"


def pretty_class(c: TautClass) -> str:
    terms = sorted(c.terms, reverse=True)
    return render_sum((c.terms[g], _name_gen(g)) for g in terms)


def _print_class(cfg: RunConfig, key: str, c: TautClass):
    if cfg.machine:
        for g in sorted(c.terms, key=lambda g: gen_to_string(g)):
            print(f"{key}\t{c.terms[g]}\t{gen_to_string(g)}")
        if c.is_zero():
            print(f"{key}\t0\t-")
    else:
        print(f"{key} = {pretty_class(c)}")


# --------------------------------------------------------------------------
# subcommands


def _cmd_chern(args, cfg: RunConfig) -> int:
    if args.space == "ag":
        raw = chern.ch_tangent_Ag(args.g, args.deg)
        red = chern.ch_tangent_Ag(args.g, args.deg, reduced=True)
        _emit(cfg, f"ch{args.deg}(T, abelian, raw)", raw)
        _emit(cfg, f"ch{args.deg}(T, abelian, reduced)", red)
        return 0
    policy = "stable" if args.space == "mbar" else "ct"
    space = ModuliSpec(args.g, tuple(f"m{i}" for i in range(args.n)), policy)
    if args.what == "ch":
        _print_class(cfg, f"ch{args.deg}(T)", chern.ch_tangent(space, args.deg))
    else:
        cs = chern.chern_tangent_moduli(space, args.deg)
        _print_class(cfg, f"c{args.deg}(T)", cs[args.deg - 1])
    return 0


def _cmd_taut(args, cfg: RunConfig) -> int:
    if args.op == "kappa1":
        space = ModuliSpec(args.g, tuple(f"m{i}" for i in range(args.n)))
        _print_class(cfg, "kappa1", kappa1_expand(kappa(space, 1)))
        return 0
    if args.op == "canon":
        gen = parse_gen(args.graph)
        check_stability(gen, "stable")  # canon accepts self edges
        cg, aut = canonicalize(gen)
        _emit(cfg, "canonical", gen_to_string(cg))
        _emit(cfg, "aut_order", aut)
        return 0
    raise AssertionError(args.op)


def _cmd_excess(args, cfg: RunConfig) -> int:
    if args.op == "m":
        print(excess.multiplicity_shifted(args.da, args.db, args.shift))
        return 0
    if args.op == "oracle":
        model = excess.BUILTIN_MODELS[args.model]
        value = excess.oracle_multiplicity(model)
        if cfg.machine:
            print(f"model\t{args.model}")
            print(f"oracle\t{value}")
            print(f"formula\t{excess.multiplicity(model.dims)}")
        else:
            print(value)
        return 0
    if args.op == "residual":
        total, divisor_part, residual_part = excess.verify_residual_model()
        if cfg.machine:
            print(f"total\t{total}")
            print(f"divisor\t{divisor_part}")
            print(f"residual\t{residual_part}")
        else:
            print(f"total {total} = divisor {divisor_part} + residual {residual_part}")
        return 0
    raise AssertionError(args.op)


def _cmd_ctp(args, cfg: RunConfig) -> int:
    if args.op == "components":
        comps = ctp.enumerate_components(args.g, args.max_edges)
        for c in comps:
            if cfg.machine:
                print(f"component\t{c.to_string()}")
                print(f"dim\t{ctp.component_dimension(c)}")
            else:
                print(f"{c.label():14s} dim {ctp.component_dimension(c)}   {c.to_string()}")
        _emit(cfg, "count", len(comps))
        return 0
    if args.op == "dim":
        comp = ctp.Component.from_string(args.component)
        print(ctp.component_dimension(comp))
        return 0
    if args.op == "check-pairing":
        p = _parse_pairing(args.pairing)
        verdict = ctp.check_pairing(p)
        _emit(cfg, "admissible", str(bool(verdict)).lower())
        if not verdict:
            _emit(cfg, "reason", verdict.reason)
        return 0
    if args.op == "intersections":
        for z in ctp.one_edge_intersections(args.g):
            row = (
                f"{z.name}\t{z.first}\t{z.second}\t{z.dimension}"
                f"\t{'divisor' if z.divisorial else 'excluded'}"
            )
            print(row if cfg.machine else row.replace("\t", "  "))
        return 0
    raise AssertionError(args.op)


def _parse_pairing(text: str) -> ctp.HalfEdgePairing:
    """Format: ``g=G L=m R=n b:i-j b:i-j r:i-j``."""
    genus = left = right = None
    blue, red = [], []
    for tok in text.split():
        if tok.startswith("g="):
            genus = int(tok[2:])
        elif tok.startswith("L="):
            left = int(tok[2:])
        elif tok.startswith("R="):
            right = int(tok[2:])
        elif tok.startswith(("b:", "r:")):
            i, _, j = tok[2:].partition("-")
            (blue if tok[0] == "b" else red).append((int(i), int(j)))
        else:
            raise ValueError(f"bad pairing token {tok!r}")
    if genus is None or left is None or right is None:
        raise ValueError("pairing needs g=, L=, R=")
    return ctp.HalfEdgePairing(genus, left, right, tuple(blue), tuple(red))


def _positive_float(text: str) -> float:
    """A ``--tol`` or ``--eps`` value; neither has a meaning at 0 or below."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _fmt_complex(z: complex, err: float | None = None) -> str:
    body = f"{z.real:+.12e} {z.imag:+.12e}i"
    return f"{body} (+- {err:.2e})" if err is not None else body


def _cmd_period(args, cfg: RunConfig) -> int:
    if args.op == "tau":
        curve = period.HyperellipticCurve(tuple(args.roots))
        tau, err = period.period_matrix(curve, args.tol)
        for i in range(2):
            for j in range(2):
                if cfg.machine:
                    print(f"tau_{i+1}{j+1}\t{tau[i][j].real!r}\t{tau[i][j].imag!r}\t{err:.3e}")
                else:
                    print(f"tau_{i+1}{j+1} = {_fmt_complex(tau[i][j], err)}")
        return 0
    if args.op == "rho4":
        cfg_p = period.PeriodConfig(eps=args.eps, tol=args.tol)
        cert = period.rho4(cfg_p)
        if args.report or not cert.passed:
            for name, val in cert.table:
                if cfg.machine:
                    print(f"{name}\t{val.real!r}\t{val.imag!r}")
                else:
                    print(f"{name} = {_fmt_complex(val)}")
        if cfg.machine:
            print(f"rho4\t{cert.value.real!r}\t{cert.value.imag!r}")
            print(f"err\t{cert.quadrature_error!r}")
            print(f"passed\t{str(cert.passed).lower()}")
        else:
            print(f"rho4 = {_fmt_complex(cert.value, cert.quadrature_error)}")
            print(f"nonvanishing certificate: {'PASS' if cert.passed else 'FAIL'}")
        return 0 if cert.passed else 1
    raise AssertionError(args.op)


def _cmd_torelli(args, cfg: RunConfig) -> int:
    if args.op == "g4":
        final, ledger = pipeline.t_pullback_g4()
        if cfg.machine:
            _print_class(cfg, "t*T4", final)
        else:
            print(f"t*T4 = {pretty_class(final)}")
        if args.ledger:
            for entry in ledger.entries:
                if cfg.machine:
                    print(f"ledger\t{entry.source}\t{entry.multiplicity}\t"
                          f"{'; '.join(str(entry.value).splitlines())}")
                else:
                    mult = f"x{entry.multiplicity}"
                    print(f"  {entry.source:8s} {mult:5s} "
                          f"{pretty_class(entry.value)}   [{entry.description}]")
        if cfg.explain:
            for line in (
                "diagonal components: first Chern class of the normal class "
                "of the Torelli map, two copies",
                "(1,3) and (2,2) components: push-pull through the gluing "
                "maps of the parametrizing products",
                "intersection multiplicities from the excess module: "
                "m(1,1), m(2,1)",
                "nonreduced loci: +1 each, certified by the residual "
                "intersection model",
            ):
                print(f"  explain: {line}")
        return 0
    if args.op == "g5":
        final, rep = pipeline.t_pullback_g5()
        _emit(cfg, "t*T5|interior", final)
        _emit(cfg, "ch1(T moduli)", rep.ch_moduli[0])
        _emit(cfg, "ch2(T moduli)", rep.ch_moduli[1])
        _emit(cfg, "ch3(T moduli)", rep.ch_moduli[2])
        _emit(cfg, "ch1(T abelian)", rep.ch_abelian_display[0])
        _emit(cfg, "ch2(T abelian)", rep.ch_abelian_display[1])
        _emit(cfg, "ch3(T abelian)", rep.ch_abelian_display[2])
        _emit(cfg, "2c3(N)", rep.two_c3)
        _emit(cfg, "multiplicity", rep.multiplicity)
        _emit(cfg, "hyperelliptic class", f"{rep.hyperelliptic} (imported)")
        if cfg.explain:
            print("  explain: interior characters combine through the "
                  "degree-3 Newton identity; lambda monomials collapse to "
                  "kappa_3 through the Hodge character constants and the "
                  "top-pairing ratios (kappa1*kappa2 = 20 kappa3, "
                  "kappa1^3 = 288 kappa3)")
        return 0
    if args.op == "abar4":
        curve_side, rep = pipeline.t_pushforward_Abar4()
        _print_class(cfg, "t*t_*[curve side]", curve_side)
        _emit(cfg, "conclusion", rep.pic_conclusion)
        if cfg.explain:
            print("  explain: each diagonal contributes an extra "
                  "-delta_irr from the irreducible boundary bookkeeping; "
                  "the boundary divisor upstairs pulls back to delta_irr")
        return 0
    if args.op == "dim":
        dim, verdict = pipeline.torelli_dimension(args.g)
        _emit(cfg, "dim", dim)
        _emit(cfg, "verdict", verdict)
        return 0
    raise AssertionError(args.op)


REFERENCE_CONSTANTS = (
    (
        "taut(T5)",
        "2*(72*lambda1*lambda2 - 48*lambda3)",
        "imported, display-only",
    ),
    (
        "taut(T6)",
        "2*(384*lambda1*lambda2*lambda3 - 1152*lambda2*lambda4"
        " + 474048/691*lambda1*lambda5 - 248064/691*lambda6)",
        "imported, display-only",
    ),
    (
        "taut(T7)",
        "2*(768*lambda1*lambda2*lambda3*lambda4 - 6912*lambda2*lambda3*lambda5"
        " + 2209152/691*lambda1*lambda4*lambda5"
        " + 7522176/691*lambda1*lambda3*lambda6"
        " - 8842752/691*lambda4*lambda6 + 968832/691*lambda3*lambda7"
        " - 3276672/691*lambda1*lambda2*lambda7)",
        "imported, display-only",
    ),
    (
        "[H5]",
        "31/30*kappa3",
        "imported, display-only",
    ),
)


def _cmd_constants(args, cfg: RunConfig) -> int:
    for name, formula, tag in REFERENCE_CONSTANTS:
        if cfg.machine:
            print(f"{name}\t{formula}\t{tag}")
        else:
            print(f"{name:10s} = {formula}   [{tag}]")
    return 0


def _cmd_selftest(args, cfg: RunConfig) -> int:
    from . import selftest  # compiled only by the command that runs it

    results = selftest.run_all()
    return 0 if all(r.passed for r in results) else 1


# --------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process.  Each ``parse_args`` returns a fresh
    namespace, so no parsed option carries over between calls."""
    top = argparse.ArgumentParser(
        prog="torcycle",
        description="exact and numerical Torelli-cycle computations",
    )
    top.add_argument("--machine", action="store_true", help="line-oriented output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chern", help="Chern characters/classes of tangent bundles")
    p.add_argument("--space", choices=("mbar", "mct", "ag"), required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--what", choices=("ch", "c"), default="ch")
    p.set_defaults(fn=_cmd_chern)

    p = sub.add_parser("taut", help="tautological class utilities")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("kappa1", help="expand kappa_1 in the divisor basis")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--n", type=int, default=0)
    q = ops.add_parser("canon", help="canonicalize a decorated graph")
    q.add_argument("graph")
    p.set_defaults(fn=_cmd_taut)

    p = sub.add_parser("excess", help="excess intersection multiplicities")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("m", help="the multiplicity m(d_A, d_B)")
    q.add_argument("--da", type=int, required=True)
    q.add_argument("--db", type=int, required=True)
    q.add_argument("--shift", type=int, default=0)
    q = ops.add_parser("oracle", help="local-model oracle value")
    q.add_argument("--model", choices=tuple(excess.BUILTIN_MODELS), required=True)
    ops.add_parser("residual", help="residual intersection decomposition")
    p.set_defaults(fn=_cmd_excess)

    p = sub.add_parser("ctp", help="fiber-product combinatorics")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("components")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--max-edges", type=int, default=None, dest="max_edges")
    q = ops.add_parser("dim")
    q.add_argument("component")
    q = ops.add_parser("check-pairing")
    q.add_argument("pairing")
    q = ops.add_parser("intersections")
    q.add_argument("--g", type=int, default=4)
    p.set_defaults(fn=_cmd_ctp)

    p = sub.add_parser("period", help="period integrals and the certificate")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("tau")
    q.add_argument("--roots", type=float, nargs=6, required=True)
    q.add_argument("--tol", type=_positive_float, default=1e-10)
    q = ops.add_parser("rho4")
    q.add_argument("--eps", type=_positive_float, default=0.05)
    q.add_argument("--tol", type=_positive_float, default=1e-10)
    q.add_argument("--report", action="store_true")
    p.set_defaults(fn=_cmd_period)

    p = sub.add_parser("torelli", help="headline cycle classes")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("g4")
    q.add_argument("--ledger", action="store_true")
    q.add_argument("--explain", action="store_true")
    q = ops.add_parser("g5")
    q.add_argument("--explain", action="store_true")
    q = ops.add_parser("abar4")
    q.add_argument("--explain", action="store_true")
    q = ops.add_parser("dim")
    q.add_argument("--g", type=int, required=True)
    p.set_defaults(fn=_cmd_torelli)

    p = sub.add_parser("constants", help="reference constants table")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(machine=args.machine, explain=getattr(args, "explain", False))
    try:
        return args.fn(args, cfg)
    except pipeline.PipelineMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except period.QuadratureError as exc:
        print(f"torcycle {args.command}: quadrature did not converge: {exc}", file=sys.stderr)
        return 1
    except UnsupportedOperation as exc:
        msg = " ".join(str(exc).split())
        print(f"torcycle {args.command}: unsupported operation: {msg}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
