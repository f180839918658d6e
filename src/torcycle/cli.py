"""Command-line frontend.

Subcommands: chern, taut, excess, ctp, period, torelli, constants,
selftest.  ``--machine`` switches to line-oriented ``key<TAB>value``
records; the human mode pretty-prints classes.  Exit status: 0 on success,
1 on a computation mismatch, a failed certificate or a quadrature that
does not converge (a one-line message), 2 on usage errors, 3
when the request needs a shape outside the implemented calculus
(``UnsupportedOperation``; a one-line message naming the shape goes to
stderr).  Configuration is flags-only for reproducibility.  A process
builds only the parsers of the commands it parses (``build_parser``).
The commands that read text, ``taut canon``, ``ctp dim`` and ``ctp
check-pairing``, import the text grammars (``grammar``) when they run, and
``selftest`` imports its suite.
"""

import argparse
import functools
import re
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
        fn = chern.ch_tangent_Ag if args.what == "ch" else chern.chern_tangent_Ag
        for form, reduced in (("raw", False), ("reduced", True)):
            _emit(cfg, f"{args.what}{args.deg}(T, abelian, {form})", fn(args.g, args.deg, reduced))
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
        from .grammar import parse_gen  # compiled only by the commands that read text

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
        from .grammar import parse_component

        print(ctp.component_dimension(parse_component(args.component)))
        return 0
    if args.op == "check-pairing":
        from .grammar import parse_pairing

        p = parse_pairing(args.pairing)
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


def _positive_float(text: str) -> float:
    """A ``--tol`` or ``--eps`` value; neither has a meaning at 0 or below."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """A ``--n`` value, a number of markings: decimal digits only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


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


def _arg(*flags, **options):
    """One ``add_argument`` call, as data."""
    return flags, options


def _node(help=None, *arguments, fn=None, ops=None):
    """A subcommand or operation as data: the help line the parent lists,
    its arguments, its handler, and its own operations by name."""
    return help, arguments, fn, ops


def _fill(parser, arguments, fn, ops, dest):
    """Give ``parser`` a node's arguments, operations and handler."""
    # read -1e3 as a number, not an option, as CPython 3.13 does (3.11: -1, -.5)
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    if ops:
        sub = parser.add_subparsers(dest=dest, required=True, action=_LazySubparsers)
        for name, node in ops.items():
            sub.add_node(name, node)
    if fn:
        parser.set_defaults(fn=fn)


class _LazySubparsers(argparse._SubParsersAction):
    """Subparsers whose name map holds each choice's node until
    ``parse_args`` selects it, and then the parser built from it.  Names
    and help lines are there from the start, so every help, usage and
    error text reads as with parsers built up front."""

    def add_node(self, name, node):
        """``add_parser`` for a node, with the parser left unbuilt."""
        if node[0] is not None:
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), node[0]))
        self._name_parser_map[name] = node

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]  # a listed choice: argparse checks that first
        node = self._name_parser_map[name]
        if isinstance(node, tuple):
            built = self._name_parser_map[name] = self._parser_class(
                prog=f"{self._prog_prefix} {name}")
            _fill(built, *node[1:], dest="op")
        super().__call__(parser, namespace, values, option_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process.  It lists every subcommand and operation
    with its help line, and builds each one's own parser the first time a
    command selects it.  Each ``parse_args`` returns a fresh namespace, so
    no parsed option carries over between calls."""
    top = argparse.ArgumentParser(
        prog="torcycle", description="exact and numerical Torelli-cycle computations")
    g = _arg("--g", type=int, required=True)
    n = _arg("--n", type=_count, default=0)
    tol = _arg("--tol", type=_positive_float, default=1e-10)
    explain = _arg("--explain", action="store_true")
    _fill(top, [_arg("--machine", action="store_true", help="line-oriented output")], None, {
        "chern": _node(
            "Chern characters/classes of tangent bundles",
            _arg("--space", choices=("mbar", "mct", "ag"), required=True), g, n,
            _arg("--deg", type=int, required=True),
            _arg("--what", choices=("ch", "c"), default="ch"), fn=_cmd_chern),
        "taut": _node("tautological class utilities", fn=_cmd_taut, ops={
            "kappa1": _node("expand kappa_1 in the divisor basis", g, n),
            "canon": _node("canonicalize a decorated graph", _arg("graph")),
        }),
        "excess": _node("excess intersection multiplicities", fn=_cmd_excess, ops={
            "m": _node("the multiplicity m(d_A, d_B)", _arg("--da", type=int, required=True),
                       _arg("--db", type=int, required=True),
                       _arg("--shift", type=int, default=0)),
            "oracle": _node("local-model oracle value", _arg(
                "--model", choices=tuple(excess.BUILTIN_MODELS), required=True)),
            "residual": _node("residual intersection decomposition"),
        }),
        "ctp": _node("fiber-product combinatorics", fn=_cmd_ctp, ops={
            "components": _node(None, g, _arg("--max-edges", type=int, default=None,
                                              dest="max_edges")),
            "dim": _node(None, _arg("component")),
            "check-pairing": _node(None, _arg("pairing")),
            "intersections": _node(None, _arg("--g", type=int, default=4)),
        }),
        "period": _node("period integrals and the certificate", fn=_cmd_period, ops={
            "tau": _node(None, _arg("--roots", type=float, nargs=6, required=True), tol),
            "rho4": _node(None, _arg("--eps", type=_positive_float, default=0.05), tol,
                          _arg("--report", action="store_true")),
        }),
        "torelli": _node("headline cycle classes", fn=_cmd_torelli, ops={
            "g4": _node(None, _arg("--ledger", action="store_true"), explain),
            "g5": _node(None, explain),
            "abar4": _node(None, explain),
            "dim": _node(None, g),
        }),
        "constants": _node("reference constants table", fn=_cmd_constants),
        "selftest": _node("run the acceptance suite", fn=_cmd_selftest),
    }, dest="command")
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
