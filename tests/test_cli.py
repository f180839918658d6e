import argparse
import io
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

from torcycle import excess, pipeline, selftest
from torcycle.cli import (
    _cmd_chern, _cmd_constants, _cmd_ctp, _cmd_excess, _cmd_period, _cmd_selftest, _cmd_taut,
    _cmd_torelli, _count, _positive_float, build_parser, main,
)

SRC = pathlib.Path(__file__).parent.parent / "src"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


class TestTorelli:
    def test_g4(self):
        code, out = run_cli("torelli", "g4")
        assert code == 0
        assert "t*T4 = 16*lambda1" in out

    def test_g4_ledger(self):
        code, out = run_cli("torelli", "g4", "--ledger")
        assert code == 0
        for name in ("Delta+", "A+", "B", "Z1", "Z6"):
            assert name in out

    def test_g5(self):
        code, out = run_cli("torelli", "g5")
        assert code == 0
        assert "48/5*kappa3" in out
        assert "454/15*kappa3" in out
        assert "-13*lambda1" in out

    def test_abar4(self):
        code, out = run_cli("torelli", "abar4")
        assert code == 0
        assert "16*lambda1 - 2*D" in out

    def test_dim(self):
        code, out = run_cli("torelli", "dim", "--g", "10")
        assert code == 0
        assert "-1" in out and "vanishes" in out

    def test_mismatch_exit_1(self, monkeypatch, capsys):
        def drifted():
            raise pipeline.PipelineMismatch("2 c3(N) = 0")

        monkeypatch.setattr(pipeline, "t_pullback_g5", drifted)
        code, out = run_cli("torelli", "g5")
        err = capsys.readouterr().err
        assert code == 1
        assert out == ""
        assert err == "mismatch: 2 c3(N) = 0\n"


class TestExcess:
    def test_m(self):
        code, out = run_cli("excess", "m", "--da", "3", "--db", "3")
        assert code == 0
        assert out.strip() == "-20"

    def test_usage_error(self):
        code, _ = run_cli("excess", "m", "--da", "0", "--db", "1")
        assert code == 2

    def test_shift_usage_error(self):
        code, _ = run_cli("excess", "m", "--da", "2", "--db", "1", "--shift", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("--da", "2", "--db", "2", "--shift", "-1"), "shift -1 is negative"),
        (("--da", "0", "--db", "3", "--shift", "-1"), "component dimensions must be >= 1"),
        (("--da", "2", "--db", "1", "--shift", "1"),
         "shift 1 makes a component dimension non-positive"),
    ], ids=["negative-shift", "bad-dims-negative-shift", "shift-too-large"])
    def test_shift_errors(self, capsys, argv, message):
        code, out = run_cli("excess", "m", *argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle: error: {message}"]

    def test_oracle(self):
        code, out = run_cli("excess", "oracle", "--model", "b3")
        assert code == 0
        assert out.strip() == "-3"

    def test_residual(self):
        code, out = run_cli("--machine", "excess", "residual")
        assert code == 0
        assert "total\t8" in out and "divisor\t7" in out and "residual\t1" in out


class TestChern:
    def test_c1(self):
        code, out = run_cli("chern", "--space", "mct", "--g", "4", "--deg", "1",
                            "--what", "c")
        assert code == 0
        assert "-13*lambda1" in out

    def test_unsupported_shape_exit_3(self, capsys):
        code, out = run_cli("chern", "--space", "mbar", "--g", "4", "--deg", "2",
                            "--what", "c")
        err = capsys.readouterr().err
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "unsupported operation" in err and "compact type" in err
        assert "usage:" not in err

    @pytest.mark.parametrize("deg", ["0", "-1"])
    def test_degree_below_one(self, capsys, deg):
        # the Chern classes of degree < 1 used to raise IndexError
        code, out = run_cli("chern", "--space", "mct", "--g", "2", "--deg", deg,
                            "--what", "c")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["torcycle: error: degree must be >= 1"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("prog, argv, n", [
        ("chern", ("--space", "mct", "--g", "2", "--deg", "1"), "-1"),
        ("taut kappa1", ("--g", "2"), "-1"),
        ("taut kappa1", ("--g", "2"), "x"),
    ], ids=["chern-negative", "kappa1-negative", "kappa1-not-an-int"])
    def test_marking_count(self, capsys, prog, argv, n):
        # a negative --n used to run as n = 0
        code, out = run_cli(*prog.split(), *argv, "--n", n)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle {prog}: error: argument --n: "
                          f"must be an integer >= 0, got {n!r}"]
        assert "usage:" in err and "Traceback" not in err

    def test_ag(self):
        code, out = run_cli("chern", "--space", "ag", "--g", "5", "--deg", "2")
        assert code == 0
        assert "reduced" in out and "lambda2" in out

    def test_ag_chern_classes(self):
        # --what c used to print the characters; Gauss-Bonnet on the compact
        # dual LG(4, 8): the reduced top class c_10 is 16 lambda1...lambda4
        argv = ("--machine", "chern", "--space", "ag", "--g", "4", "--deg", "10")
        code, out = run_cli(*argv, "--what", "c")
        assert code == 0
        assert out.splitlines()[1] == "c10(T, abelian, reduced)\t16*lambda1*lambda2*lambda3*lambda4"
        assert run_cli(*argv, "--what", "ch") != (code, out)

    @pytest.mark.parametrize("g, deg, message", [
        ("3", "0", "degree must be >= 1"), ("3", "-1", "degree must be >= 1"),
        ("0", "0", "genus must be >= 1"), ("0", "1", "genus must be >= 1"),
    ], ids=["deg0", "negative-deg", "g0-deg0", "g0-deg1"])
    def test_ag_chern_class_out_of_range(self, capsys, g, deg, message):
        code, out = run_cli("chern", "--space", "ag", "--g", g, "--deg", deg, "--what", "c")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle: error: {message}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("g, deg", [("0", "0"), ("-1", "0"), ("0", "1")],
                             ids=["g0-deg0", "negative-deg0", "g0-deg1"])
    def test_ag_genus_below_one(self, capsys, g, deg):
        # degree 0 used to print g(g+1)/2 and exit 0 for any genus
        code, out = run_cli("chern", "--space", "ag", "--g", g, "--deg", deg)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["torcycle: error: genus must be >= 1"]
        assert "Traceback" not in err


class TestCtp:
    def test_components(self):
        code, out = run_cli("ctp", "components", "--g", "4")
        assert code == 0
        assert "count = 5" in out

    def test_dim_roundtrip(self):
        code, out = run_cli("ctp", "components", "--g", "4")
        line = next(l for l in out.splitlines() if "(2,2)" in l)
        comp_str = line.split("dim 10")[1].strip()
        code, out = run_cli("ctp", "dim", comp_str)
        assert code == 0
        assert out.strip() == "10"

    def test_dim_missing_fields(self, capsys):
        code, out = run_cli("ctp", "dim", "nonsense")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["torcycle: error: component missing field(s) T1, T2, nu"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("dim", "T1 V 2 2; E 0-1 | T2 V 2 2; E 0-1 | nu: 0>5 1>0"),
         "nu must be a genus-preserving bijection of the vertices"),
        (("dim", "T1 V 2 2; E 0-1 | T2 V 4 | nu: 0>0 1>0"),
         "nu must be a genus-preserving bijection of the vertices"),
        (("dim", "T1 V 2 2; E 0-1 | T2 V 2 2; E 0-1 | nu: 0>0 1>1 | sigma: 5:+"),
         "sigma must be +- at genus 2, + or - above, and absent below"),
        (("dim", "T1 V 3 | T2 V 3 | nu: 0>0 | sigma: 0:x"),
         "sigma must be +- at genus 2, + or - above, and absent below"),
        (("dim", "T1 V 3 | T2 V 3 | nu: 0>0 | sigma: 0:+ 0:-"),
         "sigma must be +- at genus 2, + or - above, and absent below"),
        (("dim", "T1 V 1 1 1; E 0-1 1-2 | T2 V 1 1 1; E 0-1 1-2 | nu: 0>0 1>1 2>2"),
         "neighboring genus-1 vertices of T1 map to neighbors of T2"),
        (("dim", "T1 V 0 1 1 1; E 0-1 0-2 0-3 | T2 V 0 1 1 1; E 0-1 0-2 0-3 | "
                 "nu: 0>0 1>1 2>2 3>3"),
         "component trees have positive genera, no legs, no decorations"),
        (("dim", "T1 V 2 2; E 0-1 0-1 | T2 V 2 2; E 0-1 | nu: 0>0 1>1"),
         "compact type dual graph must be a tree"),
        (("components", "--g", "4", "--max-edges", "-1"), "max_edges must be >= 0"),
        (("dim", "T1 V 2 | T2 V 2 | nu: 0>0>0"), "bad nu token '0>0>0'"),
        (("dim", "T1 V 2 | T2 V 2 | nu: a>0"), "bad nu token 'a>0'"),
        (("dim", "T1 V 2 | T2 V 2 | nu: 0>0 | sigma: 0:+:x"), "bad sigma token '0:+:x'"),
        (("dim", "T1 V 2 | T2 V x | nu: 0>0"), "bad generator token 'x'"),
        (("check-pairing", "g=x L=1 R=1"), "bad pairing token 'g=x'"),
        (("check-pairing", "g=2 L=1 R=1 b:0"), "bad pairing token 'b:0'"),
        (("check-pairing", "g=2 L=1 R=1 q:0-0"), "bad pairing token 'q:0-0'"),
        (("check-pairing", "g=2 L=-1 R=1"), "genus, left and right must be >= 0"),
        (("check-pairing", "g=-5 L=1 R=1"), "genus, left and right must be >= 0"),
        (("check-pairing", "g=2 L=1 R=1 g=3"), "repeated pairing key 'g='"),
        (("dim", "T1 V 2 2; E 0-1 | T2 V 2 2; E 0-1 | nu: 0>0 1>1 | sigma: 0:+- 1:+- "
                 "| nu: 0>1 1>0"), "repeated component field 'nu'"),
        (("dim", "T1 V 3 | T2 V 3 | nu: 0>0 | sigma: 0:+ | bogus: 1"),
         "unknown component field(s) 'bogus'"),
    ], ids=["nu-out-of-range", "nu-not-bijective", "sigma-out-of-range", "sigma-unknown", "sigma-twice",
            "elliptic-rule", "genus-0-vertex", "not-a-tree", "negative-max-edges",
            "nu-three-parts", "nu-not-an-int", "sigma-three-parts", "tree-token",
            "pairing-genus-not-an-int", "pairing-edge-end", "pairing-unknown-token",
            "pairing-negative-left", "pairing-negative-genus", "pairing-genus-twice",
            "nu-twice", "unknown-field"])
    def test_usage_errors(self, capsys, argv, message):
        code, out = run_cli("ctp", *argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle: error: {message}"]
        assert "Traceback" not in err

    def test_check_pairing(self):
        code, out = run_cli("ctp", "check-pairing", "g=2 L=1 R=1 b:0-0 r:0-0")
        assert code == 0
        assert "true" in out

    def test_check_pairing_bad(self):
        code, out = run_cli(
            "ctp", "check-pairing",
            "g=5 L=3 R=3 b:0-0 b:1-1 b:2-2 r:0-1 r:1-2 r:2-0",
        )
        assert code == 0
        assert "false" in out and "cycle of length 6" in out


class TestPeriod:
    def test_rho4(self):
        code, out = run_cli("period", "rho4", "--tol", "1e-8")
        assert code == 0
        assert "PASS" in out

    def test_non_positive_tol(self, capsys):
        for op in (["rho4"], ["tau", "--roots", "1", "2", "3", "4", "5", "6"]):
            for tol in ("0", "-1", "-0.5", "nan", "abc"):
                code, out = run_cli("period", *op, "--tol", tol)
                err = capsys.readouterr().err
                assert code == 2 and out == ""
                errors = [line for line in err.splitlines() if "error:" in line]
                assert errors == [f"torcycle period {op[0]}: error: argument --tol: "
                                  f"must be a number > 0, got {tol!r}"]

    @pytest.mark.parametrize("roots", [("nan", "2", "3", "4", "5", "6"),
                                       ("1", "2", "3", "4", "5", "inf")], ids=["nan", "inf"])
    def test_non_finite_roots(self, capsys, roots):
        # nan and inf passed the order check and failed later as
        # "contour B1: inconsistent sheet closure"
        code, out = run_cli("period", "tau", "--roots", *roots)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["torcycle: error: branch points must be finite"]
        assert "Traceback" not in err

    def test_negative_root_in_exponent_form(self):
        # argparse on Python 3.11 read -1e3 as an option
        assert run_cli("period", "tau", "--roots", "-1e3", "2", "3", "4", "5", "6") == run_cli(
            "period", "tau", "--roots", "-1000", "2", "3", "4", "5", "6")
        assert run_cli("period", "tau", "--roots", "-1e3", "2", "3", "4", "5", "6")[0] == 0

    def test_non_positive_eps(self, capsys):
        # 0 divided by zero, -1 passed, nan ran to the node cap
        for eps in ("0", "-1", "-0.05", "nan", "abc"):
            code, out = run_cli("period", "rho4", "--eps", eps)
            err = capsys.readouterr().err
            assert code == 2 and out == ""
            errors = [line for line in err.splitlines() if "error:" in line]
            assert errors == [f"torcycle period rho4: error: argument --eps: "
                              f"must be a number > 0, got {eps!r}"]
            assert "Traceback" not in err

    def test_no_convergence_exit_1(self, capsys):
        # below rounding no level agrees with the last: a one-line message
        code, out = run_cli("period", "rho4", "--tol", "1e-300")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err == ("torcycle period: quadrature did not converge: "
                       "contour A1: no convergence at 65536 nodes\n")

    def test_machine_stability(self):
        _, out1 = run_cli("--machine", "period", "rho4", "--tol", "1e-8")
        _, out2 = run_cli("--machine", "period", "rho4", "--tol", "1e-8")
        assert out1 == out2


class TestConstants:
    def test_table(self):
        code, out = run_cli("constants")
        assert code == 0
        assert "72*lambda1*lambda2" in out
        assert "248064/691*lambda6" in out
        assert "31/30*kappa3" in out
        assert "display-only" in out


class TestTaut:
    def test_kappa1(self):
        code, out = run_cli("taut", "kappa1", "--g", "1", "--n", "1")
        assert code == 0
        assert "12*lambda1" in out and "psi_m0" in out

    def test_canon(self):
        code, out = run_cli("taut", "canon", "V 2 2; E 0-1")
        assert code == 0
        assert "aut_order = 2" in out

    def test_canon_self_edge(self):
        # canon checks stability under the stable policy: a self edge is fine
        code, out = run_cli("taut", "canon", "V 1; E 0-0")
        assert code == 0
        assert "aut_order = 2" in out

    @pytest.mark.parametrize("graph, message", [
        ("V 0 0; E 0-1", "vertex 0 (genus 0, valence 1) is unstable"),
        ("V 2 0; E 0-1", "vertex 1 (genus 0, valence 1) is unstable"),
        ("V 1 1", "vertex 0 (genus 1, valence 0) is unstable"),
        ("V 2 2", "graph must be connected"),
    ], ids=["genus0-pair", "genus0-leaf", "bare-genus1", "disconnected"])
    def test_canon_unstable(self, capsys, graph, message):
        code, out = run_cli("taut", "canon", graph)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle: error: {message}"]
        assert "Traceback" not in err


    @pytest.mark.parametrize("graph, message", [
        ("", "generator needs a V section with a vertex"),
        ("E 0-1", "generator needs a V section with a vertex"),
        ("V 1 1; E 0-1; L x 5", "bad generator token 'x'"),
        ("V 1 1; E 0-1; L x@1 5", "bad generator token '5'"),
        ("V 2 a", "bad generator token 'a'"),
        ("V 1 1; E 0-b", "bad generator token '0-b'"),
        ("V 2; decor v0:kappa", "bad generator token 'v0:kappa'"),
        ("V 2; decor v0:lambda1^x", "bad generator token 'v0:lambda1^x'"),
        ("V 1 1; E 0-1; decor ex:psi", "bad generator token 'ex:psi'"),
        ("V 1 1; E 0-1; decor e5a:psi", "bad generator token 'e5a:psi'"),
        ("V 1 1; E 0-1; decor e0c:psi", "bad generator token 'e0c:psi'"),
        ("V 1 1; E 0-1; decor v7:kappa1", "bad generator token 'v7:kappa1'"),
        ("V 1 1; E 0-1; decor v-1:lambda1", "bad generator token 'v-1:lambda1'"),
        ("V 1 1; E 0-1; decor lq:psi", "bad generator token 'lq:psi'"),
        ("V 1 1; E 0-1; L a@0 a@1", "duplicate leg label 'a'"),
        ("V 1 1; E 0-1; L a@0; L b@1 a@1; decor la:psi^2", "duplicate leg label 'a'"),
        ("V 1; V 2", "repeated section 'V'"),
        ("V 1 1; E 0-1; decor v0:kappa1; decor v1:kappa1", "repeated section 'decor'"),
        ("V 1 1; E 0-1; L a@0; decor la:psi la:psi^2", "repeated decoration target 'la'"),
        ("V 1 1; E 0-1; decor e0a:psi e0a:psi", "repeated decoration target 'e0a'"),
        ("V 1 1; E 0-1; decor e0a:psi^-1", "bad generator token 'e0a:psi^-1'"),
        ("V 1 1; E 0-1; L a@0; decor la:psi^-2", "bad generator token 'la:psi^-2'"),
        ("V 1 1; E 0-1; decor e0a:kappa2", "bad generator token 'e0a:kappa2'"),
        ("V 1 1; E 0-1; L @0", "bad generator token '@0'"),
    ], ids=["empty", "no-vertex", "leg-without-vertex", "leg-bare-int", "genus", "edge-end",
            "kappa-index", "exponent", "edge-index", "edge-out-of-range", "edge-side",
            "vertex-out-of-range", "vertex-negative", "leg-missing", "leg-duplicate",
            "leg-duplicate-sections", "vertex-section-twice", "decor-section-twice",
            "leg-psi-twice", "edge-psi-twice", "edge-psi-negative", "leg-psi-negative",
            "edge-not-psi", "leg-empty-label"])
    def test_canon_bad_token(self, capsys, graph, message):
        code, out = run_cli("taut", "canon", graph)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"torcycle: error: {message}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("graph", ["V 2; decor v0:kappa0^1", "V 2; decor v0:lambda0"])
    def test_canon_index_zero(self, capsys, graph):
        code, out = run_cli("taut", "canon", graph)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["torcycle: error: decoration index 0 < 1 "
                          "(kappa_0 and lambda_0 are scalars)"]
        assert "Traceback" not in err


class TestImport:
    def test_selftest_not_loaded(self):
        # selftest and the text grammars are compiled only by the commands
        # that run them; period stays part of the import, and it needs no
        # numpy.  A typing.NamedTuple record evals one namedtuple __new__
        # and nothing else (its annotations are evaluated types, not
        # strings to compile), so neither dataclasses, which execs fresh
        # source per class, nor the inspect it pulls in is loaded
        code = ("import sys, torcycle.cli; "
                "print(*(m in sys.modules for m in ('torcycle.selftest', 'torcycle.grammar', "
                "'torcycle.period', 'numpy', 'dataclasses', 'inspect')))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.split() == ["False", "False", "True", "False", "False", "False"]

    def test_selftest_command(self, monkeypatch):
        monkeypatch.setattr(selftest, "run_all", lambda: [])
        assert run_cli("selftest") == (0, "")


def eager_parser() -> argparse.ArgumentParser:
    """Oracle: the parser as it was built before subparsers were built
    lazily, every one of its 24 ``ArgumentParser``s up front.  The body is
    the old ``build_parser`` verbatim."""
    top = argparse.ArgumentParser(
        prog="torcycle",
        description="exact and numerical Torelli-cycle computations",
    )
    top.add_argument("--machine", action="store_true", help="line-oriented output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chern", help="Chern characters/classes of tangent bundles")
    p.add_argument("--space", choices=("mbar", "mct", "ag"), required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=_count, default=0)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--what", choices=("ch", "c"), default="ch")
    p.set_defaults(fn=_cmd_chern)

    p = sub.add_parser("taut", help="tautological class utilities")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("kappa1", help="expand kappa_1 in the divisor basis")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--n", type=_count, default=0)
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


#: every subcommand with its operations: 24 parsers with the top one
COMMANDS = {
    "chern": (), "taut": ("kappa1", "canon"), "excess": ("m", "oracle", "residual"),
    "ctp": ("components", "dim", "check-pairing", "intersections"), "period": ("tau", "rho4"),
    "torelli": ("g4", "g5", "abar4", "dim"), "constants": (), "selftest": (),
}
HELP_ARGV = [[], *([c] for c in COMMANDS), *([c, op] for c in COMMANDS for op in COMMANDS[c])]

#: the six headline commands of the benchmark
HEADLINE_ARGV = [
    ["--machine", "torelli", "g4", "--ledger"],
    ["--machine", "torelli", "g5"],
    ["--machine", "torelli", "abar4"],
    ["--machine", "excess", "m", "--da", "1", "--db", "1"],
    ["--machine", "excess", "m", "--da", "2", "--db", "1"],
    ["--machine", "excess", "m", "--da", "3", "--db", "3"],
]


def parse_exit(parser, argv):
    """``parser.parse_args(argv)``: its namespace, or its exit code."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


def constructed(monkeypatch, argvs, build=build_parser) -> list[str]:
    """The prog of every ``ArgumentParser`` built while ``build()`` makes
    a parser and it parses ``argvs``."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting)
        parser = build()
        for argv in argvs:
            parser.parse_args(argv)
    return progs


class TestParser:
    @pytest.mark.parametrize("argv", HELP_ARGV, ids=lambda a: " ".join(["torcycle", *a]))
    def test_help_matches_eager(self, monkeypatch, capsys, argv):
        # the parser that --help reaches, with its usage line
        def seen(parser):
            shown = []
            monkeypatch.setattr(argparse.ArgumentParser, "print_help", lambda self, file=None:
                                shown.append((self.prog, self.format_help(), self.format_usage())))
            assert parse_exit(parser, [*argv, "--help"]) == 0
            return shown

        expect = seen(eager_parser())
        assert seen(build_parser()) == expect
        assert len(expect) == 1 and expect[0][0] == " ".join(["torcycle", *argv])
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["taut"], ["excess"], ["ctp"], ["period"], ["torelli"],
        ["torelli", "g6"], ["torelli", "g4", "--bogus"], ["--bogus", "constants"],
        ["period", "rho4", "--tol", "0"],
        ["chern", "--space", "mct", "--g", "2", "--deg", "1", "--n", "-1"],
        ["torelli", "dim"], ["chern", "--space", "ag", "--deg", "1"],
    ], ids=lambda a: " ".join(a) or "no-command")
    def test_usage_errors_match_eager(self, capsys, argv):
        assert parse_exit(eager_parser(), argv) == 2
        expect = capsys.readouterr()
        assert "error:" in expect.err
        assert parse_exit(build_parser(), argv) == 2
        assert capsys.readouterr() == expect

    @pytest.mark.parametrize("argv", [
        *HEADLINE_ARGV, ["chern", "--space", "mct", "--g", "3", "--deg", "2"],
        ["taut", "kappa1", "--g", "2"], ["ctp", "components", "--g", "4"],
        ["ctp", "intersections"], ["period", "rho4", "--report"],
        ["period", "tau", "--roots", "1", "2", "3", "4", "5", "6"],
        ["torelli", "g4", "--explain"], ["constants"], ["selftest"],
    ], ids=lambda a: " ".join(a))
    def test_namespace_matches_eager(self, argv):
        assert parse_exit(build_parser(), argv) == parse_exit(eager_parser(), argv)

    def test_help_reaches_every_parser(self, monkeypatch):
        # the eager oracle builds all 24, and HELP_ARGV names each of them
        progs = constructed(monkeypatch, HEADLINE_ARGV, build=eager_parser)
        assert sorted(progs) == sorted(" ".join(["torcycle", *a]) for a in HELP_ARGV)

    def test_headline_builds_seven(self, monkeypatch):
        build_parser.cache_clear()
        assert sorted(constructed(monkeypatch, HEADLINE_ARGV)) == [
            "torcycle", "torcycle excess", "torcycle excess m", "torcycle torelli",
            "torcycle torelli abar4", "torcycle torelli g4", "torcycle torelli g5"]
        # a process that repeats a command builds nothing more
        assert constructed(monkeypatch, HEADLINE_ARGV) == []

    def test_first_command_builds_its_chain(self, monkeypatch):
        build_parser.cache_clear()
        argv = ["torelli", "g4", "--ledger"]
        assert constructed(monkeypatch, [argv]) == [
            "torcycle", "torcycle torelli", "torcycle torelli g4"]
        assert constructed(monkeypatch, [argv, argv]) == []
