import io
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

from torcycle import pipeline, selftest
from torcycle.cli import main

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

    def test_ag(self):
        code, out = run_cli("chern", "--space", "ag", "--g", "5", "--deg", "2")
        assert code == 0
        assert "reduced" in out and "lambda2" in out


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
    ], ids=["nu-out-of-range", "nu-not-bijective", "sigma-out-of-range", "sigma-unknown", "sigma-twice",
            "elliptic-rule", "genus-0-vertex", "not-a-tree", "negative-max-edges",
            "nu-three-parts", "nu-not-an-int", "sigma-three-parts", "tree-token"])
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
    ], ids=["empty", "no-vertex", "leg-without-vertex", "leg-bare-int", "genus", "edge-end",
            "kappa-index", "exponent", "edge-index", "edge-out-of-range", "edge-side",
            "vertex-out-of-range", "vertex-negative", "leg-missing"])
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
        # selftest is compiled only by the command that runs it; period
        # stays part of the import, and it needs no numpy.  The records
        # generate no code, so neither dataclasses nor the inspect it pulls
        # in is loaded
        code = ("import sys, torcycle.cli; "
                "print(*(m in sys.modules for m in ('torcycle.selftest', "
                "'torcycle.period', 'numpy', 'dataclasses', 'inspect')))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.split() == ["False", "True", "False", "False", "False"]

    def test_selftest_command(self, monkeypatch):
        monkeypatch.setattr(selftest, "run_all", lambda: [])
        assert run_cli("selftest") == (0, "")
