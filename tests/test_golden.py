"""Golden ``--machine`` outputs, pinned before the code under them changes.
The symbolic commands are compared byte for byte.  So is the stdout of the
report scripts, run from the repository root, except for the wall-time line
of ``torelli_report.py``.  The ``period`` commands
and ``rho4_scan.py`` are floating point: their non-numeric fields must
match exactly and each numeric field must parse (with ``float()``, or for
the script as a complex number once a trailing ``i`` is stripped) and agree
within ``PERIOD_RTOL * max(1, |x|)``.

Regenerate (only when a change of output is intended, and say so in the
changelog) with ``PYTHONPATH=src python tests/test_golden.py``.  That
rewrites the exact goldens; a floating-point golden is rewritten only when
its name is given on the command line, since regeneration moves last
digits that the tolerance accepts anyway.
"""

import contextlib
import io
import pathlib
import re
import subprocess
import sys

import pytest

from torcycle.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REPO_ROOT = pathlib.Path(__file__).parent.parent

_CHERN = {
    f"chern_mct_g{g}_n{n}_deg{d}_{w}": ["chern", "--space", "mct", "--g", str(g),
                                       "--n", str(n), "--deg", str(d), "--what", w]
    for g, n in ((1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1))
    for d in (1, 2)
    for w in ("ch", "c")
}

#: Abelian-side characters; (12, 11) pins the order of two-digit lambda
#: indices (lambda11 sorts after lambda5*lambda6), and (8, 5) a coefficient
#: of -1.
_CHERN_AG = {
    f"chern_ag_g{g}_deg{d}": ["chern", "--space", "ag", "--g", str(g), "--deg", str(d)]
    for g, d in ((1, 1), (1, 2), (3, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 6), (8, 5),
                 (12, 11))
}

_CTP = {
    f"ctp_components_g{g}_e{e}": ["ctp", "components", "--g", str(g), "--max-edges", str(e)]
    for g in range(2, 8)
    for e in (1, 2, 3)
}

GOLDEN = {
    "torelli_g4_ledger": ["torelli", "g4", "--ledger"],
    "torelli_g5": ["torelli", "g5"],
    "torelli_abar4": ["torelli", "abar4"],
    "torelli_g4_ledger_explain": ["torelli", "g4", "--ledger", "--explain"],
    "torelli_g5_explain": ["torelli", "g5", "--explain"],
    "torelli_abar4_explain": ["torelli", "abar4", "--explain"],
    # the three verdicts: possibly nonzero, the Graber-Vakil bound on
    # M^ct_g (g = 8, 9), negative dimension
    "torelli_dim_g4": ["torelli", "dim", "--g", "4"],
    "torelli_dim_g8": ["torelli", "dim", "--g", "8"],
    "torelli_dim_g9": ["torelli", "dim", "--g", "9"],
    "torelli_dim_g10": ["torelli", "dim", "--g", "10"],
    "excess_m_1_1": ["excess", "m", "--da", "1", "--db", "1"],
    "excess_m_2_1": ["excess", "m", "--da", "2", "--db", "1"],
    "excess_m_3_3": ["excess", "m", "--da", "3", "--db", "3"],
    "excess_oracle_b2": ["excess", "oracle", "--model", "b2"],
    "excess_oracle_b3": ["excess", "oracle", "--model", "b3"],
    "excess_oracle_b4": ["excess", "oracle", "--model", "b4"],
    "excess_residual": ["excess", "residual"],
    "constants": ["constants"],
    **_CHERN,
    **_CHERN_AG,
    **_CTP,
    "ctp_components_g2": ["ctp", "components", "--g", "2"],
    "ctp_components_g3": ["ctp", "components", "--g", "3"],
    "ctp_intersections": ["ctp", "intersections"],
    "ctp_dim_g4_22": [
        "ctp", "dim", "T1 V 2 2; E 0-1 | T2 V 2 2; E 0-1 | nu: 0>0 1>1 | sigma: 0:+- 1:+-",
    ],
    "ctp_check_pairing_admissible": ["ctp", "check-pairing", "g=2 L=1 R=1 b:0-0 r:0-0"],
    "ctp_check_pairing_cycle": [
        "ctp", "check-pairing", "g=5 L=3 R=3 b:0-0 b:1-1 b:2-2 r:0-1 r:1-2 r:2-0",
    ],
    "taut_kappa1_g1_n1": ["taut", "kappa1", "--g", "1", "--n", "1"],
    "taut_kappa1_g2_n1": ["taut", "kappa1", "--g", "2", "--n", "1"],
    "taut_kappa1_g3_n2": ["taut", "kappa1", "--g", "3", "--n", "2"],
    "taut_kappa1_g4": ["taut", "kappa1", "--g", "4"],
    # a degree above 2g: the top Chern class, raw and reduced
    "chern_ag_g4_deg10_c": ["chern", "--space", "ag", "--g", "4", "--deg", "10", "--what", "c"],
    "taut_canon_sep": ["taut", "canon", "V 2 2; E 0-1"],
    "taut_canon_chain": ["taut", "canon", "V 1 1 1; E 0-1 0-2"],
    "taut_canon_decorated": [
        "taut", "canon",
        "V 1 0 2; E 0-1 1-2; L b@1 a@1; decor v2:kappa1^1 e1b:psi^1 lb:psi^2",
    ],
}


#: Floating-point goldens: the period matrix of both base curves and of an
#: uneven curve with short gaps, and the certificate with its table.
PERIOD_GOLDEN = {
    "period_tau_base1": ["period", "tau", "--roots", "1", "2", "3", "4", "5", "6"],
    "period_tau_base2": ["period", "tau", "--roots", "1", "2", "3", "4", "5", "7"],
    "period_tau_uneven": ["period", "tau", "--roots",
                          "0.5", "0.7", "1.9", "2.05", "3", "4.4"],
    "period_rho4_report": ["period", "rho4", "--report"],
}

PERIOD_RTOL = 1e-9

#: Report scripts: the human renderings of tautological and polynomial
#: classes that no ``--machine`` command prints.
SCRIPT_GOLDEN = {
    "script_chern_table": "scripts/chern_table.py",
    "script_torelli_report": "scripts/torelli_report.py",
}

#: Floating-point script output, compared token by token like the period
#: goldens: the certificate scan is the one caller of the segment rule at
#: eps=None.
FLOAT_SCRIPT_GOLDEN = {
    "script_rho4_scan": "scripts/rho4_scan.py",
}

_WALL_TIME = re.compile(r"^total \d+\.\d+s$", re.MULTILINE)


def machine_output(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--machine", *argv])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(name):
    code, out = machine_output(GOLDEN[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.tsv").read_text()


def human_output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def test_parser_reuse():
    # one parser serves every call; no parsed option (--explain, --machine)
    # leaks into the next
    assert build_parser() is build_parser()
    human = human_output(GOLDEN["torelli_g4_ledger"])
    assert machine_output(["torelli", "g4", "--ledger", "--explain"])[0] == 0
    code, out = machine_output(GOLDEN["torelli_g4_ledger"])
    assert code == 0
    assert out == (GOLDEN_DIR / "torelli_g4_ledger.tsv").read_text()
    assert human_output(GOLDEN["torelli_g4_ledger"]) == human


def script_output(path: str) -> str:
    proc = subprocess.run([sys.executable, path], cwd=REPO_ROOT, capture_output=True,
                          text=True, check=True)
    return _WALL_TIME.sub("total <seconds>", proc.stdout)


@pytest.mark.parametrize("name", sorted(SCRIPT_GOLDEN))
def test_script_golden(name):
    assert script_output(SCRIPT_GOLDEN[name]) == (GOLDEN_DIR / f"{name}.txt").read_text()


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def assert_period_golden(name: str, out: str) -> None:
    want = (GOLDEN_DIR / f"{name}.tsv").read_text().splitlines()
    got = out.splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_fields, want_fields = got_line.split("\t"), want_line.split("\t")
        assert len(got_fields) == len(want_fields), got_line
        for g, w in zip(got_fields, want_fields):
            if _is_number(w):
                x = float(w)
                assert abs(float(g) - x) <= PERIOD_RTOL * max(1.0, abs(x)), got_line
            else:
                assert g == w, got_line


@pytest.mark.parametrize("name", sorted(PERIOD_GOLDEN))
def test_period_golden(name):
    code, out = machine_output(PERIOD_GOLDEN[name])
    assert code == 0
    assert_period_golden(name, out)


def test_period_golden_without_numpy():
    # numpy is a test extra only: the certificate runs with its import blocked
    code = ("import sys; sys.modules['numpy'] = None; sys.path.insert(0, 'src'); "
            "from torcycle.cli import main; "
            f"sys.exit(main(['--machine', *{PERIOD_GOLDEN['period_rho4_report']!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, capture_output=True,
                          text=True, check=True)
    assert_period_golden("period_rho4_report", proc.stdout)


def _script_number(token: str) -> complex | None:
    try:
        return complex(token.removesuffix("i"))
    except ValueError:
        return None


@pytest.mark.parametrize("name", sorted(FLOAT_SCRIPT_GOLDEN))
def test_float_script_golden(name):
    want = (GOLDEN_DIR / f"{name}.txt").read_text().splitlines()
    got = script_output(FLOAT_SCRIPT_GOLDEN[name]).splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_tokens, want_tokens = got_line.split(), want_line.split()
        assert len(got_tokens) == len(want_tokens), got_line
        for g, w in zip(got_tokens, want_tokens):
            x = _script_number(w)
            if x is None:
                assert g == w, got_line
            else:
                assert g.endswith("i") == w.endswith("i"), got_line
                assert abs(_script_number(g) - x) <= PERIOD_RTOL * max(1.0, abs(x)), got_line


def test_no_stray_golden_files():
    expected = {f"{name}.tsv" for name in (*GOLDEN, *PERIOD_GOLDEN)}
    expected |= {f"{name}.txt" for name in (*SCRIPT_GOLDEN, *FLOAT_SCRIPT_GOLDEN)}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


if __name__ == "__main__":
    named = set(sys.argv[1:])
    unknown = named - set(PERIOD_GOLDEN) - set(FLOAT_SCRIPT_GOLDEN)
    if unknown:
        sys.exit(f"not a floating-point golden: {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    machine = {**GOLDEN, **{n: a for n, a in PERIOD_GOLDEN.items() if n in named}}
    for name, argv in machine.items():
        code, out = machine_output(argv)
        assert code == 0, (name, code)
        (GOLDEN_DIR / f"{name}.tsv").write_text(out)
    scripts = {**SCRIPT_GOLDEN,
               **{n: p for n, p in FLOAT_SCRIPT_GOLDEN.items() if n in named}}
    for name, path in scripts.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(script_output(path))
