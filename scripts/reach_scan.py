#!/usr/bin/env python3
"""List the functions of ``src/torcycle`` that no product entry point reaches.

Under ``sys.setprofile``, in this process, it runs:

* every command of ``GOLDEN`` and ``PERIOD_GOLDEN`` in
  ``tests/test_golden.py`` through ``cli.main``, with and without
  ``--machine``;
* ``selftest``, and one ``period rho4`` with explicit ``--tol`` and
  ``--eps``;
* the four report scripts, ``period_scan.py`` on a few curves;
* sessions k = 0, 1, 2 of each perfbench workload at a fixed seed, through
  ``perfbench/jobs.run_job``.

It then prints, one ``module.qualname`` a line, each function (a ``def``,
nested ones included) of ``src/torcycle`` whose code none of them entered,
except those in ``ALLOWED``, and then each ``ALLOWED`` entry that names
no function of the package, so the allow-list cannot go stale.  Empty
output means every function is reached and every allowance is in use.
Run it from anywhere, in a fresh interpreter (memos warmed earlier in the
process would hide calls):

    python3 scripts/reach_scan.py
"""

import ast
import contextlib
import inspect
import io
import os
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "torcycle"

#: Goldens whose argv the scan runs, read from the test module's source so
#: that the test runner need not be importable here.
GOLDEN_NAMES = ("_CHERN", "_CHERN_AG", "_CTP", "GOLDEN", "PERIOD_GOLDEN")
SCRIPTS = (["chern_table.py"], ["period_scan.py", "--curves", "3"],
           ["rho4_scan.py"], ["torelli_report.py"])
PERIOD_ARGV = ["period", "rho4", "--tol", "1e-9", "--eps", "0.04"]
PERFBENCH_WORKLOADS = ("headline", "census_periods")
PERFBENCH_SEED = 0
PERFBENCH_SESSIONS = 3

#: Value-protocol dunders the entry points need not reach, each with its reason.
ALLOWED = {
    "algebra._LinearCombination.__hash__": "__eq__ is defined, so equal classes must hash equal",
}


def golden_commands() -> list[list[str]]:
    """The argv of every ``GOLDEN`` and ``PERIOD_GOLDEN`` entry."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in GOLDEN_NAMES for t in node.targets)]
    namespace: dict = {}
    exec(compile(ast.Module(body, []), "test_golden.py", "exec"), namespace)
    return [*namespace["GOLDEN"].values(), *namespace["PERIOD_GOLDEN"].values()]


def run_entry_points() -> None:
    from torcycle import cli

    for argv in [*golden_commands(), PERIOD_ARGV, ["selftest"]]:
        for mode in (["--machine"], []):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*mode, *argv])
            if code != 0:
                raise SystemExit(f"{' '.join(mode + argv)} exited {code}")
    for script, *args in SCRIPTS:
        path = str(ROOT / "scripts" / script)
        sys.argv = [path, *args]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import jobs

    for workload in PERFBENCH_WORKLOADS:
        sessions = inputs.sessions(workload, PERFBENCH_SEED)
        for _ in range(PERFBENCH_SESSIONS):
            for job in next(sessions):
                jobs.run_job(job)


def defined_functions() -> dict[tuple[str, int, str], str]:
    """``(file, first line, qualname)`` of every ``def`` in the package,
    mapped to its ``module.qualname``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # a function body, not a class body, module, lambda or comprehension
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def main() -> int:
    os.chdir(ROOT)  # the scripts find src/ relative to the working directory
    sys.path.insert(0, str(SRC))
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code  # holding the code keeps its id unique

    sys.setprofile(profile)
    try:
        run_entry_points()
    finally:
        sys.setprofile(None)
    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in entered.values()}
    defined = defined_functions()
    for key, name in sorted(defined.items(), key=lambda kv: kv[1]):
        if key not in reached and name not in ALLOWED:
            print(name)
    for name in sorted(ALLOWED.keys() - defined.values()):
        print(f"{name} (allowed, but no such function)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
