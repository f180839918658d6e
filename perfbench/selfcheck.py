"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. The tree reference reproduces the known positive-genus counts 14, 35
   and 85 at g = 5, 6, 7.
2. A planted wrong expected value shows up as failed jobs in the result,
   not as a crash; so does output the checks cannot parse.
3. Two traced runs of one seed give identical counts (calls per function,
   offered terms, integrand evaluations, canonicalize hits and misses) on
   every workload, and traced outputs equal untraced ones.
4. Both trace settings report exactly the metrics, with the units, that
   BENCHMARK.json lists.
5. A session charges a lazy import to the solve phase: with a stub
   ``torcycle.cli`` that imports numpy inside ``main``, numpy leaves
   setup_s and numpy_loaded, shows in solve_s, and peak RSS follows
   whether a job needed it.
6. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import inputs
import run


def known_tree_counts() -> str | None:
    for g, known in checks.KNOWN_POSITIVE_TREE_COUNTS.items():
        got = len(checks.expected_trees(g, True, None))
        if got != known:
            return f"reference gives {got} trees at g={g}, known {known}"
    return None


def planted_failure() -> str | None:
    saved = checks.HEADLINE_EXPECTED["m33"]
    checks.HEADLINE_EXPECTED["m33"] = "-21"
    try:
        sessions = run.measure("headline", 1, 0.0, False)
        result, _ = run.evaluate(sessions, False)
    finally:
        checks.HEADLINE_EXPECTED["m33"] = saved
    n = len(sessions)
    if result["correct"] or result["failed"] != n or result["attempted"] != 6 * n:
        return f"planted value gave {result}"
    return None


def unreadable_output() -> str | None:
    jobs = [{"kind": "trees", "g": 5, "positive_only": True, "max_edges": None},
            {"kind": "G", "i": 1},
            {"kind": "period_matrix"}]
    outs = ["V 1 4; X 0-1\n", "contour\t1.0\t0.0\t0.0\n", "tau_11\t0.0\t1.0\t0.0\n"]
    results = [{"out": out, "code": 0, "error": None} for out in outs]
    attempted, failed, reasons = run.grade([{"jobs": jobs, "plain": {"results": results}}], False)
    if (attempted, failed) != (3, 3):
        return f"{failed} of {attempted} unreadable outputs failed: {reasons}"
    return None


#: Stub ``torcycle.cli`` modules: numpy imported at set-up, or only by a
#: job that asks for it.
STUB_CLI = {
    "eager": "import numpy\n\n\ndef main(argv):\n    print('ok')\n    return 0\n",
    "lazy": ("def main(argv):\n    if argv == ['numpy']:\n        import numpy\n"
             "    print('ok')\n    return 0\n"),
}


def _stub_session(cli_source: str, argv: list) -> dict:
    root = os.path.join(run.OUT_DIR, "stub")
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = os.path.join(root, "src", "torcycle")
    os.makedirs(pkg)
    open(os.path.join(pkg, "__init__.py"), "w").close()
    with open(os.path.join(pkg, "cli.py"), "w") as fh:
        fh.write(cli_source)
    request = {"jobs": [{"kind": "cli", "argv": argv}], "trace": False, "spans_out": None}
    try:
        proc = subprocess.run([sys.executable, "perfbench/worker.py"], input=json.dumps(request),
                              cwd=root, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, **run.ONE_THREAD))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return json.loads(proc.stdout.splitlines()[-1])


def lazy_import() -> str | None:
    eager = _stub_session(STUB_CLI["eager"], ["numpy"])
    lazy = _stub_session(STUB_CLI["lazy"], ["numpy"])
    lazy_unused = _stub_session(STUB_CLI["lazy"], [])
    if any(r["results"][0]["out"] != "ok\n" for r in (eager, lazy, lazy_unused)):
        return "a stub session did not run its job"
    if not eager["numpy_loaded"] or lazy["numpy_loaded"]:
        return "numpy_loaded does not follow the stub's import"
    if not (eager["setup_s"] > lazy["setup_s"] and lazy["solve_s"] > eager["solve_s"]):
        return (f"numpy's import not charged to solve_s: eager {eager['setup_s']}, "
                f"{eager['solve_s']}; lazy {lazy['setup_s']}, {lazy['solve_s']}")
    if not lazy_unused["maxrss_kb"] < min(eager["maxrss_kb"], lazy["maxrss_kb"]):
        return (f"peak RSS does not drop when no job imports numpy: {lazy_unused['maxrss_kb']} kB "
                f"against {eager['maxrss_kb']} and {lazy['maxrss_kb']} kB")
    return None


def _counts(report: dict) -> dict:
    trace = report["trace"]
    return {"calls": trace["calls"], "counts": trace["counts"],
            "canon": (report["canon_hits"], report["canon_misses"])}


def repeatable_counts() -> str | None:
    for workload in inputs.SESSION_MAKERS:
        first, second = (run.measure(workload, 5, 0.0, True) for _ in range(2))
        for sessions in (first, second):
            result, lines = run.evaluate(sessions, True)
            if not result["correct"]:
                return f"{workload}: traced run not correct: {lines}"
        if _counts(first[0]["traced"]) != _counts(second[0]["traced"]):
            return f"{workload}: counts differ between two traced runs"
    return None


def declared_metrics() -> str | None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.evaluate(run.measure("headline", 2, 0.0, trace), trace)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[key]}
        if got != want:
            return f"{key}: reported {sorted(got.items())}, declared {sorted(want.items())}"
    return None


def bare_directory() -> str | None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "headline",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return f"exit {proc.returncode} with stdout {proc.stdout!r}"
    return None


def main() -> int:
    failures = 0
    for check in (known_tree_counts, planted_failure, unreadable_output, repeatable_counts,
                  declared_metrics, lazy_import, bare_directory):
        problem = check()
        print(f"{check.__name__}\t{'ok' if problem is None else 'FAIL: ' + problem}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
