"""The torcycle benchmark.

    python3 perfbench/run.py --workload {headline,census_periods} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  A workload is a sequence of sessions; a
session is a fresh interpreter (``worker.py``) that imports ``torcycle.cli``
and runs one seeded job list.  Sessions run one after another for
``--seconds`` (a closed loop with one client), so this process and one
worker fit the two cores of the reference machine.  Every job's output is checked
afterwards against references that do not come from torcycle
(``checks.py``).

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (see ``end_to_end``).  ``--trace 1`` runs each job
list twice, untraced and then traced by the outside-in tracer
(``tracer.py``); it reports the per-layer metrics from the traced sessions,
requires their outputs to be byte-identical to the untraced ones, and also
prints the end-to-end metrics of the untraced sessions.

Human-readable ``metric<TAB>value<TAB>unit<TAB>note`` lines come first; the
last line is the JSON result.  The process exits 0 with a result, or
nonzero without one when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import inputs
from worker import SETUP_FAILED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SESSION_TIMEOUT_S = 120
#: Keep numpy's BLAS to the worker's one core: with this process, two cores.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: The tail percentile, fixed so that runs of faster and slower commits
#: are read at the same rank.  A 60-second run holds 37 to 52 headline and
#: 43 to 63 census_periods sessions at the seed commit, which leaves 11 or
#: more sessions beyond p70 on each workload.
TAIL_PERCENT = 70
#: Median ``worker.calibrate`` time on the reference machine (shared 2-core
#: x86-64 host, Python 3.11) at the seed commit; it fixes the unit of the
#: scaled times and nothing else.
REFERENCE_CALIBRATION_S = 0.0063


class SetupFailure(RuntimeError):
    """The program could not be imported, so nothing can be measured."""


def run_session(jobs: list, trace: bool, hashseed: int, spans_out: str | None = None) -> dict | None:
    """One fresh worker process; its report, or None if it crashed."""
    request = json.dumps({"jobs": jobs, "trace": trace, "spans_out": spans_out})
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), **ONE_THREAD)
    try:
        proc = subprocess.run([sys.executable, WORKER], input=request, text=True,
                              capture_output=True, env=env, cwd=ROOT,
                              timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode == SETUP_FAILED:
        raise SetupFailure(proc.stderr.strip())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Sessions run within ``seconds``, the warm-up session included; each
    entry holds the job list and the untraced report ("plain"), plus the
    traced report when tracing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "torcycle", "cli.py")):
        raise SetupFailure("no torcycle sources under src/")
    hashseed = seed % 2**32
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}.tsv") if trace else None
    start = time.perf_counter()
    # byte-compile and warm the file cache, as after an install
    if run_session([], False, hashseed) is None:
        raise SetupFailure("a session with no jobs failed")
    sessions = []
    job_lists = inputs.sessions(workload, seed)
    last = 0.0
    # start a session only if it should end within the budget, judged by
    # the wall time of the one before; always run at least one
    while not sessions or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        jobs = next(job_lists)
        entry = {"jobs": jobs, "plain": run_session(jobs, False, hashseed)}
        if trace:
            entry["traced"] = run_session(jobs, True, hashseed, spans_out)
        sessions.append(entry)
        last = time.perf_counter() - t0
    return sessions


def grade(sessions: list[dict], trace: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  A job fails if it raises, exits
    nonzero or fails its check; a crashed session fails every job; a traced
    job fails if its output differs from the untraced run's."""
    attempted = failed = 0
    reasons = []
    for entry in sessions:
        jobs = entry["jobs"]
        runs = ["plain", "traced"] if trace else ["plain"]
        for run in runs:
            attempted += len(jobs)
            rep = entry[run]
            if rep is None:
                failed += len(jobs)
                reasons.append(f"{run} session crashed")
                continue
            for k, (job, res) in enumerate(zip(jobs, rep["results"])):
                if res["error"] is not None:
                    reason = res["error"]
                elif res["code"] != 0:
                    reason = f"exit code {res['code']}"
                elif run == "traced":
                    plain = entry["plain"]
                    same = plain is not None and plain["results"][k]["out"] == res["out"]
                    reason = None if same else "traced output differs from untraced"
                else:
                    try:
                        reason = checks.check_job(job, res["out"])
                    except Exception as exc:  # output the check cannot read
                        reason = f"unreadable output: {type(exc).__name__}: {exc}"
                if reason is not None:
                    failed += 1
                    reasons.append(f"{job['kind']}: {reason}")
    return attempted, failed, reasons


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics over the sessions' reports, and the wall
    times they were scaled from.

    The host is shared, and the speed it gives a session drifts by up to a
    factor of two, from one session to the next and over minutes.  So each
    session's times are scaled by how fast the host ran a fixed loop in that
    session (``worker.calibrate``): the reported seconds are those of a host
    running the loop at the reference speed.  The wall times are printed
    too."""
    n = len(reports)
    rank = math.ceil(TAIL_PERCENT * n / 100)  # nearest rank, 1-based
    speed = [REFERENCE_CALIBRATION_S / r["calibration_s"] for r in reports]
    notes = {
        "setup_s": f"median of {n} sessions",
        "solve_s": f"median of {n} sessions",
        "solve_s.tail": f"p{TAIL_PERCENT} of {n} sessions, {n - rank} beyond it",
    }

    def times(factors):
        setups = [k * r["setup_s"] for k, r in zip(factors, reports)]
        solves = sorted(k * r["solve_s"] for k, r in zip(factors, reports))
        return {"setup_s": _median(setups), "solve_s": _median(solves),
                "solve_s.tail": solves[rank - 1]}

    metrics = {name: (value, "s", notes[name] + ", at reference host speed")
               for name, value in times(speed).items()}
    shown = {name + ".wall": (value, "s", notes[name])
             for name, value in times([1.0] * n).items()}
    metrics["peak_rss_mb"] = (_median([r["maxrss_kb"] / 1024 for r in reports]), "MB",
                              f"median of {n} sessions' peak RSS (VmHWM)")
    shown["host.speed"] = (_median(speed), "ratio",
                           f"median over {n} sessions of reference over calibration time")
    return metrics, shown


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """The per-layer metrics, per traced session, from (untraced, traced)
    report pairs."""
    traced = [t for _, t in pairs]
    n = len(traced)
    calls, self_s, total_s, counts = Counter(), Counter(), Counter(), Counter()
    for rep in traced:
        calls.update(rep["trace"]["calls"])
        self_s.update(rep["trace"]["self_s"])
        total_s.update(rep["trace"]["total_s"])
        counts.update(rep["trace"]["counts"])
    hits = sum(r["canon_hits"] for r in traced)
    misses = sum(r["canon_misses"] for r in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def c(name):
        return calls[name] / n

    def s(*names):
        return sum(self_s[x] for x in names) / n

    integrals = calls["period.contour_integrate"] + calls["period.segment_integrate"]
    note = f"per traced session, {n} sessions"
    rows = [
        ("tautring.TautClass.init.calls", c("tautring.TautClass.init"), "count"),
        ("tautring.TautClass.init.self_s", s("tautring.TautClass.init"), "s"),
        ("tautring.TautClass.terms", counts["tautring.TautClass.terms"] / n, "count"),
        ("tautring.ProductClass.init.calls", c("tautring.ProductClass.init"), "count"),
        ("tautring.ProductClass.init.self_s", s("tautring.ProductClass.init"), "s"),
        ("tautring.canonicalize.calls", c("tautring.canonicalize"), "count"),
        ("tautring.canonicalize.self_s", s("tautring.canonicalize"), "s"),
        ("tautring.canonicalize.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("tautring.multiply.self_s", s("tautring.multiply"), "s"),
        ("tautring.gluing.self_s", s("tautring.pullback_gluing", "tautring.pushforward_gluing"), "s"),
        ("tautring.forgetful.self_s",
         s("tautring.pullback_forgetful", "tautring.pushforward_forgetful"), "s"),
        ("tautring.kappa1_expand.self_s", s("tautring.kappa1_expand"), "s"),
        ("chern.chern_tangent_moduli.calls", c("chern.chern_tangent_moduli"), "count"),
        ("chern.ch_tangent.self_s", s("chern.ch_tangent"), "s"),
        ("chern.ch_tangent_Ag.self_s", s("chern.ch_tangent_Ag"), "s"),
        ("algebra.chern_from_ch.self_s", s("algebra.chern_from_ch"), "s"),
        ("pipeline.t_pullback_g4.calls", c("pipeline.t_pullback_g4"), "count"),
        ("pipeline.t_pullback_g5.total_s", total_s["pipeline.t_pullback_g5"] / n, "s"),
        ("pipeline.t_pushforward_Abar4.total_s", total_s["pipeline.t_pushforward_Abar4"] / n, "s"),
        ("excess.multiplicity.self_s", s("excess.multiplicity"), "s"),
        ("cli.main.self_s", s("cli.main"), "s"),
        ("setup.modules_loaded", _median([r["modules_loaded"] for r in traced]), "count"),
        ("setup.numpy_loaded", _median([int(r["numpy_loaded"]) for r in traced]), "bool"),
        ("ctp.enumerate_stable_trees.self_s", s("ctp.enumerate_stable_trees"), "s"),
        ("ctp.tree_yield", ratio(counts["ctp.trees_returned"],
                                 counts["ctp.canonicalize_in_trees"]), "ratio"),
        ("ctp.canonical_component.calls", c("ctp.canonical_component"), "count"),
        ("ctp.canonical_component.self_s", s("ctp.canonical_component"), "s"),
        ("ctp.enumerate_components.self_s", s("ctp.enumerate_components"), "s"),
        ("ctp.check_pairing.calls", c("ctp.check_pairing"), "count"),
        ("ctp.check_pairing.self_s", s("ctp.check_pairing"), "s"),
        ("ctp.pairing_equivalent.self_s", s("ctp.pairing_equivalent"), "s"),
        ("ctp.checks_per_equivalence", ratio(counts["ctp.checks_in_equivalence"],
                                             calls["ctp.pairing_equivalent"]), "ratio"),
        # share of equivalence calls that compare completions (two per call)
        ("ctp.equivalence_completion_share",
         ratio(counts["ctp.completions_in_equivalence"], 2 * calls["ctp.pairing_equivalent"]), "ratio"),
        ("period.contour_integrate.calls", c("period.contour_integrate"), "count"),
        ("period.contour_integrate.self_s", s("period.contour_integrate"), "s"),
        # gauss_segment is public, so it has its own span; it runs the node
        # loop of segment_integrate and has no other caller
        ("period.segment_integrate.self_s",
         s("period.segment_integrate", "period.gauss_segment"), "s"),
        ("period.integrand_evals", counts["period.integrand_evals"] / n, "count"),
        ("period.evals_per_integral", ratio(counts["period.integrand_evals"], integrals), "ratio"),
        ("period.cauchy_kernel_coeffs.total_s", total_s["period.cauchy_kernel_coeffs"] / n, "s"),
        ("period.y_taylor_by_circle.self_s", s("period.y_taylor_by_circle"), "s"),
    ]
    layers = {name: (value, unit, note) for name, value, unit in rows}
    layers["session.cpu_s"] = (_median([p["cpu_s"] for p, _ in pairs]), "s",
                               f"median CPU time of {n} untraced solve phases")
    layers["trace.overhead_ratio"] = (
        ratio(_median([t["solve_s"] for t in traced]), _median([p["solve_s"] for p, _ in pairs])),
        "ratio", f"median traced over median untraced solve_s, {n} pairs")
    return layers


def environment() -> str:
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "absent"
    return (f"python {platform.python_version()}, numpy {np_version}, "
            f"os.cpu_count() {os.cpu_count()}")


def evaluate(sessions: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """The JSON result and the human-readable lines before it."""
    attempted, failed, reasons = grade(sessions, trace)
    plain = [e["plain"] for e in sessions if e["plain"] is not None]
    e2e, wall = end_to_end(plain) if plain else ({}, {})
    shown = dict(e2e, **wall)
    reported = e2e
    if trace:
        pairs = [(e["plain"], e["traced"]) for e in sessions
                 if e["plain"] is not None and e["traced"] is not None]
        reported = per_layer(pairs) if pairs else {}
        shown.update(reported)
    lines = [f"# {environment()}",
             f"error_rate\t{failed / attempted!r}\tratio\t{failed} of {attempted} jobs failed"]
    lines += [f"{name}\t{value!r}\t{unit}\t{note}" for name, (value, unit, note) in shown.items()]
    lines += [f"# failed: {r}" for r in reasons[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.SESSION_MAKERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        sessions = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailure as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    result, lines = evaluate(sessions, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
