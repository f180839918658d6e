"""One benchmark session: a fresh interpreter that imports ``torcycle.cli``
and runs one job list, one job at a time.

Reads ``{"jobs": [...], "trace": bool, "spans_out": path or null}`` as JSON
on stdin and writes one JSON object as the last line of stdout.  Set-up is
the import of ``torcycle.cli``; the solve phase is the job loop.  Output
rendering is part of each job; checking is not done here.  Before set-up
the session times a fixed loop (``calibrate``), by which ``run.py`` scales
its times to a reference host speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Exit status when torcycle cannot be imported.
SETUP_FAILED = 3
#: Layer functions whose inclusive time is reported.
TOTAL_NAMES = ("pipeline.t_pullback_g5", "pipeline.t_pushforward_Abar4",
               "period.cauchy_kernel_coeffs")


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  ``ru_maxrss`` is only the
    fallback: Linux carries the parent's peak over fork and exec into it, so
    it reads the size of ``run.py`` whenever that is the larger."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind of work torcycle
    does (tuple keys, dict updates, sorting, integer arithmetic): the median
    of five rounds, so that one interruption does not decide it.  It runs
    before the program is imported, so no commit of the program changes
    it; it follows only the speed the host gives this session."""
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(6000):
            key = (i % 97, i % 89, i % 13)
            acc[key] = acc.get(key, 0) + len(sorted(key)) + i * i % 7
        rounds.append(time.perf_counter() - t0)
    return sorted(rounds)[2]


def main() -> int:
    request = json.load(sys.stdin)
    calibration_s = calibrate()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modules_before = len(sys.modules)
    t0 = time.perf_counter()
    try:
        import torcycle.cli  # noqa: F401  (the set-up being measured)
    except ImportError as exc:
        print(f"cannot import torcycle.cli: {exc}", file=sys.stderr)
        return SETUP_FAILED
    setup_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - modules_before
    numpy_loaded = "numpy" in sys.modules

    import jobs

    # An untraced session loads nothing of the program outside the timers.
    # A traced one loads every layer first, as the tracer wraps them all.
    tr = None
    if request["trace"]:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        from torcycle import tautring

        cache0 = tautring.canonicalize.cache_info()
    results = []
    c0, t1 = time.process_time(), time.perf_counter()
    for job in request["jobs"]:
        try:
            out, code = jobs.run_job(job)
            results.append({"out": out, "code": code, "error": None})
        except Exception as exc:  # a failed job is recorded, not fatal
            results.append({"out": "", "code": None,
                            "error": f"{type(exc).__name__}: {exc}"})
    solve_s, cpu_s = time.perf_counter() - t1, time.process_time() - c0
    report = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "maxrss_kb": peak_rss_kb(),
        "modules_loaded": modules_loaded,
        "numpy_loaded": numpy_loaded,
        "calibration_s": calibration_s,
        "results": results,
    }
    if tr is not None:
        tr.restore()
        cache1 = tautring.canonicalize.cache_info()
        report["canon_hits"] = cache1.hits - cache0.hits
        report["canon_misses"] = cache1.misses - cache0.misses
        report["trace"] = tr.summary(TOTAL_NAMES)
        if request.get("spans_out"):
            tr.write_spans(request["spans_out"])
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
