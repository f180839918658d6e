"""Run one job in a session and render its output as text.

Each runner imports the torcycle modules it needs when it runs, inside the
timed solve phase, so that whatever the program does not load at set-up
(a lazy import, say) is charged to the job that loads it.  Every public
function is reached through its module attribute at call time, which is
what lets the tracer substitute it.
"""

from __future__ import annotations

import contextlib
import io


def _run_cli(job: dict) -> tuple[str, int]:
    from torcycle import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
    return buf.getvalue(), code


def _run_trees(job: dict) -> tuple[str, int]:
    from torcycle import ctp, tautring

    trees = ctp.enumerate_stable_trees(job["g"], job["positive_only"], job["max_edges"])
    return "".join(tautring.gen_to_string(t) + "\n" for t in trees), 0


def _run_components(job: dict) -> tuple[str, int]:
    from torcycle import ctp

    comps = ctp.enumerate_components(job["g"], job["max_edges"])
    return "".join(c.to_string() + "\n" for c in comps), 0


def _pairing(p):
    from torcycle import ctp

    genus, left, right, blue, red = p
    return ctp.HalfEdgePairing(genus, left, right,
                               tuple(map(tuple, blue)), tuple(map(tuple, red)))


def _run_pairings(job: dict) -> tuple[str, int]:
    from torcycle import ctp

    ps = [_pairing(p) for p in job["pairings"]]
    verdicts = "".join("T" if ctp.check_pairing(p) else "F" for p in ps)
    equiv = "".join("T" if ctp.pairing_equivalent(ps[a], ps[b]) else "F"
                    for a, b in job["equiv"])
    return verdicts + "\n" + equiv, 0


def _curve(roots):
    from torcycle import period

    return period.HyperellipticCurve(tuple(roots))


def _run_period_matrix(job: dict) -> tuple[str, int]:
    from torcycle import period

    tau, err = period.period_matrix(_curve(job["roots"]), job["tol"])
    return "".join(f"tau_{i + 1}{j + 1}\t{tau[i][j].real!r}\t{tau[i][j].imag!r}\t{err!r}\n"
                   for i in range(2) for j in range(2)), 0


def _run_rho4(job: dict) -> tuple[str, int]:
    from torcycle import period

    cfg = period.PeriodConfig(eps=job["eps"], tol=job["tol"],
                              curve1=_curve(job["curve1"]),
                              curve2=_curve(job["curve2"]))
    cert = period.rho4(cfg)
    return (f"rho4\t{cert.value.real!r}\t{cert.value.imag!r}\n"
            f"err\t{cert.quadrature_error!r}\n"
            f"passed\t{str(cert.passed).lower()}\n"), 0


def _run_G(job: dict) -> tuple[str, int]:
    from torcycle import period

    curve = _curve(job["roots"])
    lines = []
    for rule in ("contour", "segments"):
        val, err = period.compute_G(curve, job["i"], job["eps"], job["tol"], rule)
        lines.append(f"{rule}\t{val.real!r}\t{val.imag!r}\t{err!r}\n")
    return "".join(lines), 0


RUNNERS = {
    "cli": _run_cli,
    "trees": _run_trees,
    "components": _run_components,
    "pairings": _run_pairings,
    "period_matrix": _run_period_matrix,
    "rho4": _run_rho4,
    "G": _run_G,
}


def run_job(job: dict) -> tuple[str, int]:
    """(rendered output, exit code) of one job; exceptions propagate."""
    return RUNNERS[job["kind"]](job)
