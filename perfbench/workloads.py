"""Seeded inputs and operations of the benchmark workloads.

generate(workload, seed) draws every input from the seed with the standard
library's random.Random, so the same seed gives the same inputs on every
platform; magflow only ever sees the generated numbers. A workload is run
as passes: one pass performs every operation of the inputs once, and a run
repeats passes on the same inputs.

Each public magflow call is wrapped in a span (see spans.py) named
"<layer>.<stage>". An operation fails when it raises or when a result
misses its acceptance tolerance; failed operations are counted, never
retried.
"""
from __future__ import annotations

import io
import math
import random
import time
from contextlib import ExitStack, contextmanager, redirect_stdout

import numpy as np

from spans import Tracer, interposed

WORKLOADS = ("scan", "orbits")

# acceptance tolerances, by criterion number of tests/test_acceptance.py
SPHERE_LATITUDE_T0 = 1e-9      # 1: latitude at arctan m
SPHERE_LATITUDE_REL = 1e-6     # 1: latitude action = m^2 + 1
SPHERE_GRID_REL = 1e-4         # 1: level actions = m^2 + 1
DRIFT = 1e-8                   # 5: invariant drift over the trajectory
ODE_QUAD_REL = 1e-3            # 6: ODE against quadrature action
DET_DEFECT = 1e-6              # 7: symplectic determinant defect
WINDING_LENGTH = 0.5           # 7: winding interval length
FIBER_INTERVAL = 1e-6          # 7: fiber x2 interval is [2, 2]
ORBIT_MISCLOSE = 1e-4          # 9: closed orbits close to this
CLOSURE_WINDING = 1e-6         # q * winding within this of p

SCAN_LEVELS = 100
TRAJ_HORIZON = 100.0
TRAJ_OUT = 101
SPINDLE = "spindle:0.07:0.2"


class OracleError(AssertionError):
    """A result outside its acceptance tolerance."""


def _kind(spec: str) -> str:
    head = spec.split(":")[0]
    return {"sphere": "sphere", "ellipsoid": "ellipsoid"}.get(head,
                                                              "stretched")


def _ellipsoid(ratio: float) -> str:
    return f"ellipsoid:{ratio!r}"


# -- input generation ------------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    rnd = random.Random(f"magflow-bench:{workload}:{seed}")
    return {"scan": _gen_scan, "orbits": _gen_orbits}[workload](rnd)


def _gen_scan(rnd) -> dict:
    # one oblate and one prolate ellipsoid cover R in [0.5, 4]
    r_oblate = rnd.uniform(0.5, 0.9)
    r_prolate = rnd.uniform(1.2, 4.0)
    specs = ["sphere", _ellipsoid(r_oblate), _ellipsoid(r_prolate), SPINDLE]
    scans = []
    for spec in specs[:3]:
        for centre in (0.25, 0.8, 2.0):
            scans.append({"spec": spec, "m": centre * rnd.uniform(0.9, 1.1),
                          "levels": SCAN_LEVELS})
    # the stretched kind costs ~8x an ellipsoid per level at m near 0.25 and
    # ~11x near 0.8: one (p, m) of it, at the cheaper m, is half a pass
    scans.append({"spec": SPINDLE, "m": 0.25 * rnd.uniform(0.9, 1.1),
                  "levels": SCAN_LEVELS})
    # closures share (p, m) with the oblate scan near m = 0.8; on prolate
    # shapes their cost triples across R, which a seed must not decide
    closure_scan = scans[3 + 1]
    return {
        "profiles": specs,
        "scans": scans,
        "closures": {"spec": closure_scan["spec"], "m": closure_scan["m"],
                     "levels": 9, "q_max": 3},
        "cli": [["repro", "bigm", "--target",
                 f"{rnd.uniform(8.0, 12.0):.6f}"],
                ["repro", "noncon", "--delta",
                 f"{rnd.uniform(0.08, 0.12):.6f}", "--eps",
                 f"{rnd.uniform(0.85, 0.92):.6f}"]],
    }


# (axis ratio, m) design points spread over criterion 5's domain,
# ratio in [0.5, 2] and m in [0.25, 2]
TRAJ_DESIGN = ((0.6, 1.3), (1.2, 0.4), (1.6, 1.7), (1.9, 0.9))


def _jitter(rnd, centre: float, rel: float = 0.03) -> float:
    return centre * rnd.uniform(1.0 - rel, 1.0 + rel)


def _trajectory_input(rnd, spec: str, m: float) -> dict:
    return {"spec": spec, "m": m, "t0_frac": rnd.uniform(0.49, 0.51),
            "phi0": rnd.uniform(0.35, 0.45),
            "level_index": rnd.randrange(10, 41)}


def _gen_trajectories(rnd) -> dict:
    # A uniform draw of (ratio, m, t0, phi0) makes one operation's cost vary
    # fourfold, and a run's total with it; jittered design points keep the
    # work of every seed within a few percent.
    ops = [_trajectory_input(rnd, _ellipsoid(_jitter(rnd, r)), _jitter(rnd, m))
           for r, m in TRAJ_DESIGN]
    control = _trajectory_input(rnd, "sphere", _jitter(rnd, 1.0))
    spindle = {"spec": SPINDLE, "m": _jitter(rnd, 0.5),
               "t0_frac": rnd.uniform(0.49, 0.51),
               "phi0": rnd.uniform(0.35, 0.45), "horizon": 20.0}
    return {"horizon": TRAJ_HORIZON, "ellipsoids": ops, "sphere": control,
            "spindle": spindle}


# (axis ratio, m) design points for the cz indices of latitudes and fibers
CZ_DESIGN = ((0.6, 0.7), (0.7, 1.3), (0.85, 1.0), (1.6, 0.6), (2.2, 1.2),
             (2.8, 0.8))


def _gen_orbits(rnd) -> dict:
    cz_pairs = [{"spec": _ellipsoid(_jitter(rnd, r)), "m": _jitter(rnd, m)}
                for r, m in CZ_DESIGN]
    cz_pairs.append({"spec": "sphere", "m": _jitter(rnd, 0.05)})
    # The closure search runs at one fixed pair. Its found set jumps with
    # changes of (ratio, m) as small as 0.1%, because the bisection lands
    # on spurious closures at I = +-1. At this pair it finds two q = 5
    # orbits (2560-point knots) and two spurious levels at I = +-1, whose
    # wasted lifts show in hopf.lift_closed_ratio.
    closure = {"spec": _ellipsoid(2.0), "m": 1.0021, "levels": 11, "q_max": 5}
    traj = _gen_trajectories(rnd)
    traj_specs = {op["spec"] for op in traj["ellipsoids"]}
    traj_specs |= {traj["sphere"]["spec"], traj["spindle"]["spec"]}
    return {"profiles": sorted({p["spec"] for p in cz_pairs}
                               | {closure["spec"]} | traj_specs),
            "trajectories": traj,
            "cz": cz_pairs,
            "closures": closure,
            "hopf_verify_seed": rnd.randrange(1 << 16)}


# -- running ---------------------------------------------------------------------


class Pass:
    """Bookkeeping of one pass: operations, failures, counts, worst errors."""

    def __init__(self, tracer: Tracer, speed=None):
        self.tr = tracer
        self.speed = speed               # reference.Speedometer or None
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict = {}
        self.worst: dict = {}
        self.op_names: list[str] = []
        self.op_walls: list[float] = []
        self.op_sample: list[int] = []   # speed samples taken at op start

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        self.op_names.append(name)
        if self.speed is not None:
            self.op_sample.append(len(self.speed.samples))
        t0 = time.perf_counter()
        try:
            with self.tr.span("op", name):
                yield
        except Exception as e:  # an operation's failure must not end the run
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
        finally:
            self.op_walls.append(time.perf_counter() - t0)
            if self.speed is not None:
                self.speed.between_ops()

    def check(self, ok: bool, what: str):
        if not ok:
            raise OracleError(what)

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def error(self, key: str, value: float):
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))


def build_profiles(mf, specs, tr: Tracer) -> dict:
    out = {}
    for spec in specs:
        with tr.span("profiles", "build", kind=_kind(spec)):
            out[spec] = mf.profiles.parse_profile_spec(spec)
    return out


def run_pass(mf, workload: str, inputs: dict, profiles: dict,
             tr: Tracer, speed=None) -> Pass:
    ps = Pass(tr, speed)
    with ExitStack() as stack:
        if tr.enabled:
            _interpose(mf, tr, stack)
        {"scan": _scan, "orbits": _orbits}[workload](mf, inputs, profiles,
                                                     ps)
    return ps


# float64 values per segment pair that hopf._gauss_double_sum holds at its
# peak: r, cross(dX, dY) and r*r, each (n, m, 3), and two (n, m) sums
GAUSS_PEAK_DOUBLES = 11


def _gauss_attrs(X, Y):
    pairs = (len(X) - 1) * (len(Y) - 1)
    return {"segment_pairs": pairs,
            "bytes_computed": 8 * GAUSS_PEAK_DOUBLES * pairs}


def _interpose(mf, tr: Tracer, stack: ExitStack):
    """Stage spans inside cz.latitude_cz, cz.cz_fiber and the Gauss passes
    of hopf.gauss_linking, one per resolution it tries."""
    stack.enter_context(interposed(mf.cz, "integrate_linearized", tr, "cz",
                                   "linearized"))
    stack.enter_context(interposed(mf.cz, "cz_index", tr, "cz", "index"))
    if hasattr(mf.hopf, "_gauss_double_sum"):
        stack.enter_context(interposed(mf.hopf, "_gauss_double_sum", tr,
                                       "hopf", "gauss", attrs=_gauss_attrs))


# -- scan ------------------------------------------------------------------------


def _scan(mf, inp, profiles, ps: Pass):
    tr = ps.tr
    for spec in inp["profiles"]:
        p = profiles[spec]
        kind = _kind(spec)
        with ps.op(f"validate {spec}"):
            with tr.span("profiles", "validate", kind=kind):
                rep = mf.profiles.validate(p)
            ps.check(rep.passed, f"{spec} fails validation")
        with ps.op(f"contact {spec}"):
            with tr.span("contact", "bounds", kind=kind):
                bounds = mf.contact.contact_interval(p)
            if kind == "sphere":
                ps.check(bounds.m_gamma < 1e-8,
                         f"sphere m_gamma {bounds.m_gamma:.3g} >= 1e-8")
            ps.check(math.isfinite(bounds.m_gamma), "m_gamma not finite")
    for sc in inp["scans"]:
        spec, m, n = sc["spec"], sc["m"], sc["levels"]
        with ps.op(f"scan {spec} m={m:.4f}"):
            with tr.span("reduced", "scan", kind=_kind(spec), levels=n):
                rows = mf.reduced.action_scan(profiles[spec], m, n_levels=n)
            ps.count("reduced.scan_rows", len(rows))
            _check_scan(ps, spec, m, n, rows)
    cl = inp["closures"]
    with ps.op("closures"):
        with tr.span("reduced", "closures") as sp:
            found = mf.reduced.rational_closures(
                profiles[cl["spec"]], cl["m"], n_levels=cl["levels"],
                q_max=cl["q_max"])
            sp.set(found=len(found))
        ps.count("reduced.closures_found", len(found))
        for level, info in found:
            err = abs(info.q * level.winding - info.p)
            ps.error("closure_winding", err)
            ps.check(err < CLOSURE_WINDING * info.q,
                     f"closure {info.p}/{info.q} misses by {err:.3g}")
    for argv in inp["cli"]:
        with ps.op(" ".join(argv[:2])):
            with tr.span("cli", "repro", kind=argv[1]):
                rc = _quiet(mf.cli.main, argv)
            ps.check(rc == 0, f"{' '.join(argv)} exited {rc}")


def _check_scan(ps: Pass, spec, m, n, rows):
    ps.check(len(rows) == n + 2, f"{len(rows)} rows, want {n + 2}")
    lat = [r for r in rows if r.t_minus == r.t_plus]
    reg = [r for r in rows if r.t_minus != r.t_plus]
    ps.check(len(lat) == 2, f"{len(lat)} latitude rows, want 2")
    ps.check(all(math.isfinite(r.action) for r in rows), "non-finite action")
    kind = _kind(spec)
    if kind == "sphere":
        want = m * m + 1.0
        t0s = sorted(r.t_minus for r in lat)
        t_err = max(abs(t0s[0] - math.atan(m)),
                    abs(t0s[1] - (math.pi - math.atan(m))))
        lat_rel = max(abs(r.action - want) / want for r in lat)
        grid_rel = max(abs(r.action - want) / want for r in reg)
        ps.error("sphere_latitude_t0", t_err)
        ps.error("sphere_latitude_rel", lat_rel)
        ps.error("sphere_grid_rel", grid_rel)
        ps.check(t_err < SPHERE_LATITUDE_T0, f"latitude t0 off by {t_err:.3g}")
        ps.check(lat_rel < SPHERE_LATITUDE_REL,
                 f"latitude action rel {lat_rel:.3g}")
        ps.check(grid_rel < SPHERE_GRID_REL, f"level action rel {grid_rel:.3g}")
    elif kind == "ellipsoid":
        low = min(r.action for r in rows)
        ps.check(low > 0.0, f"ellipsoid action {low:.6g} <= 0")


def _quiet(fn, *args):
    """Run a CLI entry point with its stdout discarded."""
    with redirect_stdout(io.StringIO()):
        return fn(*args)


# -- trajectories ----------------------------------------------------------------


def _trajectories(mf, inp, ps: Pass):
    """Each operation builds its own profile, as a fresh pair would."""
    for op in inp["ellipsoids"]:
        with ps.op(f"trajectory {op['spec']} m={op['m']:.4f}"):
            _trajectory_op(mf, ps, op, inp["horizon"], closed_form=False)
    with ps.op("trajectory sphere control"):
        _trajectory_op(mf, ps, inp["sphere"], inp["horizon"], closed_form=True)
    sp_in = inp["spindle"]
    with ps.op("trajectory spindle"):
        p = _build(mf, ps, sp_in["spec"])
        _integrate(mf, ps, p, sp_in, sp_in["horizon"])


def _build(mf, ps: Pass, spec: str):
    with ps.tr.span("profiles", "build", kind=_kind(spec)):
        return mf.profiles.parse_profile_spec(spec)


def _integrate(mf, ps: Pass, p, op: dict, horizon: float):
    kind = _kind(op["spec"])
    state0 = (op["t0_frac"] * p.ell, op["phi0"], 0.0)
    with ps.tr.span("flow", "integrate", kind=kind) as sp:
        traj = mf.flow.integrate(p, op["m"], state0, horizon, n_out=TRAJ_OUT)
        sp.set(nfev=traj.nfev)
    ps.count("flow.nfev", traj.nfev)
    ps.error("drift", traj.I_drift)
    ps.check(not traj.pole_terminated, "trajectory hit the pole guard")
    ps.check(traj.I_drift < DRIFT, f"invariant drift {traj.I_drift:.3g}")


def _trajectory_op(mf, ps: Pass, op: dict, horizon: float, closed_form: bool):
    tr = ps.tr
    p = _build(mf, ps, op["spec"])
    m = op["m"]
    _integrate(mf, ps, p, op, horizon)
    with tr.span("reduced", "levels"):
        I = float(mf.reduced.regular_levels(p, m, 51)[op["level_index"]])
    with tr.span("reduced", "cold_level"):
        quad = mf.reduced.birkhoff_action(p, m, I)
    with tr.span("flow", "level_ode"):
        ode = mf.flow.level_average_ode(p, m, I)
    rel = abs(ode.action - quad.action) / abs(quad.action)
    ps.error("ode_quad_rel", rel)
    ps.check(rel < ODE_QUAD_REL, f"ODE vs quadrature action rel {rel:.3g}")
    if closed_form:
        want = m * m + 1.0
        qrel = abs(quad.action - want) / want
        ps.error("sphere_grid_rel", qrel)
        ps.check(qrel < SPHERE_GRID_REL, f"sphere action rel {qrel:.3g}")


# -- orbits ----------------------------------------------------------------------


def _orbits(mf, inp, profiles, ps: Pass):
    tr = ps.tr
    _trajectories(mf, inp["trajectories"], ps)
    for pair in inp["cz"]:
        p, m = profiles[pair["spec"]], pair["m"]
        for side in ("upper", "lower"):
            with ps.op(f"latitude_cz {pair['spec']} {side}"):
                with tr.span("cz", "latitude_cz"):
                    rep = mf.cz.latitude_cz(p, m, covers=2, side=side)
                _check_index(ps, rep)
        with ps.op(f"cz_fiber {pair['spec']}"):
            with tr.span("cz", "cz_fiber"):
                rep = mf.cz.cz_fiber(p, covers=2)
            _check_index(ps, rep)
            iv = rep.result.interval
            ps.check(max(abs(iv.lo - 2.0), abs(iv.hi - 2.0)) < FIBER_INTERVAL
                     and rep.result.index == 3,
                     f"fiber x2 interval [{iv.lo}, {iv.hi}] index "
                     f"{rep.result.index}")
    cl = inp["closures"]
    p, m = profiles[cl["spec"]], cl["m"]
    found = []
    with ps.op("closures"):
        with tr.span("reduced", "closures") as sp:
            found = mf.reduced.rational_closures(p, m, n_levels=cl["levels"],
                                                 q_max=cl["q_max"])
            sp.set(found=len(found))
        ps.count("reduced.closures_found", len(found))
    for level, info in found:
        if not info.contractible or info.q < 2:
            continue
        with ps.op(f"orbit {info.p}/{info.q} I={level.I:.6f}"):
            _orbit_op(mf, ps, p, m, level, info)
    with ps.op("hopf verify"):
        with tr.span("cli", "hopf_verify"):
            rc = _quiet(mf.cli.main, ["hopf", "verify", "--seed",
                                      str(inp["hopf_verify_seed"])])
        ps.check(rc == 0, f"hopf verify exited {rc}")


def _check_index(ps: Pass, rep):
    ps.error("det_defect", rep.det_defect)
    ps.error("winding_length", rep.result.interval.length)
    ps.check(rep.det_defect < DET_DEFECT, f"det defect {rep.det_defect:.3g}")
    ps.check(rep.result.interval.length < WINDING_LENGTH,
             f"winding interval length {rep.result.interval.length:.3g}")


def _orbit_op(mf, ps: Pass, p, m, level, info):
    """Criterion 9 on one closure: a lift that does not close is wasted."""
    tr = ps.tr
    q = info.q
    with tr.span("flow", "band_state"):
        state0 = mf.flow.band_state(p, m, level.I)
    with tr.span("flow", "integrate", kind="ellipsoid") as sp:
        traj = mf.flow.integrate(p, m, state0, q * level.period,
                                 n_out=1600 * q + 1)
        sp.set(nfev=traj.nfev)
    ps.count("flow.nfev", traj.nfev)
    with tr.span("hopf", "frames"):
        x, v = mf.hopf.sphere_frames(np.pi * traj.t / p.ell, traj.phi,
                                     traj.theta)
    ps.count("hopf.lift_attempts")
    mis = max(float(np.linalg.norm(x[-1] - x[0])),
              float(np.linalg.norm(v[-1] - v[0])))
    if mis > ORBIT_MISCLOSE:
        return
    x[-1] = x[0]
    v[-1] = v[0]
    with tr.span("hopf", "lift", samples=len(x)):
        lift = mf.hopf.lift_path(x, v)
    if lift.closed_after_one is not True:
        return
    ps.count("hopf.lift_closed")
    n = max(1024, 512 * q)
    with tr.span("hopf", "knot"):
        knot = mf.hopf.knot_from_samples(lift.U, n=n)
    with tr.span("hopf", "link", segment_pairs=n * n):
        rep = mf.hopf.antipodal_link_parity(knot)
    ps.count("hopf.link_segment_pairs", n * n)
    ps.check(rep.disjoint and rep.even,
             f"antipodal linking {rep.lk} (disjoint={rep.disjoint})")
