"""Command-line interface tying the library together.

Machine-first outputs: every subcommand emits CSV or JSON artifacts plus a
compact human summary on stdout. Exit codes: 0 when the requested verdict
holds (or the computation simply succeeds), 2 when a verdict fails, 1 on
usage or numeric errors.

Profile sources are builtin specs (sphere, ellipsoid:R, spindle:D:E,
negative-action:D:E) or paths to profile JSON files written by
`profile make`.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import contact, cz, flow, hopf, profiles, reduced

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT_FAIL = 2


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- profile ---------------------------------------------------------------------


def cmd_profile_make(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rep = profiles.validate(p)
    for line in rep.lines():
        print(line)
    if args.out:
        profiles.save_profile(p, args.out)
        print(f"profile written to {args.out}")
    if args.table:
        t = np.linspace(0.0, p.ell, args.samples)
        g, dg, _ = p.jet(t, 1)
        rows = ["t,gamma,dgamma,curvature"]
        rows += ["%.12g,%.12g,%.12g,%.12g" % row
                 for row in zip(t, g, dg, p.curvature(t))]
        _write_text(args.table, rows)
        print(f"sample table written to {args.table}")
    return EXIT_OK if rep.passed else EXIT_VERDICT_FAIL


def cmd_profile_check(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rep = profiles.validate(p, tol=args.tol)
    for line in rep.lines():
        print(line)
    return EXIT_OK if rep.passed else EXIT_VERDICT_FAIL


# -- contact ---------------------------------------------------------------------


def cmd_contact_bounds(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rep = contact.contact_interval(p)
    for line in rep.lines():
        print(line)
    if args.json_out:
        _write_json(args.json_out, rep.to_dict())
        print(f"report written to {args.json_out}")
    return EXIT_OK


# -- action ----------------------------------------------------------------------


def _least_action(rows) -> tuple:
    """(min action, the lowest-I row whose action ties it up to roundoff).

    Actions tie on the sphere and in +-I pairs on symmetric profiles, so
    the first minimum in list order would follow roundoff across the range.
    """
    acts = np.array([r.action for r in rows])
    least = float(np.min(acts))
    tied = acts - least <= 1e-9 * max(1.0, abs(least))
    return least, min((r for r, t in zip(rows, tied) if t), key=lambda r: r.I)


def cmd_action_scan(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rows = reduced.action_scan(p, args.m, n_levels=args.n_levels,
                               band=args.band)
    lines = reduced.scan_csv_lines(rows)
    if args.out:
        _write_text(args.out, lines)
        print(f"scan written to {args.out}")
    else:
        for line in lines:
            print(line)
    least, row = _least_action(rows)
    print(f"m={args.m:g}: {len(rows)} levels, min action {least:.6g} "
          f"at I={row.I:.6g}")
    return EXIT_OK


# -- flow ------------------------------------------------------------------------


def cmd_flow_trace(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    state0 = _floats(args.state)
    if len(state0) != 3:
        raise ValueError("--state needs t0,phi0,theta0")
    traj = flow.integrate(p, args.m, state0, args.horizon,
                          n_out=args.n_out, rtol=args.rtol, atol=args.atol)
    lines = traj.csv_lines()
    if args.out:
        _write_text(args.out, lines)
        print(f"trace written to {args.out}")
    else:
        for line in lines[:12]:
            print(line)
        if len(lines) > 12:
            print(f"... {len(lines) - 12} more rows (use --out to keep them)")
    print(f"invariant drift {traj.I_drift:.3e} over s={args.horizon:g}, "
          f"nfev={traj.nfev}, pole_terminated={traj.pole_terminated}")
    return EXIT_OK


# -- cz --------------------------------------------------------------------------


def cmd_cz_latitude(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rep = cz.latitude_cz(p, args.m, covers=args.covers, side=args.side)
    iv = rep.result.interval
    print(f"orbit {rep.descriptor}: covers={rep.covers} "
          f"contractible={rep.contractible}")
    print(f"winding interval [{iv.lo:.9f}, {iv.hi:.9f}] "
          f"length {iv.length:.3e}")
    print(f"cz index {rep.result.index} degenerate={rep.result.degenerate} "
          f"predicted transverse turns {rep.predicted_turns:.6f}")
    print(f"reeb period {rep.reeb_period:.9f} det defect {rep.det_defect:.2e}")
    return EXIT_OK


def cmd_cz_report(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    rep = cz.dynamical_convexity_report(p, args.m, n_levels=args.n_levels,
                                        rho_orbits=args.rho_orbits)
    for line in rep.lines():
        print(line)
    if args.json_out:
        _write_json(args.json_out, {
            "m": rep.m, "T0": rep.T0_estimate,
            "rho_sup_empirical": rep.rho_sup_empirical,
            "lhs": rep.lhs, "rhs": rep.rhs, "verdict": rep.verdict})
        print(f"report written to {args.json_out}")
    return EXIT_OK if rep.verdict else EXIT_VERDICT_FAIL


# -- hopf ------------------------------------------------------------------------


def cmd_hopf_verify(args) -> int:
    checks = []
    res = hopf.pullback_residual(args.samples, seed=args.seed)
    checks.append(("pullback residual < 1e-10", res < 1e-10, f"{res:.3e}"))

    rng = np.random.default_rng(args.seed)
    U = rng.normal(size=4)
    U /= np.linalg.norm(U)
    a, b = hopf.p0(U)
    c, d = hopf.p0(-U)
    exact = bool(np.array_equal(a, c) and np.array_equal(b, d))
    checks.append(("p0(U) = p0(-U) exact", exact, ""))

    s = np.linspace(0.0, 2.0 * np.pi, 513)
    circ = np.stack([np.cos(s), np.sin(s),
                     np.zeros_like(s), np.zeros_like(s)], axis=1)
    U1 = rng.normal(size=4)
    U1 /= np.linalg.norm(U1)
    k0 = hopf.KnotPolyline(circ)
    k1 = hopf.KnotPolyline(hopf.quat_mul(circ, U1))
    lk = hopf.gauss_linking(k0, k1)
    checks.append(("Hopf fiber pair linking = +1", lk == 1, f"lk={lk}"))

    scan = hopf.hessian_convexity(lambda z: 2.0, 64, seed=args.seed)
    checks.append(("round Hessian eigenvalue = 1 +- 1e-6",
                   abs(scan.min_eigenvalue - 1.0) < 1e-6,
                   f"{scan.min_eigenvalue:.9f}"))

    ok = True
    for name, passed, detail in checks:
        ok = ok and passed
        print(f"[{'ok ' if passed else 'FAIL'}] {name:<36s} {detail}")
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def _load_knot(path) -> hopf.KnotPolyline:
    with open(path) as fh:
        return hopf.KnotPolyline(np.asarray(json.load(fh), dtype=float))


def cmd_hopf_link(args) -> int:
    k1 = _load_knot(args.knot1)
    k2 = _load_knot(args.knot2)
    lk = hopf.gauss_linking(k1, k2)
    print(f"linking number {lk}")
    return EXIT_OK


def cmd_hopf_lift(args) -> int:
    p = profiles.parse_profile_spec(args.spec)
    with open(args.path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: k for k, name in enumerate(header)}
    for need in ("t", "phi", "theta"):
        if need not in cols:
            raise ValueError(f"CSV is missing a '{need}' column")
    t = data[:, cols["t"]]
    phi = data[:, cols["phi"]]
    theta = data[:, cols["theta"]]
    # arclength rescale onto the round sphere; topology is all that matters
    x, v = hopf.sphere_frames(np.pi * t / p.ell, phi, theta)
    mis = max(float(np.linalg.norm(x[-1] - x[0])),
              float(np.linalg.norm(v[-1] - v[0])))
    if mis < args.snap:
        x[-1] = x[0]
        v[-1] = v[0]
    lift = hopf.lift_path(x, v)
    if lift.closed_after_one is None:
        print(f"open path lifted; endpoint misclose {mis:.3e}")
    else:
        print(f"closed path: lift closes after "
              f"{'one traversal' if lift.closed_after_one else 'two traversals'}")
    print(f"max residual {lift.max_residual:.3e}, "
          f"min step alignment {lift.min_step_alignment:.4f}")
    if args.out:
        _write_json(args.out, [[float(c) for c in row] for row in lift.U])
        print(f"lift written to {args.out}")
    return EXIT_OK


# -- repro -----------------------------------------------------------------------


def cmd_repro_ellipsoids(args) -> int:
    ratios = _floats(args.ratios)
    ms = _floats(args.m)
    rows = ["ratio,m,n_levels,min_action,argmin_I,all_positive"]
    all_pos = True
    tested = 0
    for ratio in ratios:
        p = profiles.make_ellipsoid(ratio)
        for m in ms:
            if not contact.km_positive(p, m):
                continue   # restriction stated with the claim
            scan = reduced.action_scan(p, m, n_levels=args.n_levels)
            least, row = _least_action(scan)
            pos = bool(least > 0.0)
            all_pos = all_pos and pos
            tested += 1
            rows.append("%g,%g,%d,%.12g,%.12g,%s"
                        % (ratio, m, len(scan), least, row.I, pos))
    if args.out:
        _write_text(args.out, rows)
        print(f"table written to {args.out}")
    else:
        for r in rows:
            print(r)
    print(f"verdict: all actions positive on {tested} (ratio, m) pairs: "
          f"{all_pos}")
    return EXIT_OK if all_pos and tested > 0 else EXIT_VERDICT_FAIL


def cmd_repro_noncon(args) -> int:
    p, t_lat = profiles.make_negative_action(args.delta, args.eps)
    lat = reduced.latitude_action(p, t_lat)
    verdict = lat.action < 0.0
    print(f"profile ell={p.ell:.6f}, delta-latitude at t={t_lat:.6f}")
    print(f"latitude m={lat.m_t0:.6f}, action {lat.action:.6f}, "
          f"I={lat.I_value:.6f}")
    print(f"verdict: {'not_contact_witness' if verdict else 'no_witness_found'}")
    if args.json_out:
        _write_json(args.json_out, {
            "delta": args.delta, "eps": args.eps, "t_latitude": t_lat,
            "m": lat.m_t0, "action": lat.action, "I": lat.I_value,
            "verdict": "not_contact_witness" if verdict else
                       "no_witness_found"})
        print(f"witness written to {args.json_out}")
    return EXIT_OK if verdict else EXIT_VERDICT_FAIL


def cmd_repro_bigm(args) -> int:
    # spindle cap radius shrinks like 1/target, pushing the primitive norm up
    eps = 0.2
    delta = 0.8 / (args.target + 1.0)
    p = profiles.make_spindle(delta, eps)
    rep = profiles.validate(p)
    mg = contact.m_gamma(p)
    kmin = contact.min_curvature(p)
    convex = kmin >= -1e-9
    area_ok = rep.passed
    verdict = convex and area_ok and mg > args.target
    print(f"spindle delta={delta:.6f} eps={eps:g}: ell={p.ell:.6f}")
    print(f"min curvature {kmin:.6g} (convex={convex}), "
          f"area residual {abs(p.gamma_integral() - 2.0):.2e}")
    print(f"m_gamma = {mg:.6f} (target {args.target:g})")
    print(f"verdict: {verdict}")
    if args.out:
        profiles.save_profile(p, args.out)
        print(f"profile written to {args.out}")
    return EXIT_OK if verdict else EXIT_VERDICT_FAIL


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant with usage errors on exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_code_on_error(message))

    def exit_code_on_error(self, message) -> int:
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        return EXIT_ERROR


def _add_profile_arg(sp):
    sp.add_argument("spec", help="builtin profile spec or profile JSON path")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="magflow", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="group", required=True)

    g = sub.add_parser("profile", help="construct and validate profiles")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("make", help="build a profile and save it")
    _add_profile_arg(s)
    s.add_argument("--out", help="profile JSON output path")
    s.add_argument("--table", help="CSV sample table output path")
    s.add_argument("--samples", type=int, default=512)
    s.set_defaults(fn=cmd_profile_make)
    s = gs.add_parser("check", help="validate profile conditions")
    _add_profile_arg(s)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(fn=cmd_profile_check)

    g = sub.add_parser("contact", help="certified contact bounds")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("bounds", help="m_gamma and certified intervals")
    _add_profile_arg(s)
    s.add_argument("--json-out", dest="json_out")
    s.set_defaults(fn=cmd_contact_bounds)

    g = sub.add_parser("action", help="reduced-dynamics action scans")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("scan", help="scan A(I) over regular levels")
    _add_profile_arg(s)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--levels", type=int, dest="n_levels", default=33)
    s.add_argument("--band", type=float, default=reduced.LEVEL_BAND,
                   help="share of the invariant range padded at each end")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_action_scan)

    g = sub.add_parser("flow", help="direct trajectory integration")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("trace", help="integrate one trajectory to CSV")
    _add_profile_arg(s)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--state", required=True, help="t0,phi0,theta0")
    s.add_argument("--horizon", type=float, required=True,
                   help="arclength time to integrate")
    s.add_argument("--n-out", type=int, dest="n_out", default=flow.N_OUT)
    s.add_argument("--rtol", type=float, default=flow.RTOL)
    s.add_argument("--atol", type=float, default=flow.ATOL)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_flow_trace)

    g = sub.add_parser("cz", help="Conley-Zehnder indices")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("latitude", help="index of a latitude orbit cover")
    _add_profile_arg(s)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--side", choices=("upper", "lower"), default="upper")
    s.add_argument("--covers", type=int, default=2)
    s.set_defaults(fn=cmd_cz_latitude)
    s = gs.add_parser("report", help="dynamical convexity evidence")
    _add_profile_arg(s)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--levels", type=int, dest="n_levels", default=33)
    s.add_argument("--rho-orbits", type=int, dest="rho_orbits", default=5)
    s.add_argument("--json-out", dest="json_out")
    s.set_defaults(fn=cmd_cz_report)

    g = sub.add_parser("hopf", help="double cover and linking tools")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("verify", help="identity battery for the cover")
    s.add_argument("--samples", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_hopf_verify)
    s = gs.add_parser("link", help="Gauss linking number of two knots")
    s.add_argument("knot1", help="JSON array of unit 4-vectors")
    s.add_argument("knot2", help="JSON array of unit 4-vectors")
    s.set_defaults(fn=cmd_hopf_link)
    s = gs.add_parser("lift", help="lift a coordinate path through the cover")
    s.add_argument("path", help="CSV with t,phi,theta columns")
    s.add_argument("--profile", dest="spec", default="sphere")
    s.add_argument("--snap", type=float, default=1e-4,
                   help="endpoint misclose below this snaps the path closed")
    s.add_argument("--out", help="JSON output for the lifted quaternions")
    s.set_defaults(fn=cmd_hopf_lift)

    g = sub.add_parser("repro", help="reproduction targets")
    gs = g.add_subparsers(dest="cmd", required=True)
    s = gs.add_parser("ellipsoids", help="action positivity across a family")
    s.add_argument("--ratios", default="0.5,1,2,4")
    s.add_argument("--m", default="0.25,0.5,1,2")
    s.add_argument("--levels", type=int, dest="n_levels", default=100)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_repro_ellipsoids)
    s = gs.add_parser("noncon", help="negative-action latitude witness")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--json-out", dest="json_out")
    s.set_defaults(fn=cmd_repro_noncon)
    s = gs.add_parser("bigm", help="convex profile with large m_gamma")
    s.add_argument("--target", type=float, required=True)
    s.add_argument("--out", help="profile JSON output path")
    s.set_defaults(fn=cmd_repro_bigm)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parse_args reads a parser and
    leaves it as it was, and each call returns a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
