"""End-to-end and per-layer metrics of a run.

Per-layer metrics come from the spans of the traced passes (set-up spans
included for profile construction). Per-call times are means over every
call in those passes; counts are per pass, and the run checks that they
repeat exactly between passes. A layer that does not run in a workload
reports 0 for its metrics.
"""
from __future__ import annotations

import statistics

from spans import LAYERS, layer_covered, self_times

KINDS = ("sphere", "ellipsoid", "stretched")


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, wall_s: float, rss_mb: float) -> dict:
    return {"setup_s": _m(setup_s, "s"), "wall_s": _m(wall_s, "s"),
            "peak_rss_mb": _m(rss_mb, "MB")}


def _select(spans, layer, name, kind=None):
    return [s for s in spans if s.layer == layer and s.name == name
            and (kind is None or s.attrs.get("kind") == kind)]


def _mean_ms(spans) -> float:
    return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, traced_passes: list,
                  untraced_walls: list) -> tuple:
    """(metrics, self-time table) from the traced passes' spans."""
    n_pass = len(traced_passes)
    pass_ids = {s.pass_id for s in spans if s.pass_id >= 0}
    in_pass = [s for s in spans if s.pass_id in pass_ids]
    per_pass = lambda x: x / n_pass
    out = {}

    # a layer's calls are the layer spans with no layer span above them;
    # stage spans inside a call (cz.index, hopf.gauss under cli) are not
    by_id = {s.id: s for s in spans}

    def nested(s) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.layer in LAYERS:
                return True
            p = by_id.get(p.parent)
        return False

    top = [s for s in in_pass if s.layer in LAYERS and not nested(s)]
    for layer in LAYERS:
        outer = [s for s in top if s.layer == layer]
        out[f"{layer}.calls"] = _m(per_pass(len(outer)), "count")
        out[f"{layer}.busy_s"] = _m(per_pass(
            sum(s.duration for s in outer)), "s")
        out[f"{layer}.errors"] = _m(per_pass(
            sum(1 for s in outer if s.error)), "count")

    for kind in ("ellipsoid", "stretched"):
        out[f"profiles.build_ms.{kind}"] = _m(
            _mean_ms(_select(spans, "profiles", "build", kind)), "ms")
    for kind in KINDS:
        out[f"profiles.validate_ms.{kind}"] = _m(
            _mean_ms(_select(in_pass, "profiles", "validate", kind)), "ms")
        out[f"contact.bounds_ms.{kind}"] = _m(
            _mean_ms(_select(in_pass, "contact", "bounds", kind)), "ms")
        scans = _select(in_pass, "reduced", "scan", kind)
        out[f"reduced.scan_ms_per_level.{kind}"] = _m(_ratio(
            1e3 * sum(s.duration for s in scans),
            sum(s.attrs["levels"] for s in scans)), "ms")

    closures = _select(in_pass, "reduced", "closures")
    out["reduced.closures_ms"] = _m(_mean_ms(closures), "ms")
    out["reduced.closures_found"] = _m(per_pass(
        sum(s.attrs.get("found", 0) for s in closures)), "count")
    out["reduced.cold_level_ms"] = _m(
        _mean_ms(_select(in_pass, "reduced", "cold_level")), "ms")

    integ = _select(in_pass, "flow", "integrate")
    out["flow.integrate_ms"] = _m(_mean_ms(integ), "ms")
    out["flow.nfev"] = _m(per_pass(
        sum(s.attrs.get("nfev", 0) for s in integ)), "count")
    for kind in KINDS:
        ks = [s for s in integ if s.attrs.get("kind") == kind]
        out[f"flow.rhs_us_per_eval.{kind}"] = _m(_ratio(
            1e6 * sum(s.duration for s in ks),
            sum(s.attrs.get("nfev", 0) for s in ks)), "us")
    out["flow.level_ode_ms"] = _m(
        _mean_ms(_select(in_pass, "flow", "level_ode")), "ms")

    out["cz.linearized_ms"] = _m(
        _mean_ms(_select(in_pass, "cz", "linearized")), "ms")
    out["cz.index_ms"] = _m(_mean_ms(_select(in_pass, "cz", "index")), "ms")

    lifts = _select(in_pass, "hopf", "lift")
    out["hopf.lift_us_per_sample"] = _m(_ratio(
        1e6 * sum(s.duration for s in lifts),
        sum(s.attrs["samples"] for s in lifts)), "us")
    links = _select(in_pass, "hopf", "link")
    pairs = sum(s.attrs["segment_pairs"] for s in links)
    out["hopf.link_ms"] = _m(_mean_ms(links), "ms")
    out["hopf.link_ns_per_segment_pair"] = _m(_ratio(
        1e9 * sum(s.duration for s in links), pairs), "ns")
    out["hopf.link_segment_pairs"] = _m(per_pass(pairs), "count")
    out["hopf.link_bytes_computed"] = _m(max(
        (s.attrs["bytes_computed"] for s in _select(in_pass, "hopf", "gauss")),
        default=0), "bytes")
    attempts = sum(ps.counts.get("hopf.lift_attempts", 0)
                   for _, ps in traced_passes)
    closed = sum(ps.counts.get("hopf.lift_closed", 0)
                 for _, ps in traced_passes)
    out["hopf.lift_closed_ratio"] = _m(_ratio(closed, attempts), "ratio")

    for kind in ("bigm", "noncon"):
        out[f"cli.repro_ms.{kind}"] = _m(
            _mean_ms(_select(in_pass, "cli", "repro", kind)), "ms")
    out["cli.hopf_verify_ms"] = _m(
        _mean_ms(_select(in_pass, "cli", "hopf_verify")), "ms")

    traced_walls = [w for w, _ in traced_passes]
    uncovered = []
    for pid, wall in zip(sorted(pass_ids), traced_walls):
        covered = layer_covered([s for s in in_pass if s.pass_id == pid])
        uncovered.append((wall - covered) / wall)
    out["trace.overhead_s"] = _m(statistics.median(traced_walls)
                                 - statistics.median(untraced_walls), "s")
    out["trace.uncovered_share"] = _m(statistics.median(uncovered), "ratio")
    return out, self_time_table(in_pass, n_pass,
                                statistics.median(traced_walls))


def self_time_table(spans: list, n_pass: int, wall: float) -> list:
    """Rows (stage, calls, total_s, self_s, self share of wall) per pass."""
    selfs = self_times(spans)
    rows: dict = {}
    for s in spans:
        if s.layer == "op":
            continue
        kind = s.attrs.get("kind")
        key = f"{s.layer}.{s.name}" + (f"[{kind}]" if kind else "")
        r = rows.setdefault(key, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s.duration
        r[2] += selfs[s.id]
    table = [{"stage": k, "calls": c / n_pass, "total_s": t / n_pass,
              "self_s": st / n_pass, "share": st / n_pass / wall}
             for k, (c, t, st) in rows.items()]
    table.sort(key=lambda r: -r["self_s"])
    return table


def table_lines(table: list) -> list:
    out = ["| stage | calls/pass | total s/pass | self s/pass | self share |",
           "|---|---|---|---|---|"]
    for r in table:
        out.append(f"| {r['stage']} | {r['calls']:g} | {r['total_s']:.4f} | "
                   f"{r['self_s']:.4f} | {r['share']:.3f} |")
    return out
