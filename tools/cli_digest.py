"""SHA-256 digests of the CLI's outputs on the builtin profile specs.

    python tools/cli_digest.py > digest.txt

runs 56 `magflow` commands, each in a fresh `python -m magflow.cli`
process on the `src/` tree next to this script, with one temporary
directory as every process's working directory and relative output names,
so that printed paths are the same in every checkout. It prints one line

    <sha256>  <command>  <file>

per output file and per stdout (file `stdout`, with the exit code), and
per stderr that is not empty. Two trees whose digests `diff` as equal
write byte-identical outputs: the check that a refactor keeps every
deterministic output (docs/decisions.md, entries 24 and 25). The
commands:

- on six specs, `profile make --out --table`, `profile check`, `contact
  bounds --json-out`, `flow trace --out` and `hopf lift` of that trace;
- on five of them at m from 0.25 to 1, `action scan --out`, `cz latitude`
  on both sides and `cz report --json-out`;
- `hopf verify` at seeds 0 and 3, `hopf link` of two Hopf fibers written
  here, and `repro ellipsoids`, `repro noncon --json-out` and `repro bigm
  --out`.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SPECS = ("sphere", "ellipsoid:0.5", "ellipsoid:1.5", "ellipsoid:4",
         "spindle:0.07:0.2", "negative-action:0.1:0.9")
SCANS = (("sphere", "0.5"), ("ellipsoid:0.5", "0.25"),
         ("ellipsoid:1.5", "1"), ("ellipsoid:4", "0.5"),
         ("spindle:0.07:0.2", "0.25"))


def commands() -> list:
    """(argv, output files) of every command, in the order they run."""
    out = []
    for k, spec in enumerate(SPECS):
        out += [(["profile", "make", spec, "--out", f"profile{k}.json",
                  "--table", f"table{k}.csv"],
                 [f"profile{k}.json", f"table{k}.csv"]),
                (["profile", "check", spec], []),
                (["contact", "bounds", spec, "--json-out", f"bounds{k}.json"],
                 [f"bounds{k}.json"]),
                (["flow", "trace", spec, "--m", "0.5", "--state", "1.0,0.4,0",
                  "--horizon", "4", "--out", f"trace{k}.csv"],
                 [f"trace{k}.csv"]),
                (["hopf", "lift", f"trace{k}.csv", "--profile", spec,
                  "--out", f"lift{k}.json"], [f"lift{k}.json"])]
    for k, (spec, m) in enumerate(SCANS):
        out += [(["action", "scan", spec, "--m", m, "--out", f"scan{k}.csv"],
                 [f"scan{k}.csv"]),
                (["cz", "latitude", spec, "--m", m, "--side", "upper"], []),
                (["cz", "latitude", spec, "--m", m, "--side", "lower"], []),
                (["cz", "report", spec, "--m", m, "--json-out",
                  f"report{k}.json"], [f"report{k}.json"])]
    out += [(["hopf", "verify", "--seed", "0"], []),
            (["hopf", "verify", "--seed", "3"], []),
            (["hopf", "link", "fiber0.json", "fiber1.json"], []),
            (["repro", "ellipsoids", "--out", "ellipsoids.csv"],
             ["ellipsoids.csv"]),
            (["repro", "noncon", "--delta", "0.1", "--eps", "0.9",
              "--json-out", "noncon.json"], ["noncon.json"]),
            (["repro", "bigm", "--target", "10", "--out", "bigm.json"],
             ["bigm.json"])]
    return out


def _write_fibers(where: Path):
    # the Hopf fibers through 1 and (1 + j) / sqrt(2), which link +1
    s = [2.0 * math.pi * k / 512 for k in range(513)]
    circle = [[math.cos(a), math.sin(a)] * 2 for a in s]
    for k, scale in enumerate(([1, 1, 0, 0], [math.sqrt(0.5)] * 4)):
        pts = [[c * f for c, f in zip(row, scale)] for row in circle]
        (where / f"fiber{k}.json").write_text(json.dumps(pts))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        _write_fibers(where)
        for argv, files in commands():
            run = subprocess.run([sys.executable, "-m", "magflow.cli", *argv],
                                 cwd=where, env=env, capture_output=True)
            line = " ".join(argv)
            print(f"{_sha(run.stdout)}  {line}  stdout (exit "
                  f"{run.returncode})", flush=True)
            if run.stderr:
                print(f"{_sha(run.stderr)}  {line}  stderr", flush=True)
            for name in files:
                path = where / name
                digest = _sha(path.read_bytes()) if path.exists() else "-" * 64
                print(f"{digest}  {line}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
