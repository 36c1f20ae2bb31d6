"""Command-line interface.

Subcommands:
  state build   construct a named state and save it as JSON
  entropy       bracket the minimal measurement entropy of a saved state
  verify        run a named verification suite and print one line per check
  table1        normalized entropies of the re-encoded determinant family
  polytope      vertices of the 5-bit 3-uniform polytope, or the 6-bit chain
  graphs        search for maximally uniform graphs and emit the hits

Every report embeds a run manifest (command, parameters, seed, version,
timestamp, input file hashes).  Exit codes: 0 success, 1 a verification
or bound-consistency failure, 2 bad input, 3 over a capacity limit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import entopt, gf2uniform, kpolytope, states, verify
from .entopt import OptConfig
from .errors import CapacityError, EntminError, ValidationError
from .hilbert import load_state, save_state, shannon_entropy

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("entmin")
except Exception:  # not installed, e.g. running from a checkout
    VERSION = "0.0.0+local"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    version: str = VERSION
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    input_hashes: dict = field(default_factory=dict)

    def add_input(self, path: str) -> None:
        self.input_hashes[path] = _sha256(path)

    def to_dict(self) -> dict:
        return asdict(self)


def _manifest_comment_lines(manifest: RunManifest) -> list:
    return [f"# {k}: {json.dumps(v, sort_keys=True)}"
            for k, v in manifest.to_dict().items()]


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _emit(payload: dict, manifest: RunManifest, args,
          csv_rows=None, csv_header=None) -> None:
    """Write the report as JSON, or as CSV when rows were provided."""
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        for line in _manifest_comment_lines(manifest):
            buf.write(line + "\n")
        w = csv.writer(buf)
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        _write_text(buf.getvalue(), args.out)
    else:
        full = {"manifest": manifest.to_dict(), **payload}
        _write_text(json.dumps(full, indent=2, sort_keys=False), args.out)


# the flags each state kind takes, with their defaults
_STATE_PARAMS = {
    "ghz": {"n": 3, "d": 2},
    "det": {"n": 3},
    "gdet": {"d": 2, "p": 1},
    "graph": {"graph": None},
    "hexacode": {},
}


def _build_named_state(kind: str, params: dict):
    if kind == "ghz":
        return states.ghz(params["n"], params["d"])
    if kind == "det":
        return states.determinant_state(params["n"])
    if kind == "gdet":
        return states.generalized_determinant(params["d"], params["p"])
    if kind == "graph":
        return states.graph_state(states.load_graph(params["graph"]))
    return states.hexacode_state()


def cmd_state_build(args) -> int:
    if args.out is None:
        raise ValidationError("state build needs --out FILE for the state JSON")
    own = _STATE_PARAMS[args.kind]
    foreign = [f"--{k}" for k in ("n", "d", "p", "graph")
               if k not in own and getattr(args, k) is not None]
    if foreign:
        raise ValidationError(f"kind {args.kind!r} takes no {' '.join(foreign)}")
    params = {k: default if getattr(args, k) is None else getattr(args, k)
              for k, default in own.items()}
    if args.kind == "graph" and params["graph"] is None:
        raise ValidationError("kind 'graph' needs --graph EDGEFILE")
    manifest = RunManifest("state build", {"kind": args.kind, **params}, seed=None)
    if args.kind == "graph":
        manifest.add_input(params["graph"])
    psi = _build_named_state(args.kind, params)
    save_state(psi, args.out)
    summary = {
        "state": {"kind": args.kind, "n": psi.n, "d": psi.d,
                  "amplitudes": int(psi.amp.size),
                  "nonzeros": psi.nonzero_count(), "path": args.out},
    }
    sys.stdout.write(json.dumps({"manifest": manifest.to_dict(), **summary},
                                indent=2) + "\n")
    return 0


def cmd_entropy(args) -> int:
    manifest = RunManifest("entropy", {
        "state": args.state, "restarts": args.restarts, "tol": args.tol,
        "max_sweeps": args.max_sweeps, "overlap_bound": args.overlap_bound,
    }, seed=args.seed)
    manifest.add_input(args.state)
    psi = load_state(args.state)

    cfg = OptConfig(restarts=args.restarts, max_sweeps=args.max_sweeps,
                    tol=args.tol, seed=args.seed)
    res = entopt.minimize_entropy(psi, cfg, include_overlap_bound=args.overlap_bound)
    report = entopt.result_to_dict(res)

    report["witness_basis_path"] = args.basis_out
    if args.basis_out:
        with open(args.basis_out, "w", encoding="utf-8") as f:
            json.dump({"n": psi.n, "d": psi.d, "basis": report["basis"]}, f)

    rows = [(k, report[k]) for k in
            ("s_upper", "s_lower", "lower_bound_witness", "floor", "floor_witness",
             "s_lower_heuristic", "witness_basis_path", "converged",
             "restarts_agreeing", "seed")]
    _emit(report, manifest, args, csv_rows=rows, csv_header=("field", "value"))
    return 0


def _print_suite_lines(report: dict) -> None:
    suites = report["suites"] if report["suite"] == "all" else [report]
    for sub in suites:
        for c in sub["checks"]:
            word = "PASS" if c["passed"] else "FAIL"
            tol = f" tol={c['tol']:g}" if c["tol"] else ""
            sys.stdout.write(
                f"[{word}] {sub['suite']}: {c['name']} "
                f"measured={c['measured']} target={c['target']}{tol}\n")
        sys.stdout.write(
            f"[{'PASS' if sub['passed'] else 'FAIL'}] {sub['suite']}: suite "
            f"({sub['seconds']:.2f}s)\n")


def cmd_verify(args) -> int:
    if args.m is not None and args.suite != "graphs":
        raise ValidationError("--m applies to the graphs suite only")
    manifest = RunManifest("verify", {"suite": args.suite, "m": args.m},
                           seed=None)
    kwargs = {} if args.m is None else {"m": args.m}
    report = verify.run_suite(args.suite, **kwargs)
    _print_suite_lines(report)
    if args.out:
        _write_text(json.dumps({"manifest": manifest.to_dict(), **report},
                               indent=2), args.out)
    return 0 if report["passed"] else 1


def cmd_table1(args) -> int:
    manifest = RunManifest("table1", {}, seed=None)
    rows = []
    for p, target in verify.TABLE1_TARGETS.items():
        n = p * 2**p
        exact = states.log2_factorial(2**p) / n
        rows.append((p, n, round(exact, 6), round(exact, 2), target))
    payload = {"columns": ["p", "parties", "normalized_entropy",
                           "rounded", "reference"],
               "rows": [list(r) for r in rows]}
    _emit(payload, manifest, args, csv_rows=rows,
          csv_header=("p", "parties", "normalized_entropy", "rounded",
                      "reference"))
    return 0


def cmd_polytope(args) -> int:
    manifest = RunManifest("polytope", {"full": args.full, "chain": args.chain},
                           seed=None)
    if args.chain:
        chain = kpolytope.verify_inf6_chain()
        full = {"manifest": manifest.to_dict(), **chain}
        _write_text(json.dumps(full, indent=2), args.out)
        return 0 if chain["passed"] else 1

    if args.full:
        spec = kpolytope.PolytopeSpec(5, 3)
        dists = kpolytope.enumerate_vertices_generic(spec)
    else:
        dists = kpolytope.enumerate_vertices_p53()
    rows = []
    for i, dist in enumerate(dists):
        rows.append((i, round(shannon_entropy(dist.p), 12))
                    + tuple(round(float(x), 12) for x in dist.p))
    header = ("id", "entropy") + tuple(f"p{x}" for x in range(32))
    payload = {"columns": list(header), "rows": [list(r) for r in rows],
               "vertices": len(rows)}
    _emit(payload, manifest, args, csv_rows=rows, csv_header=header)
    return 0


def cmd_graphs(args) -> int:
    manifest = RunManifest("graphs", {"m": args.m, "out_dir": args.out_dir},
                           seed=None)
    hits = gf2uniform.search_maximally_uniform(args.m)
    rows = []
    for i, g in enumerate(hits):
        if args.out_dir:
            states.save_graph(g, f"{args.out_dir}/hit_{i:04d}.edges")
        rows.append((i, g.v, len(g.edges()),
                     gf2uniform.min_stabilizer_weight(g)))
    payload = {"columns": ["id", "vertices", "edges", "min_stabilizer_weight"],
               "rows": [list(r) for r in rows],
               "hits": len(hits)}
    _emit(payload, manifest, args, csv_rows=rows,
          csv_header=("id", "vertices", "edges", "min_stabilizer_weight"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="entmin",
        description="minimal measurement entropy of multipartite pure states")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", default=None, help="output file ('-' = stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("state", help="state construction")
    ssub = sp.add_subparsers(dest="state_command", required=True)
    bp = ssub.add_parser("build", help="build a named state, save as JSON")
    bp.add_argument("kind", choices=tuple(_STATE_PARAMS))
    bp.add_argument("--n", type=int, default=None, help="parties (ghz, det; default 3)")
    bp.add_argument("--d", type=int, default=None,
                    help="local dimension (ghz, gdet; default 2)")
    bp.add_argument("--p", type=int, default=None, help="digits per party (gdet; default 1)")
    bp.add_argument("--graph", default=None, help="edge-list file (graph)")
    bp.add_argument("--out", default=None, help="state JSON path")
    bp.set_defaults(func=cmd_state_build)

    ep = sub.add_parser("entropy", help="bracket the minimal entropy of a state")
    ep.add_argument("state", help="state JSON file")
    ep.add_argument("--seed", type=int, default=7)
    ep.add_argument("--restarts", type=int, default=24)
    ep.add_argument("--max-sweeps", type=int, default=200)
    ep.add_argument("--tol", type=float, default=1e-10)
    ep.add_argument("--basis-out", default=None,
                    help="write the witness measurement basis here as JSON")
    ep.add_argument("--overlap-bound", action="store_true",
                    help="also report the heuristic product-overlap lower "
                         "bound, as s_lower_heuristic")
    add_io(ep)
    ep.set_defaults(func=cmd_entropy)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=tuple(verify.SUITES) + ("all",))
    vp.add_argument("--m", type=int, default=None,
                    help="restrict the graphs suite to one half-size")
    vp.add_argument("--out", default=None, help="also write the JSON report here")
    vp.set_defaults(func=cmd_verify)

    tp = sub.add_parser("table1", help="normalized entropies of the "
                                       "re-encoded determinant family")
    tp.add_argument("--out", default=None, help="output file ('-' = stdout)")
    tp.add_argument("--format", choices=("json", "csv"), default="csv")
    tp.set_defaults(func=cmd_table1)

    pp = sub.add_parser("polytope", help="vertices of the 5-bit 3-uniform "
                                         "face polytope, or the 6-bit chain")
    pp.add_argument("--full", action="store_true",
                    help="enumerate the whole polytope, not just the "
                         "p(00000) = 0 face")
    pp.add_argument("--chain", action="store_true",
                    help="emit the three-link entropy-floor report as JSON")
    pp.add_argument("--out", default=None, help="output file ('-' = stdout)")
    pp.add_argument("--format", choices=("json", "csv"), default="csv")
    pp.set_defaults(func=cmd_polytope)

    gp = sub.add_parser("graphs", help="search maximally uniform graphs")
    gp.add_argument("--m", type=int, required=True, help="half the vertex count")
    gp.add_argument("--out-dir", default=None,
                    help="write each hit as an edge-list file here")
    add_io(gp)
    gp.set_defaults(func=cmd_graphs)

    return ap


def _check_output_paths(args) -> None:
    """Refuse, before any work, an output that could not be written: --out
    and --basis-out must name a file in an existing directory, and
    --out-dir must be a directory.  '-' means stdout, except for the state
    file of state build and for entropy's --basis-out: stdout carries the
    build summary, and may carry the entropy report."""
    for flag, path in (("--out", args.out if args.command == "state" else None),
                       ("--basis-out", getattr(args, "basis_out", None))):
        if path == "-":
            raise ValidationError(f"{flag} cannot be '-': stdout carries the command's own output")
    for path in (getattr(args, "out", None), getattr(args, "basis_out", None)):
        if path in (None, "-"):
            continue
        if os.path.isdir(path):
            raise ValidationError(f"output file {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"no directory for output file {path}")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None and not os.path.isdir(out_dir):
        raise ValidationError(f"--out-dir {out_dir} is not a directory")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 3
    except (ValidationError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except EntminError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
