"""Run one entmin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 60 --trace 0

Run from the repository root: entmin is imported from ./src.  The process
is single-threaded, BLAS is pinned to one thread and ENTMIN_THREADS is
cleared, so the package's default code path is measured.  The run builds
the workload's inputs from the seed (several times, for setup_s), then
repeats whole passes over the workload's operations while the next pass is
expected to end within --seconds, at least once.  run_s is each
operation's median time, summed.  Every pass must reproduce the first
bitwise; the first pass's outputs are checked against the reference
computations in checks.py after the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 wraps entmin's public
functions, prints the per-layer metrics and writes the spans under
perfbench/out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ENTMIN_THREADS", None)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("claims", "certify")
# setup_s is the median of IMPORTS fresh imports of entmin plus the median
# of SETUPS builds: one import or build of well under a second moved by 30%
# and more from run to run.
IMPORTS = 5
SETUPS = 5

# (layer, field) read from the spans, reported as "<layer>.<field>"
LAYER_FIELDS = (
    ("entopt.minimize_entropy", "self_s"), ("entopt.minimize_entropy", "s"),
    ("entopt.minimize_entropy", "calls"),
    ("entopt.best_subset_lower_bound", "s"), ("entopt.subset_lower_bound", "calls"),
    ("hilbert.partial_trace", "s"), ("hilbert.partial_trace", "calls"),
    ("hilbert.von_neumann_entropy", "s"),
    ("hilbert.outcome_distribution", "s"), ("hilbert.outcome_distribution", "calls"),
    ("entopt.max_product_overlap", "s"),
    ("gf2uniform.walsh_transform", "s"), ("gf2uniform.walsh_transform", "calls"),
    ("gf2uniform.is_k_uniform", "s"),
    ("gf2uniform.search_maximally_uniform", "s"), ("gf2uniform.gf2_rank", "calls"),
    ("gf2uniform.min_stabilizer_weight", "s"),
    ("kpolytope.enumerate_vertices_generic", "s"),
    ("kpolytope.enumerate_vertices_generic", "calls"),
    ("verify.ghz", "s"), ("verify.det", "s"), ("verify.gdet-table1", "s"),
    ("verify.hexacode", "s"), ("verify.graphs", "s"), ("verify.polytope", "s"),
    ("cli.main", "self_s"), ("hilbert.load_state", "s"),
    ("states.graph_state", "s"), ("states.determinant_state", "s"),
    ("states.hexacode_state", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_entmin() -> float:
    """Import entmin.cli (it pulls in every layer) IMPORTS times afresh and
    return the median time; the first may also write the bytecode cache."""
    times = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m == "entmin" or m.startswith("entmin.")]:
            del sys.modules[name]
        t0 = perf_counter()
        importlib.import_module("entmin.cli")
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_passes(wl, ops, probe, seconds: float):
    """Whole passes over `ops` while the next one is expected to end within
    `seconds`; at least one.

    Returns each operation's times (one per pass), the first pass's outputs,
    the attempted and failed operation counts, and a message if a pass did
    not reproduce the first one bitwise.
    """
    op_s = [[] for _ in ops]
    pass_s, first, first_fp, mismatch = [], None, None, ""
    attempted = failed = 0
    start = perf_counter()
    k = 0
    while True:
        outputs = []
        for i, (name, op) in enumerate(ops):
            probe.run_id = f"pass:{k}:{name}"
            t0 = perf_counter()
            try:
                out = op()
            except Exception:
                op_s[i].append(perf_counter() - t0)
                sys.stderr.write(f"operation {name} failed:\n{traceback.format_exc()}")
                failed += 1
                out = None
            else:
                op_s[i].append(perf_counter() - t0)
            outputs.append(out)
        attempted += len(ops)
        pass_s.append(sum(ts[-1] for ts in op_s))
        if not failed:
            fp = wl.fingerprint(outputs)
            if first is None:
                first, first_fp = outputs, fp
            elif fp != first_fp and not mismatch:
                mismatch = f"pass {k} did not reproduce the first pass"
        k += 1
        if perf_counter() - start + statistics.median(pass_s) > seconds:
            return op_s, first, attempted, failed, mismatch


def pass_time(op_s) -> float:
    """One pass's time: each operation's median over the passes, summed.

    The machine's speed drifts in stretches of tens of seconds; a median
    per operation keeps a stretch that slows part of two passes out of the
    result, where a median of whole passes would not.
    """
    return sum(statistics.median(ts) for ts in op_s)


def layer_metrics(probe, op_s, first_calls) -> dict:
    """Per-layer values for one setup plus one pass."""
    per_setup = probe.layer_totals("setup")
    per_pass = probe.layer_totals("pass")
    passes = len(op_s[0])
    out = {}
    for layer, field in LAYER_FIELDS:
        value = per_setup[layer][field] / SETUPS + per_pass[layer][field] / passes
        unit = "count" if field == "calls" else "s"
        out[f"{layer}.{field}"] = (value, unit)
    tried = sum(cfg.restarts for _, _, cfg, _ in first_calls)
    agreeing = sum(res.restarts_agreeing for _, _, _, res in first_calls)
    out["entopt.restart_yield"] = (agreeing / tried if tried else 0.0, "ratio")
    out["trace.spans"] = (sum(1 for s in probe.spans if s[4].startswith("pass"))
                          / passes, "count")
    out["trace.run_s"] = (pass_time(op_s), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entmin", "__init__.py")):
        sys.stderr.write(f"entmin sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2

    # numpy is loaded before the clock starts: its import time is the
    # interpreter's and the disk cache's, not entmin's, and it is noisy
    import numpy  # noqa: F401

    sys.path.insert(0, SRC)
    import_s = import_entmin()

    sys.path.insert(0, HERE)
    import probe as probe_mod
    import workloads
    from checks import CheckFailed

    probe = probe_mod.Probe(trace=bool(args.trace))
    probe.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        build_s = []
        for k in range(SETUPS):
            # drop the previous build before the next one is made: with two
            # sets of inputs alive together the peak RSS hinged on how the
            # allocator reused their blocks
            wl = None
            wl = workloads.WORKLOADS[args.workload]()
            probe.run_id = f"setup:{k}"
            workdir = os.path.join(tmp, f"setup{k}")
            os.mkdir(workdir)
            t0 = perf_counter()
            wl.setup(args.seed, workdir)
            build_s.append(perf_counter() - t0)
        op_s, first, attempted, failed, message = run_passes(
            wl, wl.ops(), probe, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.remove()

    first_calls = [c for c in probe.opt_calls if c[0].startswith("pass:0:")]
    if failed and not message:
        message = f"{failed} of {attempted} operations failed"
    if not message:
        try:
            brackets = wl.check(first, first_calls)
        except CheckFailed as exc:
            message = str(exc)
    if message:
        sys.stderr.write(f"CHECK FAILED ({args.workload}, seed {args.seed}): {message}\n")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = layer_metrics(probe, op_s, first_calls)
        probe.write(os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(build_s), "s"),
            "run_s": (pass_time(op_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "s_upper_bits": (sum(up for _, up in brackets), "bits"),
            "s_lower_bits": (sum(lo for lo, _ in brackets), "bits"),
        }
    for (name, _), ts in zip(wl.ops(), op_s):
        print(f"{args.workload}: operation {name}: " + " ".join(f"{t:.4f}" for t in ts) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {len(op_s[0])} passes, {attempted} operations attempted, "
          f"{failed} failed")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
