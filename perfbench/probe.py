"""Pass-through wrappers over entmin's public functions.

A Probe replaces a function at every name its callers look it up under:
``entopt.partial_trace`` is wrapped as well as ``hilbert.partial_trace``,
because entopt imported it by name, and the claim suites are wrapped in
``verify.SUITES``, where ``run_suite`` finds them.  The originals come back
on ``remove``.

Untraced, only ``minimize_entropy`` is wrapped, to keep each result (with
its state and config) for the reference checks; that costs one extra
Python call per optimization.  Traced, every function in TRACED records a
span: name, start, end, parent span and run id.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span when tracing is on.
TRACED = (
    ("cli", "main"),
    ("entopt", "minimize_entropy"),
    ("entopt", "best_subset_lower_bound"),
    ("entopt", "subset_lower_bound"),
    ("entopt", "max_product_overlap"),
    ("hilbert", "partial_trace"),
    ("hilbert", "von_neumann_entropy"),
    ("hilbert", "outcome_distribution"),
    ("hilbert", "load_state"),
    ("gf2uniform", "walsh_transform"),
    ("gf2uniform", "is_k_uniform"),
    ("gf2uniform", "search_maximally_uniform"),
    ("gf2uniform", "gf2_rank"),
    ("gf2uniform", "min_stabilizer_weight"),
    ("kpolytope", "enumerate_vertices_generic"),
    ("states", "graph_state"),
    ("states", "determinant_state"),
    ("states", "hexacode_state"),
)

OPTIMIZER = ("entopt", "minimize_entropy")


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []        # [name, start, end, parent index, run id]
        self.run_id = "setup"
        self.opt_calls = []    # (run id, psi, cfg, result) per minimize_entropy
        self._stack = []
        self._restore = []

    def install(self) -> None:
        import entmin
        from entmin import cli, entopt, gf2uniform, hilbert, kpolytope, states, verify

        mods = {"cli": cli, "entopt": entopt, "gf2uniform": gf2uniform,
                "hilbert": hilbert, "kpolytope": kpolytope, "states": states,
                "verify": verify}
        everywhere = [entmin, *mods.values()]
        targets = TRACED if self.trace else (OPTIMIZER,)
        for mod_name, fn_name in targets:
            orig = getattr(mods[mod_name], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig,
                                 keep_result=(mod_name, fn_name) == OPTIMIZER)
            for mod in everywhere:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        if self.trace:
            for suite, fn in list(verify.SUITES.items()):
                verify.SUITES[suite] = self._wrap(f"verify.{suite}", fn, False)
                self._restore.append((verify.SUITES, suite, fn))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn, keep_result: bool):
        trace = self.trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = [name, 0.0, 0.0, parent, self.run_id]
                self.spans.append(span)
                self._stack.append(idx)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[1], span[2] = t0, perf_counter()
                    self._stack.pop()
            else:
                out = fn(*args, **kwargs)
            if keep_result:
                psi = args[0] if args else kwargs["psi"]
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                self.opt_calls.append((self.run_id, psi, cfg, out))
            return out

        return wrapper

    def layer_totals(self, prefix: str) -> dict:
        """calls, inclusive s and self s per span name, over spans whose
        run id starts with prefix."""
        child = defaultdict(float)
        for name, t0, t1, parent, run in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent, run) in enumerate(self.spans):
            if run.startswith(prefix):
                row = out[name]
                row["calls"] += 1
                row["s"] += t1 - t0
                row["self_s"] += t1 - t0 - child[idx]
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "run_id"],
            "names": names,
            "spans": [[code[n], round(t0, 7), round(t1, 7), p, r]
                      for n, t0, t1, p, r in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        sys.stderr.write(f"trace: {len(self.spans)} spans written to {path}\n")
