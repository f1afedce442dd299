"""Outside-in span tracer for the `lu` layers, installed from the benchmark.

It wraps the public functions of the layers named in LAYERS and records one
span per call: name, start, end, the span that was open when it started, and
the exception that left it, if any.  Nothing in `src/lu` changes; because the
package binds names with `from .x import f`, every module attribute that
refers to a wrapped function is rebound.  Spans stay in memory and are
written out once the pass ends.

The leaf kernels (fields, poly, orders, parse, lattice, unifactor) are
called millions of times, and `Ideal.groebner` about 12k times per scene-mix
pass, mostly for cache hits; wrapping them would cost more than it tells, so
their time shows as self time of the spans that call them.
"""

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "ideals": ("buchberger", "normal_form", "s_polynomial", "Ideal.multiply",
               "Ideal.power", "Ideal.intersect", "Ideal.saturation"),
    "modules": ("module_groebner", "relation_module", "rank_mod_prime"),
    "decomp": ("is_prime", "radical", "associated_primes", "local_dimension"),
    "localring": ("is_regular_local", "is_normally_flat", "graded_piece",
                  "is_free_at", "nilpotent_length", "cotangent_presentation",
                  "nilradical_min_gens"),
    "valuations": ("certify", "WeightValuation.value_of", "axiom_violations"),
    "blowup": ("local_blowup", "transport_through_blowup", "verify_center_isos",
               "lift_from_localization", "lift_from_quotient"),
    "pipeline": ("run_reduction", "step1", "step2", "step3", "toric_uniformizer"),
    "scenes": ("load_scene", "trace_to_json", "replay_trace"),
}

# Span fields.
NAME, START, END, PARENT, OUTER, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._gb_seen = set()
        self.gb_repeats = 0

    def install(self):
        """Wrap every function in LAYERS and rebind each name bound to it."""
        lu_modules = [m for n, m in list(sys.modules.items())
                      if n == "lu" or n.startswith("lu.")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"lu.{layer}")
            for qual in names:
                full = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(full, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(full, orig)
                for m in lu_modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        depth = [0]
        keyed = name == "ideals.buchberger"

        def wrapper(*args, **kwargs):
            if keyed:
                self._note_basis(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[0] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[0] += 1
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = clock()
                depth[0] -= 1
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _note_basis(self, gens, order, limits=None):
        key = (tuple(gens), order)
        if key in self._gb_seen:
            self.gb_repeats += 1
        else:
            self._gb_seen.add(key)

    def summary(self):
        """Per span name: calls, total_s (outermost spans only), self_s and
        the exceptions that left it, by type name.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another, so they never overlap.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "errors": {}})
            dur = s[END] - s[START]
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            if s[OUTER]:
                row["total_s"] += dur
            if s[ERROR]:
                row["errors"][s[ERROR]] = row["errors"].get(s[ERROR], 0) + 1
        return out

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, error."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[ERROR]]))
                fh.write("\n")
