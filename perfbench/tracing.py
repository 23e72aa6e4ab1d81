"""Per-layer spans recorded from outside the package.

The traced pass replaces each traced function at every binding the
package holds: its own module, each module that imported it by name
(``families`` binds ``sample_st_batch``, ``canonicalize`` and
``laplace_eigenvalue``) and the package namespace.  A call made through
any of them, including one added later, then records a span: name,
parent span, start and end.  Spans live in flat arrays in memory and are
written out once the pass is over.  The package itself is not modified.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import time
from array import array
from collections import defaultdict

# Traced functions as "<defining module>.<name>"; that is also the span name.
TARGETS = [
    "sampling.mc_integrate",
    "sampling.sample_bank",
    "sampling.sample_st_batch",
    "satake.elementary_symmetric",
    "satake.canonicalize",
    "satake.coefficient",
    "characters.eval_char",
    "characters.weight_table",
    "characters.product",
    "characters.spec_product_table",
    "characters.tensor_decompose",
    "weights.laplace_eigenvalue",
    "families.synth_family",
    "families.save_family",
    "families.equidist_report",
    "families.weight",
    "bounds.verify_multiplicity_bound",
]

DRAW_RANKS = (2, 3, 4, 6, 10)


class NullTracer:
    """Stand-in for an untraced pass: calls go straight through."""

    def wrap(self, fn, name: str):
        return fn

    def span(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Span recorder; ``install`` patches the package, ``restore`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # facts that only some shims record
        self.draws = defaultdict(int)
        self.draw_ns = defaultdict(int)
        self.product_pairs = 0
        self.verify_rows = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so each call records one span named ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(self, idx, args, kwargs, out)
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span recorded in the benchmark's own code."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for target in TARGETS:
            mod_name, attr = target.split(".")
            original = getattr(getattr(package, mod_name), attr)
            traced = self.wrap(original, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (seconds) derived from the spans."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child_total = defaultdict(int)
        child_of = defaultdict(int)
        banks_that_drew = set()
        bank_id = self._ids.get("sampling.sample_bank", -2)
        batch_id = self._ids.get("sampling.sample_st_batch", -2)
        for idx in range(len(self.name)):
            nid = self.name[idx]
            d = self.end[idx] - self.start[idx]
            calls[nid] += 1
            total[nid] += d
            par = self.parent[idx]
            if par >= 0:
                pid = self.name[par]
                child_total[pid] += d
                child_of[pid, nid] += d
                if nid == batch_id and pid == bank_id:
                    banks_that_drew.add(par)

        ids = self._ids

        def n_calls(name):
            return calls[ids[name]] if name in ids else 0

        def secs(name):
            return total[ids[name]] / 1e9 if name in ids else 0.0

        def self_secs(name):
            return (total[ids[name]] - child_total[ids[name]]) / 1e9 if name in ids else 0.0

        def under(parent, child):
            if parent not in ids or child not in ids:
                return 0.0
            return child_of[ids[parent], ids[child]] / 1e9

        bank_calls = n_calls("sampling.sample_bank")
        out = {
            "sampling.bank_calls": bank_calls,
            "sampling.bank_hit_ratio": (
                (bank_calls - len(banks_that_drew)) / bank_calls if bank_calls else 0.0
            ),
            "sampling.draws": sum(self.draws.values()),
            "sampling.draw_s": secs("sampling.sample_st_batch"),
        }
        for n in DRAW_RANKS:
            out[f"sampling.draws_per_s.n{n}"] = (
                self.draws[n] / (self.draw_ns[n] / 1e9) if self.draw_ns[n] else 0.0
            )
        out.update({
            "sampling.integrand_s": secs("sampling.integrand"),
            "sampling.reduce_s": self_secs("sampling.mc_integrate"),
            "satake.canonicalize_calls": n_calls("satake.canonicalize"),
            "satake.canonicalize_s": secs("satake.canonicalize"),
            "satake.elementary_symmetric_s": secs("satake.elementary_symmetric"),
            "satake.coefficient_calls": n_calls("satake.coefficient"),
            "characters.weight_table_calls": n_calls("characters.weight_table"),
            "characters.weight_table_s": secs("characters.weight_table"),
            "characters.product_calls": n_calls("characters.product"),
            "characters.product_pairs": self.product_pairs,
            "characters.product_s": secs("characters.product"),
            "characters.decompose_s": secs("characters.tensor_decompose"),
            "characters.peel_s": secs("characters.tensor_decompose")
            - under("characters.tensor_decompose", "characters.spec_product_table"),
            "characters.eval_char_calls": n_calls("characters.eval_char"),
            "characters.eval_char_s": secs("characters.eval_char"),
            "weights.laplace_eigenvalue_calls": n_calls("weights.laplace_eigenvalue"),
            "weights.laplace_eigenvalue_s": secs("weights.laplace_eigenvalue"),
            "families.synth_s": secs("families.synth_family"),
            "families.save_s": secs("families.save_family"),
            "families.report_s": secs("families.equidist_report"),
            "families.weight_calls": n_calls("families.weight"),
            "families.weight_s": secs("families.weight"),
            "bounds.verify_s": secs("bounds.verify_multiplicity_bound"),
            "bounds.verify_rows": self.verify_rows,
            "cli.ingest_s": secs("cli.ingest"),
        })
        return out


def _note_draw(tracer, idx, args, kwargs, out):
    n = out.shape[1]
    tracer.draws[n] += out.shape[0]
    tracer.draw_ns[n] += tracer.end[idx] - tracer.start[idx]


def _note_product(tracer, idx, args, kwargs, out):
    a, b = args[0], args[1]
    tracer.product_pairs += len(a.terms) * len(b.terms)


def _note_verify(tracer, idx, args, kwargs, out):
    tracer.verify_rows += len(out)


_NOTES = {
    "sampling.sample_st_batch": _note_draw,
    "characters.product": _note_product,
    "bounds.verify_multiplicity_bound": _note_verify,
}
