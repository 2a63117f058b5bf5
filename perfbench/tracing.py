"""Spans around the public functions of each cychom layer, and the per-layer
metrics computed from them.

The layers are the package modules.  ``install`` replaces each listed
function, in every cychom module that binds it, by a wrapper that records a
span: name, start, end, parent span.  ``padic.vp`` runs millions of times
per query, so it only gets a call counter.  Spans stay in memory and are
written out once, when the query's process finishes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

LAYERS = {
    "padic": ("a_val", "seq_a", "seq_b"),
    "gaps": ("enumerate_z1", "enumerate_z2", "in_z1", "in_z2", "density_bounds"),
    "linalg": ("snf", "cokernel_shape", "submodule_equal_mod"),
    "homology": (
        "hochschild",
        "hc_oracle",
        "cyclic_matrix",
        "hc_closed_form",
        "hc_neg_closed_form",
        "hp",
        "phi_coeffs",
        "connes_length_check",
        "hp_stabilization_check",
        "verify_kernel_generators",
        "verify_presentation",
    ),
    "cli": ("main",),
}


def _snf_extra(args, result):
    m = args[0]
    bits = max((abs(d).bit_length() for d in result.invariant_factors), default=0)
    return [m.rows * m.cols, max(m.rows, m.cols), bits]


def _hc_oracle_extra(args, result):
    return args[1]  # degree


EXTRA = {"linalg.snf": _snf_extra, "homology.hc_oracle": _hc_oracle_extra}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, extra]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn):
        spans, stack, extra = self.spans, self.stack, EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if extra is not None:
                spans[idx][4] = extra(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import importlib

        import cychom.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"cychom.{layer}")
            for name in names:
                wrappers[getattr(home, name)] = self.span(f"{layer}.{name}", getattr(home, name))
        from cychom import padic

        wrappers[padic.vp] = self.counter("padic.vp", padic.vp)
        for modname, mod in list(sys.modules.items()):
            if modname == "cychom" or modname.startswith("cychom."):
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in wrappers:
                        setattr(mod, attr, wrappers[value])

    def dump(self, path: str, query_id: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"query": query_id, "spans": self.spans, "counts": self.counts}, fh)


# ---- per-layer metrics -------------------------------------------------------

# name -> unit; every one is better lower.  ``gaps.peak_rss_mb``,
# ``cli.output_bytes`` and ``trace.overhead_s`` come from the query records
# in run.py, not from the spans.
PER_LAYER = {
    "linalg.self_s": "s",
    "linalg.snf.calls": "count",
    "linalg.snf.s": "s",
    "linalg.snf.cells": "count",
    "linalg.snf.max_dim": "count",
    "linalg.snf.max_factor_bits": "bits",
    "linalg.submodule_equal_mod.calls": "count",
    "linalg.submodule_equal_mod.s": "s",
    "homology.self_s": "s",
    "homology.hc_oracle.calls": "count",
    "homology.hc_oracle.s": "s",
    "homology.hc_oracle.snf_per_call": "ratio",
    "homology.hc_oracle.snf_per_even_call": "ratio",
    "homology.cyclic_matrix.s": "s",
    "homology.closed_form.s": "s",
    "homology.connes_length_check.s": "s",
    "homology.hp_stabilization_check.s": "s",
    "homology.verify_kernel_generators.s": "s",
    "homology.verify_presentation.s": "s",
    "gaps.self_s": "s",
    "gaps.sieve.calls": "count",
    "gaps.sieve.s": "s",
    "gaps.membership.calls": "count",
    "gaps.membership.s": "s",
    "gaps.density_bounds.s": "s",
    "gaps.peak_rss_mb": "MB",
    "padic.self_s": "s",
    "padic.a_val.calls": "count",
    "padic.a_val.s": "s",
    "padic.seq_ab.calls": "count",
    "padic.seq_ab.s": "s",
    "padic.vp.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Inclusive-time groups: metric prefix -> span names.
GROUPS = {
    "linalg.snf": ("linalg.snf",),
    "linalg.submodule_equal_mod": ("linalg.submodule_equal_mod",),
    "homology.hc_oracle": ("homology.hc_oracle",),
    "homology.cyclic_matrix": ("homology.cyclic_matrix",),
    "homology.closed_form": ("homology.hc_closed_form", "homology.hc_neg_closed_form", "homology.hp"),
    "homology.connes_length_check": ("homology.connes_length_check",),
    "homology.hp_stabilization_check": ("homology.hp_stabilization_check",),
    "homology.verify_kernel_generators": ("homology.verify_kernel_generators",),
    "homology.verify_presentation": ("homology.verify_presentation",),
    "gaps.sieve": ("gaps.enumerate_z1", "gaps.enumerate_z2"),
    "gaps.membership": ("gaps.in_z1", "gaps.in_z2"),
    "gaps.density_bounds": ("gaps.density_bounds",),
    "padic.a_val": ("padic.a_val",),
    "padic.seq_ab": ("padic.seq_a", "padic.seq_b"),
}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the given per-query span dumps.

    Self time is a span's duration minus that of its direct children.  A
    group's time counts only its outermost spans, so nested calls are not
    counted twice; its call count counts every span.
    """
    m = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
    snf_under_hc = hc_calls = 0
    snf_under_hc_even = hc_even_calls = 0
    group_of = {s: g for g, names in GROUPS.items() for s in names}
    for trace in traces:
        spans = trace["spans"]
        m["padic.vp.calls"] += trace["counts"].get("padic.vp", 0)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            m[name.split(".")[0] + ".self_s"] += end - start - child_time[idx]
            group = group_of.get(name)
            ancestors = []
            a = parent
            while a is not None:
                ancestors.append(spans[a])
                a = spans[a][3]
            if group is not None:
                if f"{group}.calls" in m:
                    m[f"{group}.calls"] += 1
                if not any(group_of.get(s[0]) == group for s in ancestors):
                    m[f"{group}.s"] += end - start
            if name == "linalg.snf":
                cells, dim, bits = extra
                m["linalg.snf.cells"] += cells
                m["linalg.snf.max_dim"] = max(m["linalg.snf.max_dim"], dim)
                m["linalg.snf.max_factor_bits"] = max(m["linalg.snf.max_factor_bits"], bits)
                hc = next((s for s in ancestors if s[0] == "homology.hc_oracle"), None)
                if hc is not None:
                    snf_under_hc += 1
                    snf_under_hc_even += hc[4] % 2 == 0
            elif name == "homology.hc_oracle":
                hc_calls += 1
                hc_even_calls += extra % 2 == 0
    m["homology.hc_oracle.snf_per_call"] = snf_under_hc / hc_calls if hc_calls else 0.0
    m["homology.hc_oracle.snf_per_even_call"] = snf_under_hc_even / hc_even_calls if hc_even_calls else 0.0
    return m
