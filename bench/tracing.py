"""Spans and counters around pairloc's public functions, installed from outside.

`Tracer.install` wraps each traced function and rebinds every name that
refers to it in every loaded pairloc module, because modules import one
another's functions by name (`support` holds its own `radical_member`,
`ideals` its own `buchberger`).  `Tracer.remove` puts the originals back, so
untraced passes run the unmodified code.

A span is (id, name, start, end, parent id, query index).  Spans stay in
memory; `Tracer.write_spans` writes them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function): the public functions the workloads reach, each opening a span.
SPANNED = [
    ("groebner", "buchberger"), ("groebner", "normal_form"),
    ("ideals", "radical_member"), ("ideals", "intersect"), ("ideals", "colon"),
    ("ideals", "saturate"), ("ideals", "dim_quotient"),
    ("support", "w_member"), ("support", "wtilde_member"),
    ("torsion", "gamma_monomial"), ("torsion", "gamma_member"), ("torsion", "is_torsion"),
    ("torsion", "ass_gamma"),
    ("invariants", "pair_depth"), ("invariants", "lh_vanishes"),
    ("invariants", "ara_upper_bound"), ("invariants", "top_nonvanishing"),
    ("betti", "hochster_betti"), ("betti", "matrix_rank"), ("betti", "polarize"),
    ("betti", "depth_quotient"), ("betti", "depth_at_face"),
]


class Tracer:
    def __init__(self, pairloc):
        self.modules = {name: getattr(pairloc, name) for name in
                        ("ring", "groebner", "ideals", "support", "torsion",
                         "invariants", "betti")}
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.query = -1
        self._last_spoly = None
        self._saved = []  # (owner, attribute, original)
        # Hooks that count work from a call's arguments and result:
        # name -> (before(args) -> state, after(args, state, result)).
        self.hooks = {
            "groebner.normal_form": (None, self._after_normal_form),
            "ideals.radical_member": (lambda args: len(self.modules["ideals"]._radical_cache),
                                      self._after_radical_member),
            "torsion.gamma_monomial": (None, self._after_gamma_monomial),
            "betti.matrix_rank": (None, self._after_matrix_rank),
        }

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.query = -1
        self._last_spoly = None

    # -- installation ------------------------------------------------------

    def install(self):
        for mod, name in SPANNED:
            original = getattr(self.modules[mod], name)
            self._rebind(original, self._span(f"{mod}.{name}", original))
        groebner = self.modules["groebner"]
        self._rebind(groebner.s_polynomial, self._s_polynomial(groebner.s_polynomial))
        poly = self.modules["ring"].Polynomial
        for method in ("mul_term", "leading_term"):
            self._set(poly, method, self._counted(f"ring.{method}", getattr(poly, method)))
        ideal = self.modules["ideals"].Ideal
        self._set(ideal, "groebner", self._ideal_groebner(ideal.groebner))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "pairloc" and not modname.startswith("pairloc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        before, after = self.hooks.get(name, (None, None))
        calls = name + "_calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            state = before(args) if before else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (index, name, start, end, parent, self.query)
            counts[calls] += 1
            if after:
                after(args, state, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts, calls = self.counts, name + "_calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _s_polynomial(self, fn):
        def wrapper(f, g):
            result = fn(f, g)
            self._last_spoly = result
            return result
        return wrapper

    def _ideal_groebner(self, fn):
        cache = self.modules["ideals"]._gb_cache

        def wrapper(ideal):
            before = len(cache)
            memo = ideal._gb is not None
            result = fn(ideal)
            self.counts["ideals.gb_calls"] += 1
            if memo or len(cache) == before:
                self.counts["ideals.gb_hits"] += 1
            return result
        return wrapper

    def _after_normal_form(self, args, state, result):
        # buchberger reduces each S-polynomial straight after building it
        if args[0] is self._last_spoly:
            self._last_spoly = None
            self.counts["groebner.spairs_reduced"] += 1
            if not result.is_zero():
                self.counts["groebner.spairs_added"] += 1

    def _after_radical_member(self, args, cache_size, result):
        if not args[0].is_zero() and len(self.modules["ideals"]._radical_cache) == cache_size:
            self.counts["ideals.radical_hits"] += 1

    def _after_gamma_monomial(self, args, state, result):
        Km = args[0].K.as_monomial()
        box = 1
        for e in Km.max_exponents():
            box *= e + 1
        self.counts["torsion.box_monomials"] += box
        self.counts["torsion.new_generators"] += len(set(result.L.gens) - set(Km.gens))

    def _after_matrix_rank(self, args, state, result):
        rows = args[0]
        self.counts["betti.rank_entries"] += len(rows) * (len(rows[0]) if rows else 0)

    # -- reports -----------------------------------------------------------

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        own = Counter()
        for index, name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][1]] -= end - start
        return own

    def cache_entries(self):
        ideals = self.modules["ideals"]
        return len(ideals._gb_cache) + len(ideals._radical_cache)

    def write_spans(self, path):
        with open(path, "w") as out:
            for index, name, start, end, parent, query in self.spans:
                out.write(json.dumps({"id": index, "name": name, "start": start,
                                      "end": end, "parent": parent, "query": query}) + "\n")


def layer_metrics(counts, own, cache_entries, overhead_ratio):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    values = {
        "ring.mul_term_calls": counts["ring.mul_term_calls"],
        "ring.leading_term_calls": counts["ring.leading_term_calls"],
        "groebner.buchberger_calls": counts["groebner.buchberger_calls"],
        "groebner.buchberger_s": own["groebner.buchberger"],
        "groebner.spairs_reduced": counts["groebner.spairs_reduced"],
        "groebner.spair_yield": ratio("groebner.spairs_added", "groebner.spairs_reduced"),
        "groebner.normal_form_calls": counts["groebner.normal_form_calls"],
        "groebner.normal_form_s": own["groebner.normal_form"],
        "ideals.radical_member_calls": counts["ideals.radical_member_calls"],
        "ideals.radical_member_s": own["ideals.radical_member"],
        "ideals.radical_cache_hit_ratio": ratio("ideals.radical_hits",
                                                "ideals.radical_member_calls"),
        "ideals.gb_cache_hit_ratio": ratio("ideals.gb_hits", "ideals.gb_calls"),
        "ideals.intersect_s": own["ideals.intersect"],
        "ideals.colon_s": own["ideals.colon"],
        "ideals.saturate_s": own["ideals.saturate"],
        "ideals.cache_entries": cache_entries,
        "support.w_member_calls": counts["support.w_member_calls"],
        "support.w_member_s": own["support.w_member"],
        "support.wtilde_member_calls": counts["support.wtilde_member_calls"],
        "torsion.gamma_monomial_calls": counts["torsion.gamma_monomial_calls"],
        "torsion.gamma_monomial_s": own["torsion.gamma_monomial"],
        "torsion.box_monomials": counts["torsion.box_monomials"],
        "torsion.box_yield": ratio("torsion.new_generators", "torsion.box_monomials"),
        "torsion.ass_gamma_s": own["torsion.ass_gamma"],
        "invariants.pair_depth_calls": counts["invariants.pair_depth_calls"],
        "invariants.pair_depth_s": own["invariants.pair_depth"],
        "invariants.lh_vanishes_s": own["invariants.lh_vanishes"],
        "betti.hochster_calls": counts["betti.hochster_betti_calls"],
        "betti.hochster_s": own["betti.hochster_betti"],
        "betti.matrix_rank_calls": counts["betti.matrix_rank_calls"],
        "betti.matrix_rank_s": own["betti.matrix_rank"],
        "betti.rank_entries": counts["betti.rank_entries"],
        "betti.polarize_s": own["betti.polarize"],
        "betti.depth_at_face_calls": counts["betti.depth_at_face_calls"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return values


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"
