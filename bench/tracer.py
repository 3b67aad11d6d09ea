"""Spans and counters around qsl2's public functions, for traced runs only.

``Tracer.installed()`` wraps every public function of the layers qarith,
modrep, tensorcg, serialize and cli, plus the LaurentPoly ring methods,
and restores the originals on exit.  A wrapped name is replaced
everywhere it is looked up: in every qsl2 module namespace that binds
the same function object and in module-level dicts such as
``cli.COMMANDS``.

Most functions record one span per call: name, start, end, parent span,
request id and self time (duration minus the time covered by wrapped
calls inside it).  Hot functions (ring ops, q-integers, ``apply`` and
the serializers) are instead aggregated per enclosing span as
[calls, total seconds, self seconds].  Spans stay in memory until
``write`` puts them out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("qarith", "modrep", "tensorcg", "serialize", "cli")

# public functions aggregated per enclosing span instead of one span per call
HOT = {"qarith": None, "serialize": None, "modrep": {"apply"}}  # None: all of them

RING_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "div_exact": "div_exact",
}

# metric group of each wrapped name; a name not listed is its own group
GROUP = {
    "qarith.lp_gcd": "qarith.gcd",
    "modrep.finite_dim_classical": "modrep.construct",
    "modrep.finite_dim_quantum": "modrep.construct",
    "modrep.verma_classical": "modrep.construct",
    "modrep.rasskazova": "modrep.construct",
    "modrep.corrupt_one_entry": "modrep.construct",
    "modrep.WeightModule.__init__": "modrep.module_init",
    "tensorcg.tensor_classical": "tensorcg.tensor",
    "tensorcg.tensor_quantum": "tensorcg.tensor",
    "tensorcg.highest_weight_vectors": "tensorcg.hwv",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
    "cli.cmd_decompose": "cli.command",
    "cli.cmd_hwv": "cli.command",
    "cli.cmd_check": "cli.command",
    "cli.cmd_qtable": "cli.command",
}


def group_of(name: str) -> str:
    if name.startswith("serialize."):
        return "serialize"
    return GROUP.get(name, name)


class Tracer:
    def __init__(self):
        # span record: [name, start, end, parent index, request id, self_s, ops]
        self.spans: list[list] = []
        self.root_ops: dict = {}
        # frame: [seconds covered by wrapped callees, span index, ops dict]
        self.stack: list[list] = [[0.0, None, self.root_ops]]
        self.req = None
        self.counts: dict = defaultdict(int)
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent[1], self.req, 0.0, {}]
            frame = [0.0, len(spans), rec[6]]
            spans.append(rec)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                rec[1], rec[2], rec[5] = t0, t1, t1 - t0 - frame[0]
            if post is not None:
                post(result)
            return result

        return wrapped

    def op(self, name, fn, post=None):
        stack, perf = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                parent[0] += elapsed
                agg = parent[2].get(name)
                if agg is None:
                    agg = parent[2][name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
            if post is not None:
                post(result)
            return result

        return wrapped

    # -- deterministic counters ------------------------------------------------

    def _div_result(self, r):
        if r:
            counts = self.counts
            counts["qarith.peak_degree"] = max(counts["qarith.peak_degree"], r.max_exp - r.min_exp)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in r.terms())
            counts["qarith.peak_coeff_bits"] = max(counts["qarith.peak_coeff_bits"], bits)

    def _hwv_request(self, weight_spaces):
        def pre(module, *args, **kwargs):
            # every caller in qsl2 wants the one weight space m+n-2p
            spaces = weight_spaces(module)
            self.counts["tensorcg.hwv.requested"] += 1
            self.counts["tensorcg.hwv.spaces"] += len(spaces)
            self.counts["tensorcg.hwv.matrix_entries"] += sum(
                len(src) * len(spaces.get(w + 2, ())) for w, src in spaces.items()
            )

        return pre

    def _relations(self, report):
        self.counts["modrep.relations_checked"] += len(report.checked) * len(report.relations)

    def _request(self, *args, **kwargs):
        self.counts["cli.requests"] += 1

    # -- installation ----------------------------------------------------------

    def _set(self, obj, name, value):
        had = name in vars(obj)
        old = vars(obj).get(name)
        setattr(obj, name, value)
        self._undo.append(lambda: setattr(obj, name, old) if had else delattr(obj, name))

    def _replace_everywhere(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)
                elif type(val) is dict:
                    for key, x in list(val.items()):
                        if x is orig:
                            val[key] = wrapper
                            self._undo.append(lambda d=val, k=key: d.__setitem__(k, orig))

    @contextlib.contextmanager
    def installed(self):
        """Wrap qsl2 (already imported) for the duration of the block."""
        import qsl2.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n == "qsl2" or n.startswith("qsl2.")]
        layer = {n: sys.modules[f"qsl2.{n}"] for n in LAYERS}
        try:
            self._install(modules, layer)
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    def _install(self, modules, layer):
        for lname, mod in layer.items():
            hot = HOT.get(lname, ())
            namespace = dict(vars(mod))  # the originals, before any is replaced
            for fname, fn in namespace.items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{lname}.{fname}"
                if hot is None or fname in hot:
                    wrapper = self.op(group_of(name), fn)
                elif name == "tensorcg.highest_weight_vectors":
                    wrapper = self.span(name, fn, pre=self._hwv_request(namespace["weight_spaces"]))
                elif name == "modrep.check_relations":
                    wrapper = self.span(name, fn, post=self._relations)
                elif name == "cli.main":
                    wrapper = self.span(name, fn, pre=self._request)
                else:
                    wrapper = self.span(name, fn)
                self._replace_everywhere(modules, fn, wrapper)

        poly = layer["qarith"].LaurentPoly
        for meth, opname in RING_OPS.items():
            post = self._div_result if meth == "div_exact" else None
            self._set(poly, meth, self.op(f"qarith.{opname}", vars(poly)[meth], post))
        init = poly.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["qarith.new.calls"] += 1
            init(obj, *args, **kwargs)

        self._set(poly, "__init__", counted_init)

        module_cls = layer["modrep"].WeightModule
        self._set(module_cls, "__init__", self.span("modrep.WeightModule.__init__", module_cls.__init__))
        parser_cls = layer["cli"]._Parser
        self._set(parser_cls, "parse_args", self.span("cli.parse_args", parser_cls.parse_args))

    # -- results -----------------------------------------------------------------

    def groups(self) -> dict:
        """{group: [calls, total_s, self_s]} over all spans and aggregated ops."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])

        def add(key, calls, total, self_s):
            g = out[key]
            g[0] += calls
            g[1] += total
            g[2] += self_s

        for name, start, end, _parent, _req, self_s, ops in self.spans:
            add(group_of(name), 1, end - start, self_s)
            for op, agg in ops.items():
                add(op, *agg)
        for op, agg in self.root_ops.items():
            add(op, *agg)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, req, self_s, ops in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "req": req, "self_s": self_s, "ops": ops,
                }) + "\n")
