"""Spans and counters at hyperwall's module boundaries, from outside.

Hooks rebind names where one module calls another (or wrap a class method
that another module calls) for the duration of a traced pass, then restore
them.  Coarse calls are kept as spans (name, start, end, parent, query id)
in memory and written out at the end; hot leaf calls (pairings, filters,
interval solves) are only counted and timed, since storing one span each
would cost more memory than the work they measure.  A hook whose target no
longer exists is reported by name, and every metric that depends on it
reads null.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (group, owner, attribute, stored as spans, counted only inside these groups)
_MODULE_HOOKS = [
    ("lattice.picard_build", "hyperwall.lattice:PicardLattice", "__init__", True, None),
    ("lattice.pair", "hyperwall.lattice:PicardLattice", "pair", False, None),
    ("lattice.pair", "hyperwall.lattice:PicardLattice", "square", False, None),
    ("lattice.filter", "hyperwall.lattice:PicardLattice", "to_ambient", False, ("enumeration.", "cones.")),
    ("lattice.filter", "hyperwall.lattice:AmbientLattice", "divisibility", False, ("enumeration.", "cones.")),
    ("rational_linalg.inertia", "hyperwall.lattice", "inertia", False, None),
    ("rational_linalg.context", "hyperwall.enumeration", "linear_form_basis", False, None),
    ("rational_linalg.context", "hyperwall.enumeration", "ldl_positive", False, None),
    ("rational_linalg.context", "hyperwall.enumeration", "solve_exact", False, None),
    ("rational_linalg.interval", "hyperwall.enumeration", "integer_interval", False, None),
    ("enumeration.context_build", "hyperwall.enumeration:_SliceContext", "__init__", True, None),
    ("enumeration.slice", "hyperwall.enumeration:_SliceContext", "solutions", True, None),
    ("enumeration.enumerate_walls", "hyperwall.enumeration", "enumerate_walls", True, None),
    ("enumeration.enumerate_walls", "hyperwall.cones", "enumerate_walls", True, None),
    ("enumeration.enumerate_walls", "hyperwall.cli", "enumerate_walls", True, None),
    ("cones.validate", "hyperwall.cones", "validate_polarization", True, None),
    ("cones.verdict", "hyperwall.cones", "is_ample", True, None),
    ("cones.verdict", "hyperwall.cones", "nef_threshold", True, None),
    ("cones.verdict", "hyperwall.cli", "is_ample", True, None),
    ("cones.verdict", "hyperwall.cli", "nef_threshold", True, None),
    ("cohomology.lagrangian", "hyperwall.cli", "lagrangian_eliminant", True, None),
    ("cohomology.lagrangian", "hyperwall.cli", "lagrangian_solver", True, None),
    ("cli.parse", "hyperwall.cli", "load_input_document", True, None),
    *(
        ("cli.handler", "hyperwall.cli", f"cmd_{c}", True, None)
        for c in ("lattice_info", "walls", "ample", "nef_threshold", "classify", "lagrangian")
    ),
    ("cli.render", "hyperwall.cli", "_render_text", True, None),
    ("cli.render", "hyperwall.cli", "json.dumps", True, None),
]


class _Proxy:
    """Stands in for a foreign module (json) inside one hyperwall module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [group, start_ns, child_ns, span_id]
        self.spans: list[tuple] = []
        self.totals = defaultdict(lambda: [0, 0, 0])  # calls, total ns, self ns
        self.counters = defaultdict(int)
        self.query_id = None
        self.missing: dict[str, list[str]] = defaultdict(list)
        self._undo: list = []
        self._next_id = 0

    # -- recording

    def _inside(self, prefixes) -> bool:
        return any(f[0].startswith(prefixes) for f in self.stack)

    def call(self, group, store, within, fn, args, kwargs):
        if self.stack and self.stack[-1][0] == group and group == "lattice.pair":
            return fn(*args, **kwargs)  # square() calling pair(): one call
        if within is not None and not self._inside(within):
            return fn(*args, **kwargs)
        span_id = None
        if store:
            span_id = self._next_id
            self._next_id += 1
        frame = [group, time.perf_counter_ns(), 0, span_id]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            dur = end - frame[1]
            if self.stack:
                self.stack[-1][2] += dur
            tot = self.totals[group]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[2]
            if store:
                parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
                self.spans.append((span_id, group, frame[1], end, parent, self.query_id))
        if group == "enumeration.slice":
            self.counters["candidates"] += len(result)
        elif group == "enumeration.enumerate_walls":
            self.counters["walls"] += len(result)
        return result

    def _wrap(self, group, fn, store, within):
        tracer = self

        def hooked(*args, **kwargs):
            return tracer.call(group, store, within, fn, args, kwargs)

        hooked.__wrapped__ = fn
        return hooked

    # -- installing

    def install(self) -> None:
        # Import every owner first: a module imported after a hook went in
        # would bind the hook as if it were the original.
        for _, owner_path, _, _, _ in _MODULE_HOOKS:
            with contextlib.suppress(ImportError):
                importlib.import_module(owner_path.partition(":")[0])
        wrapped: dict[int, object] = {}
        for group, owner_path, attr, store, within in _MODULE_HOOKS:
            label = f"{owner_path}.{attr}"
            try:
                mod_name, _, cls_name = owner_path.partition(":")
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                if "." in attr:  # a foreign module's function, via a proxy
                    mod_attr, fn_name = attr.split(".")
                    foreign = getattr(owner, mod_attr)
                    hook = self._wrap(group, getattr(foreign, fn_name), store, within)
                    self._set(owner, mod_attr, _Proxy(foreign, **{fn_name: hook}))
                    continue
                original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing[group].append(label)
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(group, original, store, within)
            self._set(owner, attr, wrapped[id(original)])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading

    def calls(self, *groups):
        if any(g in self.missing for g in groups):
            return None
        return sum(self.totals[g][0] for g in groups)

    def seconds(self, *groups, self_time=False):
        if any(g in self.missing for g in groups):
            return None
        return sum(self.totals[g][2 if self_time else 1] for g in groups) / 1e9

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, group, start, end, parent, qid in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": group, "start_ns": start, "end_ns": end,
                    "parent": parent, "query": qid,
                }) + "\n")
