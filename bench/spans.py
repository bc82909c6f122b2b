"""Spans around the public functions of quiverh1, recorded from outside.

The program carries no timers of its own, so the traced run wraps each
function in ``TRACED`` at every binding inside the ``quiverh1`` modules
(``cli``, ``formulas`` and ``simplicial`` import by name, so patching the
defining module alone would miss their calls).  Spans stay in memory; the
worker writes them out when the run ends.

A function that is not found is reported in ``Tracer.missing`` and skipped:
its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _basis_dim(args, result):
    return result.dimension


def _triples(args, result):
    return args[0].dimension ** 3


def _unknowns(args, result):
    rep = args[0]
    return rep.algebra.dimension * rep.dim


PACKAGE = "quiverh1"

# "<module>.<attribute>[.<method>]" -> size counters: name -> f(args, result).
TRACED = {
    "cli.main": {},
    "cli.parse": {},
    "quiver.enumerate_paths": {},
    "quiver.is_acyclic": {},
    "presentations.basis_B": {},
    "presentations.is_pregenerated_monomial": {},
    "presentations.slice_ideal_dims": {},
    "presentations.truncated_is_pregenerated": {},
    "presentations.build_algebra": {"basis_dim": _basis_dim},
    "presentations.StructureConstantAlgebra.check": {"triples": _triples},
    "formulas.classify_and_compute": {},
    "formulas.effective_pairs": {},
    "formulas.h1_pregenerated": {},
    "exactalg.regular_bimodule": {},
    "exactalg.BimoduleRep.validate": {},
    "exactalg.derivation_space_dim": {"unknowns": _unknowns},
    "exactalg.invariants_dim": {},
    "exactalg.bar_cohomology_dim": {},
    "simplicial.Poset.from_pairs": {},
    "simplicial.incidence_algebra": {},
    "simplicial.order_complex": {},
    "simplicial.simplicial_h_dim": {},
}

def layer_name(target: str) -> str:
    """'presentations.StructureConstantAlgebra.check' -> 'presentations.check'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Spans ``[name, start, end, parent index, document id]`` and size counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = ""
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.doc])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, counters: dict):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            for key, size in counters.items():
                try:
                    value = size(args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer._note_missing(f"{name}.{key}")
                    continue
                full = f"{name}.{key}"
                tracer.counters[full] = tracer.counters.get(full, 0) + value
            return result

        return traced

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of TRACED at each of its bindings; undone by
        ``uninstall``."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for target, counters in TRACED.items():
            name = layer_name(target)
            mod_name, *attrs = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for attr in attrs[:-1]:
                    owner = getattr(owner, attr)
                raw = vars(owner)[attrs[-1]]
            except (ImportError, AttributeError, KeyError):
                self._note_missing(target)
                continue
            if isinstance(raw, type):
                self._note_missing(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, counters))
                self._set(owner, attrs[-1], raw, wrapped)
                continue
            if not callable(raw):
                self._note_missing(target)
                continue
            wrapped = self._wrap(name, raw, counters)
            if isinstance(owner, type):
                self._set(owner, attrs[-1], raw, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, attr, raw, wrapped)

    def _set(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def self_times(self, first: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name, over spans[first:].

        A span's self time is its duration minus that of its direct children;
        spans nest, so the self times of a document's spans add up to the
        duration of its root span.
        """
        child = [0.0] * (len(self.spans) - first)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:]):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, doc]) + "\n")
