"""Spans and counts at qamg's module boundaries, recorded from outside qamg.

`Tracer.install()` replaces each traced function in every qamg module
namespace that holds it (the defining module and each importer), plus
`numpy.linalg.svd` and `numpy.linalg.eigh`, with a wrapper that records a
span.  `uninstall()` puts the originals back.  Spans stay in memory; the
benchmark writes them out when it ends.  A span's self time is its duration
minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _gram_counts(args, kwargs) -> dict:
    return {"columns": 1 << _arg(args, kwargs, 1, "m")}


def _gram_key(args, kwargs):
    return (args[0], _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "k"), kwargs.get("layout"))


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives, the layer it reports as, its counts."""

    module: str
    attr: str
    layer: Callable[[tuple, dict], str]
    counts: Optional[Callable[[tuple, dict], dict]] = None
    # Arguments that identify a repeated call within one round.
    key: Optional[Callable[[tuple, dict], object]] = None


def _fixed(name: str) -> Callable[[tuple, dict], str]:
    return lambda args, kwargs: name


TARGETS = (
    Target(
        "qamg.circuits", "apply_circuit",
        lambda a, kw: "circuits.apply_exact" if a[0].exact else "circuits.apply_float",
        lambda a, kw: {"gates": len(a[1].gates)},
    ),
    Target("qamg.circuits", "measure_projector", _fixed("circuits.measure")),
    Target("qamg.circuits", "to_unitary", _fixed("circuits.to_unitary"), key=lambda a, kw: a[0]),
    Target("qamg.spectra", "acceptance_operator", _fixed("spectra.gram_float"),
           _gram_counts, lambda a, kw: ("accept",) + _gram_key(a, kw)),
    Target("qamg.spectra", "rejection_operator", _fixed("spectra.gram_float"),
           _gram_counts, lambda a, kw: ("reject",) + _gram_key(a, kw)),
    Target("qamg.spectra", "acceptance_operator_exact", _fixed("spectra.gram_exact"), _gram_counts),
    Target("qamg.spectra", "rejection_operator_exact", _fixed("spectra.gram_exact"), _gram_counts),
    Target("qamg.spectra", "eig_hermitian", _fixed("spectra.eig"),
           lambda a, kw: {"dim3": len(a[0]) ** 3}),
    Target("qamg.amplification", "run_alternating_measurements",
           _fixed("amplification.trajectories"),
           lambda a, kw: {"events": _arg(a, kw, 2, "n_events")}),
    Target("qamg.amplification", "binomial_tail", _fixed("amplification.binomial_tail")),
    Target("qamg.amplification", "counting_certificate", _fixed("amplification.certificate")),
    Target("qamg.amplification", "amplified_counting_certificate",
           _fixed("amplification.certificate")),
    Target("qamg.qam", "parallel_repetition_value", _fixed("qam.repetition")),
    Target("qamg.qam", "markov_check", _fixed("qam.markov")),
    Target("qamg.qmam", "optimize_cheating", _fixed("qmam.optimize"),
           lambda a, kw: {"restarts": max(1, kw.get("restarts", 16))}),
    Target("qamg.qmam", "honest_value", _fixed("qmam.honest")),
    Target("qamg.harness", "run_experiment", _fixed("harness.run_experiment")),
    Target("qamg.harness", "load_instance", _fixed("harness.load_instance")),
    Target("qamg.cli", "main", _fixed("cli.main")),
    Target("numpy.linalg", "svd", _fixed("lapack.svd")),
    Target("numpy.linalg", "eigh", _fixed("lapack.eigh")),
)


@dataclass
class _Open:
    layer: str
    ident: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans while installed; counts and times are summed per layer."""

    spans: list = field(default_factory=list)  # (id, layer, start, end, parent id or -1)
    totals: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _seen: set = field(default_factory=set)
    _patched: list = field(default_factory=list)
    _next_id: int = 0

    def new_round(self) -> None:
        """Forget the arguments seen so far, so `repeats` counts within one round."""
        self._seen.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self._seen.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            opened = _Open(target.layer(args, kwargs), self._next_id)
            self._next_id += 1
            self._stack.append(opened)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                self._record(target, opened, parent, args, kwargs, start, end, ok)

        return traced

    def _record(self, target, opened, parent, args, kwargs, start, end, ok) -> None:
        layer = opened.layer
        duration = end - start
        t = self.totals
        t[f"{layer}.calls"] += 1
        t[f"{layer}.s"] += duration
        t[f"{layer}.self_s"] += duration - opened.child_s
        if not ok:
            t[f"{layer}.failed"] += 1
        if target.counts is not None:
            for name, value in target.counts(args, kwargs).items():
                t[f"{layer}.{name}"] += value
        if target.key is not None:
            key = (layer, target.key(args, kwargs))
            if key in self._seen:
                t[f"{layer}.repeats"] += 1
            else:
                self._seen.add(key)
        parent_id = parent.ident if parent is not None else -1
        self.spans.append((opened.ident, layer, start, end, parent_id))

    def install(self) -> None:
        """Patch every namespace under qamg (and numpy.linalg) holding a target."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "qamg" or name.startswith("qamg."))]
        namespaces.append(np.linalg)
        for target in TARGETS:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, target)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
