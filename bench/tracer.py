"""Layer spans installed from outside the program.

Each span target is a public function of one fsing module or a method of one
of its classes.  A module function is replaced in every fsing module that
binds it, the defining module and each importer, so a call through any of
those names is seen.  A method is replaced on its class.  Spans nest: the
self time of a span is its duration minus the time of the spans it encloses.
`Tracer.remove` puts every original object back and `Tracer.leftovers`
confirms that nothing wrapped is left.
"""

from __future__ import annotations

import sys
import time

from collections import Counter

# metric prefix, module, function or "Class.method"
SPANS = (
    ("cli.main", "fsing.cli", "main"),
    ("cli.load_problem", "fsing.cli", "load_problem"),
    ("ring.parse_polynomial", "fsing.ring", "parse_polynomial"),
    ("ring.pow", "fsing.ring", "Polynomial.__pow__"),
    ("ring.monomials_of_degree", "fsing.ring", "monomials_of_degree"),
    ("groebner.basis", "fsing.groebner", "Ideal.groebner"),
    ("groebner.normal_form", "fsing.groebner", "normal_form"),
    ("groebner.standard_monomials", "fsing.groebner", "Ideal.standard_monomials"),
    ("groebner.colon", "fsing.groebner", "Ideal.colon"),
    ("groebner.intersection", "fsing.groebner", "Ideal.intersection"),
    ("frobenius.root", "fsing.frobenius", "frobenius_root_principal"),
    ("frobenius.bracket_power", "fsing.frobenius", "bracket_power"),
    ("frobenius.compute_tau", "fsing.frobenius", "compute_tau"),
    ("frobenius.fedder", "fsing.frobenius", "fedder_test_at_m"),
    ("frobenius.ci_check", "fsing.frobenius", "CompleteIntersection.__post_init__"),
    ("localcoh.graded_piece_basis", "fsing.localcoh", "graded_piece_basis"),
    ("localcoh.verify_injectivity", "fsing.localcoh", "verify_injectivity"),
    ("localcoh.kernel_witness", "fsing.localcoh", "kernel_witness"),
    ("linalg.rank", "fsing.linalg", "rank"),
    ("linalg.nullspace", "fsing.linalg", "nullspace"),
    ("invariants.analyze", "fsing.invariants", "analyze"),
    ("invariants.isolated", "fsing.invariants", "isolated_singularity_test"),
    ("invariants.find_stable_q", "fsing.invariants", "find_stable_q"),
)

# counted, not timed: their time stays with the enclosing span
COUNTED = (("invariants.q_tried", "fsing.invariants", "stabilization_check"),)


def _cells(args, result):
    shape = getattr(args[0], "shape", ())
    return {"linalg.cells": shape[0] * shape[1] if len(shape) == 2 else 0}


# extra counts taken from a span's arguments and result
MEASURES = {
    "groebner.basis": lambda args, gb: {
        "groebner.basis.input_gens": len(args[0].generators),
        "groebner.basis.size": len(gb),
    },
    "ring.monomials_of_degree": lambda args, monos: {
        "ring.monomials_of_degree.count": len(monos)
    },
    "frobenius.root": lambda args, ideal: {"frobenius.root_gens": len(ideal.generators)},
    "localcoh.graded_piece_basis": lambda args, basis: {
        "localcoh.coords": len(basis.coordinates)
    },
    "linalg.rank": _cells,
    "linalg.nullspace": _cells,
}

# calls that bypass their span: a basis already cached on the ideal
SKIPS = {"groebner.basis": lambda args: args[0]._gb is not None}

MARK = "__bench_original__"


class Tracer:
    def __init__(self):
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._removed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # time inside outermost spans
        self.root_s = 0.0

    def snapshot(self) -> dict[str, float]:
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        return out

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        measure = MEASURES.get(name)
        skip = SKIPS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if measure is not None:
                self.counts.update(measure(args, result))
            return result

        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing and removing -----------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "fsing" or key.startswith("fsing.")
        ]

    def _patch(self, owner, key, original, wrapper):
        setattr(wrapper, MARK, original)
        wrapper.__name__ = getattr(original, "__name__", key)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        targets = [(n, m, a, self._span) for n, m, a in SPANS]
        targets += [(n, m, a, self._counter) for n, m, a in COUNTED]
        for name, module, attr, make in targets:
            home = by_name[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, make(name, original))
                continue
            original = getattr(home, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, make(name, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._removed, self._patches = self._patches, []

    def leftovers(self) -> list[str]:
        """Names that do not hold their original object again, and names in
        fsing modules and their classes that still hold a wrapper."""
        found = [
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original in self._removed
            if vars(owner).get(key) is not original
        ]
        for mod in self._modules():
            for key, value in vars(mod).items():
                if hasattr(value, MARK):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if hasattr(member, MARK):
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found
