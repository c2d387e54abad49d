"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces each wrapped public function, in every
``contextuality`` module namespace that holds it, by a wrapper that times
the call and counts it. The CLI imports these names directly, so patching
the defining module alone would miss most calls. A span's self time is
its duration minus the time its wrapped children cover; the request time
outside every top-level span is ``cli.self_s``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

WRAPPED = {
    "analysis": ("build_incidence", "noncontextual_fraction",
                 "find_global_distribution", "global_sections"),
    "exactlp": ("maximize", "feasible_equalities"),
    "realize": ("realize_model_exact", "born_distribution_exact",
                "context_eigenstate"),
    "pauli": ("is_state_independent_avn", "partial_closure", "measurement_cover",
              "state_independent_theory", "kl_witness", "kl_pattern_test"),
    "linear_theory": ("theory_of_supports", "is_consistent"),
    "gf2": ("nullspace",),
    "empirical": ("model_from_dict", "check_no_signaling", "possibilistic_collapse"),
    "scenario": ("enumerate_assignments",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


def _cells(lhs) -> int:
    return len(lhs) * (len(lhs[0]) if lhs else 0)


def _observe(name: str, args, result, counts) -> None:
    """Counts taken from a finished call's arguments and result."""
    if name == "analysis.build_incidence":
        counts["analysis.incidence_columns"] += len(result.columns)
    elif name == "analysis.global_sections":
        counts["analysis.sections_enumerated"] += len(result)
    elif name == "exactlp.maximize":
        counts["analysis.lp_columns"] += len(args[0])
        counts["exactlp.maximize.cells"] += _cells(args[1])
    elif name == "exactlp.feasible_equalities":
        lhs = args[0]
        counts["analysis.lp_columns"] += len(lhs[0]) if lhs else 0
        counts["exactlp.feasible_equalities.cells"] += _cells(lhs)
        counts["exactlp.feasible_equalities.infeasible"] += result is None
    elif name == "pauli.partial_closure":
        counts["pauli.closure_members"] += len(result.members)
    elif name == "pauli.measurement_cover":
        counts["pauli.cover_contexts"] += len(result)
    elif name == "pauli.state_independent_theory":
        counts["pauli.si_equations"] += len(result.equations)
    elif name == "pauli.kl_witness":
        counts["pauli.kl_witness.found"] += result is not None
    elif name == "linear_theory.is_consistent":
        counts["linear_theory.inconsistent"] += not result.consistent


# functions that compute a closure themselves; callers only pass the error on
_CLOSURE_OWNERS = ("pauli.partial_closure", "pauli.kl_witness")


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0  # time covered by top-level spans
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        from contextuality.errors import ClosureLimitError

        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ClosureLimitError:
                if name in _CLOSURE_OWNERS:
                    self.counts["pauli.closure_limit_errors"] += 1
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            _observe(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a package module binds it."""
        import contextuality  # noqa: F401  (loads every submodule)

        originals = {}
        for module, names in WRAPPED.items():
            mod = sys.modules[f"contextuality.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "contextuality" and not modname.startswith("contextuality."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
