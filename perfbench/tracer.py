"""Span recorder that times pseudobound's layers from outside the package.

The tracer replaces the module attributes that callers look up (for example
``tomography.measure`` or ``core.is_ppt``) with thin wrappers.  Package code
calls its collaborators through module globals or ``module.attr`` lookups,
so every call made while the wrappers are installed records one span:
``[name, start, end, parent, op, work]``.  Spans stay in memory and are written
out once the run ends.  Nothing under ``src/`` is modified; ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, attribute) of every traced layer boundary.  "Class.method" wraps
# a method on the class; DensityOperator.__post_init__ runs once per
# validated construction, so its span count is the number of states built.
TARGETS = (
    ("cli", "main"),
    ("cli", "build_report"),
    ("core", "DensityOperator.__post_init__"),
    ("core", "is_ppt"),
    ("core", "uhlmann_fidelity"),
    ("core", "trace_distance"),
    ("core", "matrix_from_json"),
    ("core", "matrix_to_json"),
    ("states", "pseudo_state"),
    ("states", "peel_matrix"),
    ("witnesses", "expectation"),
    ("witnesses", "optimize_parameters"),
    ("witnesses", "min_over_product_states"),
    ("nmr", "depolarize"),
    ("nmr", "target_diagonal"),
    ("nmr", "initial_states"),
    ("nmr", "solve_temporal_weights"),
    ("nmr", "prepare_pseudo_state"),
    ("tomography", "generate_dataset"),
    ("tomography", "measure"),
    ("tomography", "reconstruct"),
    ("tomography", "propagate_witness_error"),
    ("tomography", "project_to_physical"),
    ("tomography", "TomographyDataset.from_json"),
    ("tomography", "TomographyDataset.to_json"),
)

# Spans of these layers also record the value of one argument, summed as
# work done (restarts of the product-state search).
WORK_ARGUMENTS = {"witnesses.min_over_product_states": "restarts"}

OP = "op"
PACKAGE = "pseudobound"


def span_name(module: str, attribute: str) -> str:
    if attribute.endswith(".__post_init__"):
        attribute = attribute[: -len(".__post_init__")]
    return f"{module}.{attribute}"


class Tracer:
    """Installs span-recording wrappers and aggregates the recorded spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._plan_cache = None

    # -- recording -------------------------------------------------------

    def _open(self, name: str, work: float = 0.0) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._op, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> list:
        """Open the root span of one benchmark operation."""
        self._op += 1
        return self._open(OP)

    def end_op(self, rec: list) -> None:
        self._close(rec)

    @property
    def ops(self) -> int:
        return self._op + 1

    def _wrapper(self, name: str, fn):
        work_arg = WORK_ARGUMENTS.get(name)
        signature = inspect.signature(fn) if work_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0.0
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = float(bound.arguments[work_arg])
            rec = self._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    # -- installing ------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding of every target."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        plan = []
        for module_name, attribute in TARGETS:
            name = span_name(module_name, attribute)
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name or attribute, None)
            if owner is None or (owner_name and method not in vars(owner)):
                self.missing.append(name)
                continue
            if owner_name:
                raw = vars(owner)[method]
                if isinstance(raw, classmethod):
                    plan.append((owner, method, classmethod(self._wrapper(name, raw.__func__))))
                else:
                    plan.append((owner, method, self._wrapper(name, raw)))
                continue
            # rebind every module global that refers to the same function,
            # so `from .core import f` call sites are traced too
            wrapped = self._wrapper(name, owner)
            plan += [(mod, key, wrapped) for mod in modules
                     for key, value in vars(mod).items() if value is owner]
        return plan

    def install(self) -> None:
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, wrapped in self._plan_cache:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def layer_totals(self, count_ops: int | None = None) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, work.

        Self time is a span's duration minus the time its child spans
        cover.  ``count_calls`` and ``count_work`` only include spans of
        the first ``count_ops`` operations, so that they repeat exactly for
        a given input sequence whatever the run length.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict] = {}
        for idx, (name, start, end, _parent, op, work) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                                         "count_calls": 0, "count_work": 0.0})
            t["calls"] += 1
            t["inclusive_s"] += end - start
            t["self_s"] += end - start - child[idx]
            if count_ops is None or op < count_ops:
                t["count_calls"] += 1
                t["count_work"] += work
        return totals

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]}, fh)
