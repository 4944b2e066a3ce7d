"""Spans around calls into shiftlab's public functions, for traced passes.

``install()`` wraps each function in ``SPANS`` and ``LEAVES`` from outside the
program: a method is replaced on its class, and a module function is replaced
in every ``shiftlab`` module that binds it (``runner``, ``boundary`` and
``cli`` hold their own ``from ... import`` references).  A target that no
longer exists is skipped, so its metrics read absent, not zero.

A span is ``[name, start, end, parent, attrs, leaf_s]``, kept in memory and
written out with the pass result.  Leaves are hot, short functions
(``Polynomial.__call__`` runs about a million times in ``boundary-d3``): they
are counted and timed in aggregate, and their time is charged to the
enclosing span so that self times stay exact.

``reduce()`` turns one pass's spans into the per-layer metrics; it is pure
Python and runs in the parent process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

def _basis_attrs(args, kwargs, result):
    """Degrees built, and the bytes of the arrays the degree records keep alive
    (a basis that is a view of the SVD's U keeps all of U, counted once)."""
    basis = args[0]
    if not hasattr(basis, "record"):
        return {"degrees": basis.n_max + 1}  # u_bytes reads absent
    held = {}
    for n in range(basis.n_max + 1):
        rec = basis.record(n)
        for a in (rec.ideal_basis, rec.complement_basis, rec.sqrt_weights):
            while a.base is not None:
                a = a.base
            held[id(a)] = a.nbytes
    return {"degrees": basis.n_max + 1, "u_bytes": sum(held.values())}


def _nnz_attrs(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _aastar_attrs(args, kwargs, result):
    return {"dict_cols": result.dictionary_size, "rank": result.dictionary_rank}


def _sup_attrs(args, kwargs, result):
    return {"starts": result.n_starts, "converged": result.n_converged}


def _run_attrs(args, kwargs, result):
    out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[1])
    return {"out_bytes": sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())}


# (layer, module, qualified name, hook(args, kwargs, result) -> span attributes)
SPANS = [
    ("grading.basis", "shiftlab.grading", "GradedComplementBasis.__init__", _basis_attrs),
    ("operators.mult_block", "shiftlab.operators", "ShiftBlocks.mult_block", None),
    ("operators.defect", "shiftlab.operators", "ShiftBlocks.row_defect_block", None),
    ("operators.defect", "shiftlab.operators", "ShiftBlocks.column_defect_block", None),
    ("operators.assemble", "shiftlab.operators", "ShiftBlocks.assemble_polynomial", _nnz_attrs),
    ("operators.norm", "shiftlab.operators", "operator_norm", None),
    ("operators.essnorm", "shiftlab.operators", "ShiftBlocks.essential_norm_estimate", None),
    ("operators.commutator", "shiftlab.operators", "ShiftBlocks.commutator_blocks", None),
    ("operators.aastar", "shiftlab.operators", "ShiftBlocks.aa_star_residual", _aastar_attrs),
    ("boundary.sup", "shiftlab.boundary", "boundary_sup", _sup_attrs),
    ("boundary.kernel", "shiftlab.boundary", "kernel_vector", None),
    ("boundary.character", "shiftlab.boundary", "character_check", None),
    ("runner.run", "shiftlab.runner", "run", _run_attrs),
]
LEAVES = [
    ("polynomials.besov_weight", "shiftlab.polynomials", "besov_weight"),
    ("polynomials.eval", "shiftlab.polynomials", "Polynomial.__call__"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves = {name: [0, 0.0] for name, _, _ in LEAVES}
        self.installed: set[str] = set()
        self._stack: list[list] = []
        self._seen_keys = weakref.WeakKeyDictionary()  # ShiftBlocks -> {(q, n)}
        self._dense_cutoff = None  # operators.DENSE_NORM_CUTOFF, if it exists

    def _span(self, name, fn, hook):
        spans, stack, leaves = self.spans, self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][6] if stack else -1, {}, 0.0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            before = {k: v[0] for k, v in leaves.items()}
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            attrs = rec[4]
            for k, v in leaves.items():
                if v[0] != before[k]:
                    attrs[k + ".calls"] = v[0] - before[k]
            if hook is not None:
                attrs.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack, totals = self._stack, self.leaves[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    stack[-1][5] += dt

        return wrapper

    def _mult_hook(self, args, kwargs, result):
        blocks, q, n = args[:3]
        seen = self._seen_keys.setdefault(blocks, set())
        miss = (q, n) not in seen
        seen.add((q, n))
        return {"miss": int(miss)}

    def _norm_hook(self, args, kwargs, result):
        dim = max(getattr(args[0], "matrix", args[0]).shape)
        if self._dense_cutoff is None:
            return {"dim": int(dim)}
        return {"dim": int(dim), "dense" if dim <= self._dense_cutoff else "arpack": 1}

    def install(self):
        """Wrap every target that exists; returns self."""
        self._dense_cutoff = vars(importlib.import_module("shiftlab.operators")).get(
            "DENSE_NORM_CUTOFF")
        hooks = {"operators.mult_block": self._mult_hook, "operators.norm": self._norm_hook}
        targets = [(n, m, q, hooks.get(n, h), False) for n, m, q, h in SPANS]
        targets += [(n, m, q, None, True) for n, m, q in LEAVES]
        for name, module, qualname, hook, leaf in targets:
            mod = importlib.import_module(module)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self._leaf(name, fn) if leaf else self._span(name, fn, hook)
            if owner_name:
                setattr(owner, attr, wrapped)
            else:
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname == "shiftlab" or mname.startswith("shiftlab."):
                        for k, v in list(vars(m).items()):
                            if v is fn:
                                setattr(m, k, wrapped)
            self.installed.add(name)
        return self

    def dump(self) -> dict:
        return {
            "spans": [r[:6] for r in self.spans],
            "leaves": self.leaves,
            "installed": sorted(self.installed),
            "dense_cutoff": self._dense_cutoff,
        }


def _layer_totals(spans):
    """Per span name: calls, inclusive seconds (outermost only), self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)})
    for k, (name, start, end, parent, attrs, leaf_s) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child[k] - leaf_s
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # not nested in a span of the same layer
            t["s"] += end - start
        for key, v in attrs.items():
            t["attrs"][key] += v
            if key == "dim":
                t["attrs"]["max_dim"] = max(t["attrs"]["max_dim"], v)
    return totals


def reduce(trace: dict, rank_deficient: int) -> dict:
    """Per-layer metrics of one traced pass (absent where the target was)."""
    installed = set(trace["installed"])
    totals = _layer_totals(trace["spans"])
    out = {}

    def layer(name):
        return totals[name] if name in installed else None

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("polynomials.besov_weight", "polynomials.eval"):
        if name in installed:
            calls, secs = trace["leaves"][name]
            out[name + ".calls"] = calls
            out[name + ".s"] = secs
    if (t := layer("grading.basis")) is not None:
        out["grading.basis.s"] = t["s"]
        out["grading.basis.degrees"] = int(t["attrs"]["degrees"])
        if "u_bytes" in t["attrs"]:
            out["grading.basis.u_bytes"] = int(t["attrs"]["u_bytes"])
    if (t := layer("operators.mult_block")) is not None:
        misses = int(t["attrs"]["miss"])
        out["operators.mult_block.calls"] = t["calls"]
        out["operators.mult_block.misses"] = misses
        out["operators.mult_block.hit_ratio"] = ratio(t["calls"] - misses, t["calls"])
        out["operators.mult_block.s"] = t["s"]
    for name in ("operators.defect", "operators.essnorm", "operators.commutator",
                 "boundary.character"):
        if (t := layer(name)) is not None:
            out[name + ".s"] = t["s"]
    if (t := layer("operators.assemble")) is not None:
        out["operators.assemble.calls"] = t["calls"]
        out["operators.assemble.s"] = t["s"]
        out["operators.assemble.nnz"] = int(t["attrs"]["nnz"])
    if (t := layer("operators.norm")) is not None:
        out["operators.norm.calls"] = t["calls"]
        if trace.get("dense_cutoff") is not None:
            out["operators.norm.dense_calls"] = int(t["attrs"]["dense"])
            out["operators.norm.arpack_calls"] = int(t["attrs"]["arpack"])
        out["operators.norm.max_dim"] = int(t["attrs"]["max_dim"])
        out["operators.norm.s"] = t["s"]
    if (t := layer("operators.aastar")) is not None:
        cols = int(t["attrs"]["dict_cols"])
        out["operators.aastar.s"] = t["s"]
        out["operators.aastar.dict_cols"] = cols
        out["operators.aastar.rank_ratio"] = ratio(t["attrs"]["rank"], cols)
        out["operators.aastar.rank_deficient"] = rank_deficient
    if (t := layer("boundary.sup")) is not None:
        starts = int(t["attrs"]["starts"])
        out["boundary.sup.calls"] = t["calls"]
        out["boundary.sup.s"] = t["s"]
        out["boundary.sup.starts"] = starts
        out["boundary.sup.converged_frac"] = ratio(t["attrs"]["converged"], starts)
        out["boundary.sup.evals_per_start"] = ratio(
            t["attrs"]["polynomials.eval.calls"], starts)
    if (t := layer("boundary.kernel")) is not None:
        out["boundary.kernel.s"] = t["s"]
        out["boundary.kernel.weight_calls"] = int(t["attrs"]["polynomials.besov_weight.calls"])
    if (t := layer("runner.run")) is not None:
        out["runner.run.s"] = t["s"]
        out["runner.self_s"] = t["self_s"]
        out["runner.out_bytes"] = int(t["attrs"]["out_bytes"])
    return out
