"""Span tracing of ncham's layer entry points, from outside the program.

The tracer replaces each entry point listed in ENTRY_POINTS with a
wrapper, by setting attributes on ncham's classes and modules at run
time, and puts every original back in `restore`.  A wrapper records one
span per call (name, start, end, parent span, op id) in compact arrays
and adds the call's duration minus its wrapped children's durations to
the entry point's self time.  Nothing in ncham is edited.
"""

from __future__ import annotations

import array
import importlib
import json
import weakref
from time import perf_counter
from typing import NamedTuple


class Entry(NamedTuple):
    """One layer entry point.

    `targets` are "module:attribute.path" strings that all name it; a
    function some module imported by name is patched there too.  `moves`
    is the end-to-end metric and workload a change to it should move.
    """

    name: str
    targets: tuple
    moves: str


ENTRY_POINTS = (
    Entry("scalars.cyc_mul", ("ncham.scalars:CycScalar.__mul__",),
          "ops_per_kref on cartan and certify; little on cli"),
    Entry("scalars.cyc_add", ("ncham.scalars:CycScalar.__add__",),
          "ops_per_kref on cartan and certify; little on cli"),
    Entry("scalars.cyc_inverse", ("ncham.scalars:CycScalar.inverse",),
          "setup_s on hamiltonian (factor divides); none on cartan"),
    Entry("polynomials.poly_mul", ("ncham.polynomials:Poly.__mul__",),
          "op_p90_ref on cartan (polymat tail); none on certify"),
    Entry("polynomials.poly_add", ("ncham.polynomials:Poly.__add__",),
          "op_p90_ref on cartan (polymat tail); none on certify"),
    Entry("algebra.reduce_word", ("ncham.algebra:RewriteSystem.reduce_word",),
          "ops_per_kref and peak_rss_mb on certify; ops_per_kref on cartan"),
    Entry("algebra.normalize_terms",
          ("ncham.algebra:RewriteSystem.normalize_terms",),
          "ops_per_kref on cartan"),
    Entry("algebra.element_mul", ("ncham.algebra:Element.__mul__",),
          "op_p50_ref on cartan"),
    Entry("algebra.element_add", ("ncham.algebra:Element.__add__",),
          "op_p50_ref on cartan"),
    Entry("algebra.check_local_confluence",
          ("ncham.algebra:check_local_confluence",
           "ncham.models:check_local_confluence",
           "ncham:check_local_confluence"),
          "ops_per_kref on cli"),
    Entry("forms.d", ("ncham.forms:CalculusPresentation.d",),
          "ops_per_kref on cartan and certify"),
    Entry("cartan.apply", ("ncham.cartan:PresentedDerivation.apply",),
          "ops_per_kref on cartan and certify"),
    Entry("cartan.iprod", ("ncham.cartan:PresentedDerivation.iprod",),
          "ops_per_kref on cartan and certify"),
    Entry("cartan.lie", ("ncham.cartan:PresentedDerivation.lie",),
          "ops_per_kref on cartan and certify"),
    Entry("cartan.commutator",
          ("ncham.cartan:PresentedDerivation.commutator",),
          "ops_per_kref on cartan and certify"),
    Entry("cartan.check_consistency",
          ("ncham.cartan:check_consistency", "ncham:check_consistency"),
          "ops_per_kref on certify"),
    Entry("matrixcalc.d", ("ncham.matrixcalc:TensorForm.d",),
          "ops_per_kref on cartan (matrix models)"),
    Entry("matrixcalc.iprod", ("ncham.matrixcalc:MatrixDerivation.iprod",),
          "ops_per_kref on cartan (matrix models)"),
    Entry("matrixcalc.lie", ("ncham.matrixcalc:MatrixDerivation.lie",),
          "ops_per_kref on cartan (matrix models)"),
    Entry("matrixcalc.tensor_mul", ("ncham.matrixcalc:TensorForm.__mul__",),
          "ops_per_kref on cartan (matrix models)"),
    Entry("bigraded.d", ("ncham.bigraded:BigradedForm.d",),
          "op_p90_ref on cartan"),
    Entry("bigraded.iprod", ("ncham.bigraded:MixedDerivation.iprod",),
          "op_p90_ref on cartan"),
    Entry("bigraded.lie", ("ncham.bigraded:MixedDerivation.lie",),
          "op_p90_ref on cartan"),
    Entry("bigraded.form_mul", ("ncham.bigraded:BigradedForm.__mul__",),
          "op_p90_ref on cartan"),
    Entry("linalg.factor", ("ncham.linalg:ExactLinearSystem.__init__",),
          "setup_s on hamiltonian"),
    Entry("linalg.solve", ("ncham.linalg:ExactLinearSystem.solve",),
          "op_p50_ref on hamiltonian"),
    Entry("linalg.residual", ("ncham.linalg:ExactLinearSystem.residual",),
          "op_p50_ref on hamiltonian"),
    Entry("linalg.nullspace", ("ncham.linalg:ExactLinearSystem.nullspace",),
          "op_p50_ref on hamiltonian"),
    Entry("symplectic.solve", ("ncham.symplectic:HamiltonianSolver.solve",),
          "ops_per_kref on hamiltonian"),
    Entry("symplectic.poisson",
          ("ncham.symplectic:HamiltonianSolver.poisson",),
          "ops_per_kref on hamiltonian"),
    Entry("symplectic.flow", ("ncham.symplectic:HamiltonianSolver.flow",),
          "ops_per_kref on hamiltonian"),
    Entry("symplectic.solver_init",
          ("ncham.symplectic:HamiltonianSolver.__init__",),
          "setup_s on hamiltonian; ops_per_kref on cli"),
    Entry("models.build_model",
          ("ncham.models:build_model", "ncham.cli:build_model",
           "ncham:build_model"),
          "op_p50_ref and ops_per_kref on cli; none elsewhere"),
    Entry("exprparse.parse_expression",
          ("ncham.exprparse:parse_expression", "ncham.cli:parse_expression",
           "ncham:parse_expression"),
          "op_p50_ref and ops_per_kref on cli; none elsewhere"),
    Entry("exprparse.parse_derivation",
          ("ncham.exprparse:parse_derivation", "ncham.cli:parse_derivation",
           "ncham:parse_derivation"),
          "op_p50_ref and ops_per_kref on cli; none elsewhere"),
    Entry("printing.render",
          ("ncham.algebra:Element.__str__", "ncham.matrixcalc:TensorForm.__str__",
           "ncham.bigraded:BigradedForm.__str__"),
          "op_p50_ref and ops_per_kref on cli; none elsewhere"),
    Entry("cli.main", ("ncham.cli:main",),
          "op_p50_ref and ops_per_kref on cli; none elsewhere"),
)

# Counts read at an entry point from its arguments or public attributes:
# (metric suffix, unit).  Each layer runs on the one thread with no queue
# in front of it, so no layer waits on another and time-waited is absent.
EXTRAS = {
    "algebra.reduce_word": (("repeat_share", "ratio"),
                            ("distinct_words", "count")),
    "algebra.normalize_terms": (("terms_in", "count"),),
    "linalg.factor": (("rows", "count"), ("cols", "count"),
                      ("rank", "count"), ("fill", "count")),
    "symplectic.solve": (("repeat_share", "ratio"),),
}

# Timed-phase accounting of the traced run.
SUMMARY = (("trace.overhead", "ratio"), ("trace.timed_wall_s", "s"),
           ("trace.wrapped_self_s", "s"), ("trace.unwrapped_s", "s"))


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for e in ENTRY_POINTS:
        out.append((e.name + ".calls", "count"))
        out.append((e.name + ".self_s", "s"))
        for suffix, unit in EXTRAS.get(e.name, ()):
            out.append((e.name + "." + suffix, unit))
    return out + list(SUMMARY)


def _resolve(target):
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps ENTRY_POINTS while installed; records spans while `active`."""

    def __init__(self):
        self.names = [e.name for e in ENTRY_POINTS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_ids = array.array("H")
        self.parents = array.array("i")
        self.op_ids = array.array("i")
        self.op_id = -1
        self.active = False
        self._stack = []
        self._patches = []
        # per RewriteSystem / HamiltonianSolver: arguments already seen
        self._words = weakref.WeakKeyDictionary()
        self._frozen = weakref.WeakKeyDictionary()
        self.word_calls = self.word_repeats = self.word_distinct = 0
        self.solve_calls = self.solve_repeats = 0
        self.terms_in = 0
        self.factor = {"rows": 0, "cols": 0, "rank": 0, "fill": 0}

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every entry point; ncham must be imported already."""
        hooks = {"algebra.reduce_word": (self._on_reduce_word, None),
                 "algebra.normalize_terms": (self._on_normalize_terms, None),
                 "linalg.factor": (None, self._on_factor),
                 "symplectic.solve": (self._on_solve, None)}
        wrapped = {}
        for idx, entry in enumerate(ENTRY_POINTS):
            before, after = hooks.get(entry.name, (None, None))
            for target in entry.targets:
                owner, attr = _resolve(target)
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                # a function imported by name into several modules gets one
                # wrapper, so each call is counted once
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    wrapper = self._wrap(original, idx, before, after)
                    wrapped[id(original)] = wrapper
                self._patches.append((owner, attr, original, own))
                setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every attribute `install` replaced."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, idx, before, after):
        tracer = self
        stack = self._stack
        starts, ends = self.starts, self.ends
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            sid = len(starts)
            frame = [sid, 0.0]
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(idx)
            op_ids.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[sid] = t0
                ends[sid] = t1
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts read at the boundary ----------------------------------------

    def _on_reduce_word(self, args):
        system, word = args[0], args[1]
        seen = self._words.setdefault(system, set())
        self.word_calls += 1
        if word in seen:
            self.word_repeats += 1
        else:
            seen.add(word)
            self.word_distinct += 1

    def _on_normalize_terms(self, args):
        self.terms_in += len(args[1])

    def _on_factor(self, args):
        system = args[0]
        shape = {"rows": len(system.keys), "cols": len(system.columns),
                 "rank": len(system.pivots),
                 "fill": sum(len(trans) for _, trans in system.echelon)}
        # report the largest factorization of the run
        if shape["rows"] * shape["cols"] > \
                self.factor["rows"] * self.factor["cols"]:
            self.factor = shape

    def _on_solve(self, args):
        solver, a = args[0], args[1]
        seen = self._frozen.setdefault(solver, set())
        key = solver.backend.freeze(a)
        self.solve_calls += 1
        if key in seen:
            self.solve_repeats += 1
        else:
            seen.add(key)

    # -- results -----------------------------------------------------------

    def op_self_s(self):
        """Summed self time of the spans recorded inside ops.

        Equals the summed duration of the outermost of those spans.
        """
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts))
                   if self.op_ids[i] >= 0 and self.parents[i] < 0)

    def metrics(self):
        """Per-entry calls, self time and boundary counts, by metric name."""
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[idx]
            out[name + ".self_s"] = self.self_s[idx]
        out["algebra.reduce_word.repeat_share"] = \
            self.word_repeats / self.word_calls if self.word_calls else 0.0
        out["algebra.reduce_word.distinct_words"] = self.word_distinct
        out["algebra.normalize_terms.terms_in"] = self.terms_in
        for key, value in self.factor.items():
            out["linalg.factor." + key] = value
        out["symplectic.solve.repeat_share"] = \
            self.solve_repeats / self.solve_calls if self.solve_calls else 0.0
        return out

    def write_spans(self, path):
        """One JSON header line, then the span arrays in header order."""
        fields = (("start", self.starts), ("end", self.ends),
                  ("name", self.name_ids), ("parent", self.parents),
                  ("op", self.op_ids))
        header = {"names": self.names, "count": len(self.starts),
                  "fields": [[f, a.typecode, a.itemsize] for f, a in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in fields:
                arr.tofile(fh)
