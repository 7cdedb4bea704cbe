"""Spans and counters for the traced benchmark run.

The program has no tracing of its own, so the traced run replaces each
measured public function, in every loaded ``gerbecalc`` module that holds
it, with a wrapper that opens a span.  Calls between modules are then
spanned too, and a layer's self time is its span's duration minus the part
covered by its child spans.  The program's files are not changed.
"""

import contextlib
import functools
import sys
import time

# module -> {function name: span name}
TRACED = {
    "gerbecalc.rootsys": {
        "build_root_system": "rootsys.build_root_system",
        "minimal_level_k0": "rootsys.minimal_level_k0",
        "alcove": "rootsys.alcove",
        "face_centralizer": "rootsys.face_centralizer",
    },
    "gerbecalc.intlinalg": {
        "smith_normal_form": "intlinalg.smith_normal_form",
        "solve_rational": "intlinalg.solve_rational",
    },
    "gerbecalc.grpcoh": {
        "group_cohomology_U1": "grpcoh.group_cohomology_U1",
        "center_of": "grpcoh.center_of",
    },
    "gerbecalc.deligne": {
        name: f"deligne.{name}"
        for name in (
            "dd_class", "solve_trivialization", "trivialization_defect",
            "deligne_differential", "is_cocycle", "cochain_add", "zero_cochain",
        )
    },
    "gerbecalc.nerve": {
        "icosahedron": "nerve.mesh",
        "subdivide_sphere": "nerve.mesh",
        "coned_ball": "nerve.mesh",
    },
    "gerbecalc.holonomy": {
        name: f"holonomy.{name}"
        for name in ("surface_holonomy", "stokes_check", "random_assignment")
    },
    "gerbecalc.lienum.forms": {
        "integrate_H_SU2": "lienum.integrate_H_SU2",
        "fd_exterior_derivative": "lienum.fd_exterior_derivative",
    },
    "gerbecalc.lienum.wzw": {
        "pullback_H_integral": "lienum.pullback_H_integral",
        "amplitude_ratio": "lienum.amplitude_ratio",
    },
    "gerbecalc.lienum.classes": {
        "alcove_projection": "lienum.alcove_projection",
    },
    "gerbecalc.serialize": {
        name: f"serialize.{name.split('_', 1)[1]}"
        for name in (
            "nerve_to_json", "complex_to_json", "cochain_to_json",
            "assignment_to_json", "nerve_from_json", "complex_from_json",
            "cochain_from_json", "assignment_from_json",
        )
    },
}


def _cochain_entries(c):
    return sum(
        len(v) if isinstance(v, dict) else 1
        for comp in c.components
        for v in comp.values()
    )


def _snf_size(mat):
    return {
        "intlinalg.snf_entries": len(mat) * (len(mat[0]) if mat else 0),
        "intlinalg.snf_nnz": sum(1 for row in mat for x in row if x),
    }


def _bar_rows(group, n, *rest, **kw):
    return {"grpcoh.bar_rows": (group.order - 1) ** (n + 1)}


# span name -> function(args) -> {counter: increment}, from the call's inputs
INPUT_COUNTERS = {
    "intlinalg.smith_normal_form": _snf_size,
    "grpcoh.group_cohomology_U1": _bar_rows,
    "deligne.deligne_differential": lambda c: {
        "deligne.cochain_entries": _cochain_entries(c)
    },
    "lienum.integrate_H_SU2": lambda resolution, *a, **kw: {
        "lienum.quad_points": resolution ** 3
    },
    "lienum.pullback_H_integral": lambda phi, quad, *a, **kw: {
        "lienum.quad_points": len(quad.centers)
    },
}


class NullTracer:
    """Stands in for a Tracer in untraced sessions."""

    query = None

    def count(self, name, n=1):
        pass

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans (name, start, end, parent, query) and counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.query = None
        self._stack = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.query])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        counter = INPUT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, n in counter(*args, **kwargs).items():
                    self.count(key, n)
            self.count(f"{name}.calls")
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def install(self):
        """Replace every traced function in every loaded gerbecalc module.

        Call after the workload's imports and before its set-up, so that
        set-up calls (meshes, nerves, JSON files) are traced too.
        """
        from gerbecalc.nerve import CoveredComplex

        originals = {}
        for modname, names in TRACED.items():
            mod = sys.modules.get(modname)
            if mod is None:  # not used by this workload
                continue
            for attr, span in names.items():
                originals[id(getattr(mod, attr))] = span
        wrapped = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("gerbecalc") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                span = originals.get(id(value))
                if span is None or not callable(value):
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(span, value)
                setattr(mod, attr, wrapped[id(value)])
        nerve_method = self.wrap("nerve.nerve", CoveredComplex.nerve)

        def nerve(cc):
            self.count("nerve.simplices", len(cc.all_simplices()))
            out = nerve_method(cc)
            self.count("nerve.faces", len(out.faces))
            return out

        CoveredComplex.nerve = nerve

    def span(self, name):
        """Context manager for a span placed at a benchmark call site."""
        return _Span(self, name)

    def self_times(self):
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "query": q}
                for n, s, e, p, q in self.spans
            ],
            "counters": self.counters,
        }


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.count(f"{self.name}.calls")
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()
