"""Span tracing and Scalar-op counting for the benchmark's traced run.

Both replace twistkit functions and methods with recording wrappers for one
pass and put the originals back afterwards.  A module-level function is
replaced at every binding site: `cli` and `scenario` import names such as
`division_exhaustive` and `scan_c` directly, so patching only the defining
module would miss their calls.  Nothing under src/ changes.
"""

from __future__ import annotations

import itertools
import sys
import time

DE = "twist.division_exhaustive"


def _field_kind(matrix):
    return "q" if matrix.field.kind == "rational" else "fp"


# (module, function, span name); every closed-form entry point is one layer.
FUNCTIONS = [
    ("twistkit.cli", "main", "cli"),
    ("twistkit.serial", "read_algebra", "serial.read_algebra"),
    ("twistkit.serial", "build_from_spec", "builders.build"),
    ("twistkit.builders", "ground_algebra", "builders.build"),
    ("twistkit.builders", "cayley_dickson", "builders.build"),
    ("twistkit.builders", "extension_as_algebra", "builders.build"),
    ("twistkit.builders", "number_field_algebra", "builders.build"),
    ("twistkit.builders", "cyclic_algebra", "builders.build"),
    ("twistkit.builders", "make_map", "builders.make_map"),
    ("twistkit.fixtures", "fixture", "fixtures.fixture"),
    ("twistkit.algebra", "nucleus", "algebra.nucleus"),
    ("twistkit.forms", "verify_similarity", "forms.verify_similarity"),
    ("twistkit.forms", "verify_multiplicative", "forms.verify_multiplicative"),
    ("twistkit.twist", "twist", "twist.twist"),
    ("twistkit.twist", "norm_criterion", "twist.norm_criterion"),
    ("twistkit.twist", "scan_c", "twist.scan_c"),
    ("twistkit.twist", "unitalize", "twist.unitalize"),
    ("twistkit.analyzer", "derivations", "analyzer.derivations"),
    ("twistkit.analyzer", "containment_check", "analyzer.containment_check"),
] + [("twistkit.closedforms", fn, "closedforms") for fn in (
    "twisted_map_matrix", "series_inverse", "involution_inverse",
    "reflection_inverse", "closed_form_inverse", "scalar_reflections_star",
    "involution_star", "quaternion_reflections_star")]

# (module, class, method, span name or function of the call's arguments)
METHODS = [
    ("twistkit.algebra", "Algebra", "multiply", "algebra.multiply"),
    ("twistkit.algebra", "Algebra", "left_mul_matrix", "algebra.mul_matrix"),
    ("twistkit.algebra", "Algebra", "right_mul_matrix", "algebra.mul_matrix"),
    ("twistkit.linalg", "Matrix", "det", lambda a: "linalg.det." + _field_kind(a[0])),
    ("twistkit.linalg", "Matrix", "apply", "linalg.apply"),
    ("twistkit.forms", "NormForm", "evaluate", "forms.evaluate"),
]


class Patches:
    """Replacements of module and class attributes, undone by restore()."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, orig, new):
        """Rebind every twistkit module attribute that is `orig`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "twistkit" or name.startswith("twistkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def replace_in_class(self, cls, orig, new):
        """Rebind every attribute of `cls` that is `orig` (aliases too)."""
        for attr, val in list(vars(cls).items()):
            if val is orig:
                self._saved.append((cls, attr, orig))
                setattr(cls, attr, new)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


class Tracer:
    """In-memory spans: name, start, end, parent span, op id.  Self time is
    accumulated as each span closes (duration minus its direct children)."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.ops, self.child_s, self.outer = [], [], [], []
        self.notes = {}          # span index -> (status, |A|) of division_exhaustive
        self.rref_cells_q = 0    # sum of rows x cols over rref calls on Q
        self.op_id = 0
        self._stack = []
        self._active = {}
        self._patches = Patches()

    def enter(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        depth = self._active.get(name, 0)
        self.outer.append(depth == 0)
        self._active[name] = depth + 1
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def exit(self, i):
        end = time.perf_counter()
        self.ends[i] = end
        self._stack.pop()
        self._active[self.names[i]] -= 1
        parent = self.parents[i]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[i]

    def span(self, fn, name):
        namer = name if callable(name) else (lambda args: name)
        tracer = self

        def wrapped(*args, **kwargs):
            i = tracer.enter(namer(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(i)
        return wrapped

    def _division_exhaustive(self, fn):
        tracer = self

        def wrapped(alg, *args, **kwargs):
            i = tracer.enter(DE)
            try:
                result = fn(alg, *args, **kwargs)
            finally:
                tracer.exit(i)
            tracer.notes[i] = (result[0], alg.field.order() ** alg.dim)
            return result
        return wrapped

    def _rref(self, fn):
        tracer = self

        def wrapped(matrix, aug=None):
            kind = _field_kind(matrix)
            if kind == "q":
                tracer.rref_cells_q += matrix.nrows * (matrix.ncols + (len(aug[0]) if aug else 0))
            i = tracer.enter("linalg.rref." + kind)
            try:
                return fn(matrix, aug)
            finally:
                tracer.exit(i)
        return wrapped

    def install(self):
        for modname, fname, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            self._patches.replace_everywhere(orig, self.span(orig, name))
        de = sys.modules["twistkit.twist"].division_exhaustive
        self._patches.replace_everywhere(de, self._division_exhaustive(de))
        scen = sys.modules["twistkit.scenario"].scenario_run
        self._patches.replace_everywhere(
            scen, self.span(scen, lambda a: "scenario." + a[0].get("name", "?")))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = vars(cls)[meth]
            self._patches.replace_in_class(cls, orig, self.span(orig, name))
        matrix = sys.modules["twistkit.linalg"].Matrix
        self._patches.replace_in_class(matrix, matrix.rref, self._rref(matrix.rref))

    def uninstall(self):
        self._patches.restore()

    def dump(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")

    def summary(self):
        """Per span name: calls, incl_s (outermost spans only) and self_s;
        plus L_x built per element on certified division_exhaustive calls and
        Matrix.apply calls per witness found."""
        calls, incl, self_s = {}, {}, {}
        nearest_de = []
        lx_in, apply_in = {}, {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - self.child_s[i]
            if self.outer[i]:
                incl[name] = incl.get(name, 0.0) + dur
            parent = self.parents[i]
            de = i if name == DE else (nearest_de[parent] if parent >= 0 else -1)
            nearest_de.append(de)
            if de >= 0 and de != i:
                if name == "algebra.mul_matrix":
                    lx_in[de] = lx_in.get(de, 0) + 1
                elif name == "linalg.apply":
                    apply_in[de] = apply_in.get(de, 0) + 1
        certified = [i for i, (status, _) in self.notes.items() if status == "certified"]
        elems = sum(self.notes[i][1] - 1 for i in certified)
        witnesses = sum(1 for status, _ in self.notes.values() if status != "certified")
        x_per_elem = sum(lx_in.get(i, 0) for i in certified) / elems if elems else 0.0
        y_per_witness = sum(apply_in.values()) / witnesses if witnesses else 0.0
        return calls, incl, self_s, x_per_elem, y_per_witness


class OpCounter:
    """Counts add/neg/mul/inv calls per field kind while installed."""

    KINDS = (("RationalField", "rational"), ("PrimeField", "prime"),
             ("ExtensionField", "ext"))

    def __init__(self):
        self._counters = {kind: itertools.count() for _, kind in self.KINDS}
        self._patches = Patches()

    def install(self):
        fields = sys.modules["twistkit.fields"]
        for clsname, kind in self.KINDS:
            cls = getattr(fields, clsname)
            tick = self._counters[kind].__next__
            for meth in ("_add", "_neg", "_mul", "_inv"):
                orig = vars(cls)[meth]

                def counted(*args, _orig=orig, _tick=tick):
                    _tick()
                    return _orig(*args)
                self._patches.replace_in_class(cls, orig, counted)

    def uninstall(self):
        self._patches.restore()

    def counts(self):
        """Calls counted per field kind; read once, after the pass."""
        return {kind: next(counter) for kind, counter in self._counters.items()}
