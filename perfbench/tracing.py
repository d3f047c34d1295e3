"""Traced runs: spans and counts recorded around the library's public calls.

The tracer wraps functions and methods from outside the program.  Modules
import each other with ``from .matrix import ...``, so a wrapped function is
rebound in every ``symplat`` module that holds it, and methods are patched on
their class.  Each span keeps its name, start, end, parent and case; spans are
held in memory and written out when the run ends.  Counts and per-layer times
are aggregated as the spans close.

A wrapped call that returns an iterator does its work lazily, when the
iterator is advanced.  Such a result is handed back wrapped too: each advance
is one more span of the call's name (it adds to ``.s`` and self time, not to
``.calls``), and item counts are taken when the iterator is exhausted or
closed.  A counted result that is neither sized nor an iterator is reported as
a problem of the case, never counted as 0.
"""

import json
import sys
import time
from array import array
from collections.abc import Iterator, Sized

# (module, attribute, span name).  Spans whose name is not used by a metric
# below still matter: they attribute time to their layer's self time.
SPANS = [
    ("matrix", "smith_normal_form", "matrix.snf"),
    ("matrix", "hermite_column_form", "matrix.hnf"),
    ("matrix", "integer_kernel", "matrix.int_kernel"),
    ("matrix", "Mat.__mul__", "matrix.mul"),
    ("matrix", "Mat.solve", "matrix.solve"),
    ("matrix", "Mat.inverse", "matrix.inverse"),
    ("matrix", "Mat.rref", "matrix.rref"),
    ("matrix", "Mat.det", "matrix.det"),
    ("lattice", "Lattice.coords_of", "lattice.coords"),
    ("lattice", "Lattice.coords_matrix", "lattice.coords"),
    ("lattice", "Lattice.span_contains", "lattice.contains"),
    ("lattice", "Lattice.contains_vector", "lattice.contains"),
    ("lattice", "Lattice.contains_lattice", "lattice.contains"),
    ("lattice", "Lattice.same_span", "lattice.same_span"),
    ("lattice", "lattice_sum", "lattice.ops"),
    ("lattice", "lattice_intersection", "lattice.ops"),
    ("lattice", "preimage_lattice", "lattice.ops"),
    ("lattice", "kernel_lattice", "lattice.ops"),
    ("lattice", "saturate", "lattice.ops"),
    ("lattice", "congruence_kernel", "lattice.congruence_kernel"),
    ("finquot", "FiniteQuotient.__init__", "finquot.quotient_new"),
    ("finquot", "FiniteQuotient._adapted", "finquot.adapted"),
    ("finquot", "FiniteQuotient.subgroup", "finquot.subgroup"),
    ("finquot", "QuotientElement.__init__", "finquot.element_new"),
    ("finquot", "PairingOnQuotient.__init__", "finquot.pairing_new"),
    ("finquot", "enumerate_subgroups", "finquot.subgroups"),
    ("finquot", "enumerate_mti", "finquot.enumerate_mti"),
    ("finquot", "is_isotropic", "finquot.isotropy"),
    ("finquot", "is_maximal_isotropic", "finquot.mti_test"),
    ("finquot", "orthogonal_subgroup", "finquot.orthogonal"),
    ("pollat", "PolarizedLattice.__init__", "pollat.polarized_new"),
    ("pollat", "LatticeMap.__init__", "pollat.map_new"),
    ("pollat", "polarization_type", "pollat.polarization_type"),
    ("pollat", "dual_lattice", "pollat.dual"),
    ("pollat", "ker_lambda", "pollat.ker_lambda"),
    ("pollat", "torsion_subgroup", "pollat.torsion"),
    ("pollat", "quotient_by_isotropic", "pollat.quotient"),
    ("pollat", "principal_quotient", "pollat.principal_quotient"),
    ("pollat", "adjoint_map", "pollat.adjoint"),
    ("comppair", "complement", "comppair.complement"),
    ("comppair", "orthogonal_projection", "comppair.projection"),
    ("comppair", "j_endomorphism", "comppair.j"),
    ("comppair", "ker_mu_of_pair", "comppair.ker_mu"),
    ("comppair", "welters_construct", "comppair.welters"),
    ("comppair", "preset_m2", "comppair.preset"),
    ("covers", "surface_ribbon", "covers.surface"),
    ("covers", "cyclic_cover", "covers.cyclic_cover"),
    ("covers", "standard_cover", "covers.standard_cover"),
    ("covers", "prym_sublattice", "covers.prym"),
    ("covers", "norm_component_group", "covers.norm_group"),
    ("covers", "eta_class", "covers.eta"),
    ("covers", "ker_mu_basis", "covers.ker_mu_basis"),
    ("covers", "classify_mti_K", "covers.classify"),
    ("covers", "birational_predicate", "covers.birational"),
    ("covers", "verify_kernel_identification", "covers.kernel_id"),
    ("jsonio", "mat_to_obj", "jsonio.encode"),
    ("jsonio", "lattice_to_obj", "jsonio.encode"),
    ("jsonio", "polarized_to_obj", "jsonio.encode"),
    ("jsonio", "cover_to_obj", "jsonio.encode"),
    ("jsonio", "welters_report", "jsonio.encode"),
    ("jsonio", "dumps_canonical", "jsonio.encode"),
    ("jsonio", "mat_from_obj", "jsonio.decode"),
    ("jsonio", "lattice_from_obj", "jsonio.decode"),
    ("jsonio", "polarized_from_obj", "jsonio.decode"),
    ("jsonio", "cover_from_obj", "jsonio.decode"),
    ("cli", "run", "cli.run"),
]

# Constructors that run too often for a span: counted only.
COUNTS = [
    ("matrix", "Mat.__init__", "matrix.mat_new"),
    ("lattice", "Lattice.__init__", "lattice.new"),
]

def _calls(span):
    return (f"{span}.calls", "count", lambda t: t.calls.get(span, 0))


def _secs(span):
    return (f"{span}.s", "s", lambda t: t.inclusive.get(span, 0.0))


def _both(span):
    return [_calls(span), _secs(span)]


def _self(layer):
    return (f"{layer}.self_s", "s", lambda t: t.self_time.get(layer, 0.0))


def _yield(t):
    candidates = t.counts.get("finquot.subgroups.candidates", 0)
    return t.counts.get("finquot.mti.kept", 0) / candidates if candidates else 0.0


# (name, unit, value from a Tracer), in the order of BENCHMARK.json.
# ``trace.overhead_frac`` is added by the runner, which holds the untraced
# pass times.
PER_LAYER = [
    *[m for op in ("snf", "hnf", "int_kernel", "mul", "solve", "inverse", "rref", "det")
      for m in _both(f"matrix.{op}")],
    ("matrix.snf.max_dim", "dim", lambda t: t.counts.get("matrix.snf.max_dim", 0)),
    _calls("matrix.mat_new"),
    _self("matrix"),
    _calls("lattice.new"),
    *[m for op in ("coords", "contains", "same_span", "ops") for m in _both(f"lattice.{op}")],
    _self("lattice"),
    *_both("finquot.quotient_new"),
    *_both("finquot.adapted"),
    _secs("finquot.enumerate_mti"),
    ("finquot.subgroups.candidates", "count",
     lambda t: t.counts.get("finquot.subgroups.candidates", 0)),
    ("finquot.mti.kept", "count", lambda t: t.counts.get("finquot.mti.kept", 0)),
    ("finquot.mti.yield", "frac", _yield),
    _calls("finquot.isotropy"),
    _calls("finquot.orthogonal"),
    _self("finquot"),
    *_both("pollat.principal_quotient"),
    *_both("pollat.polarization_type"),
    _secs("pollat.torsion"),
    _calls("pollat.adjoint"),
    _self("pollat"),
    *_both("comppair.complement"),
    *_both("comppair.j"),
    _calls("comppair.ker_mu"),
    *_both("comppair.welters"),
    _self("comppair"),
    *_both("covers.cyclic_cover"),
    _secs("covers.ker_mu_basis"),
    *_both("covers.classify"),
    *_both("covers.kernel_id"),
    _secs("covers.eta"),
    _self("covers"),
    _secs("jsonio.encode"),
    ("jsonio.encode.bytes", "bytes", lambda t: t.counts.get("jsonio.encode.bytes", 0)),
    _secs("jsonio.decode"),
    ("jsonio.decode.bytes", "bytes", lambda t: t.counts.get("jsonio.decode.bytes", 0)),
    _self("jsonio"),
    _self("cli"),
    ("cli.cases", "count", lambda t: t.calls.get("cli.run", 0)),
]


def _after_snf(tracer, args, result):
    M = args[0]
    key = "matrix.snf.max_dim"
    tracer.counts[key] = max(tracer.counts.get(key, 0), M.nrows, M.ncols)


def _after_dumps(tracer, args, result):
    tracer.add("jsonio.encode.bytes", len(result.encode("utf-8")))


def _after_decode(tracer, args, result):
    """Size of what the outermost decode call was given, as canonical JSON text."""
    if not tracer._active["jsonio.decode"]:
        text = json.dumps(args[0], sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
        tracer.add("jsonio.decode.bytes", len(text.encode("utf-8")))


AFTER = {
    ("matrix", "smith_normal_form"): _after_snf,
    ("jsonio", "dumps_canonical"): _after_dumps,
    **{("jsonio", attr): _after_decode
       for attr in ("mat_from_obj", "lattice_from_obj", "polarized_from_obj", "cover_from_obj")},
}

# Calls whose number of result items is counted, sized or iterated.
ITEMS = {
    ("finquot", "enumerate_subgroups"): "finquot.subgroups.candidates",
    ("finquot", "enumerate_mti"): "finquot.mti.kept",
}


class Tracer:
    """Records spans and counts while installed; restores the program on removal."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.case = -1
        self.calls = {}
        self.inclusive = {}
        self.self_time = {}
        self.counts = {}
        self._active = {}
        # one frame per open span: [span index, time covered by child spans]
        self._stack = [[-1, 0.0]]
        self._patches = []
        self._problems = []

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def take_problems(self):
        """Problems found since the last call: results that could not be traced."""
        problems, self._problems = self._problems, []
        return problems

    def _span(self, fn, name, after, items_key):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        layer = name.split(".", 1)[0]
        calls, inclusive, self_time, active = self.calls, self.inclusive, self.self_time, self._active
        for table, zero in ((calls, 0), (inclusive, 0.0), (active, 0)):
            table.setdefault(name, zero)
        self_time.setdefault(layer, 0.0)
        stack = self._stack
        names, parents, cases = self.span_name, self.span_parent, self.span_case
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def enter():
            # [span index, time covered by child spans, start]
            frame = [len(names), 0.0, 0.0]
            names.append(nid)
            parents.append(stack[-1][0])
            cases.append(tracer.case)
            stack.append(frame)
            active[name] += 1
            frame[2] = t0 = clock()
            starts.append(t0)
            ends.append(t0)
            return frame

        def leave(frame, call):
            t1 = clock()
            idx, child, t0 = frame
            ends[idx] = t1
            stack.pop()
            active[name] -= 1
            elapsed = t1 - t0
            calls[name] += call
            if not active[name]:
                inclusive[name] += elapsed
            self_time[layer] += elapsed - child
            stack[-1][1] += elapsed

        def resumed(iterator):
            items = 0
            try:
                while True:
                    frame = enter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, 0)
                    items += 1
                    yield item
            finally:
                if items_key is not None:
                    tracer.add(items_key, items)

        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, 1)
            if isinstance(result, Iterator):
                return resumed(result)
            if items_key is not None:
                if isinstance(result, Sized):
                    tracer.add(items_key, len(result))
                else:
                    tracer._problems.append(
                        f"untraceable result: {name} returned a {type(result).__name__}")
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package="symplat"):
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for module, attr, name in table:
                mod = sys.modules[f"{package}.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    owners = [(owner, meth)]
                else:
                    original = getattr(mod, attr)
                    owners = [(m, key) for m in modules
                              for key, value in vars(m).items() if value is original]
                if kind == "span":
                    wrapped = self._span(original, name, AFTER.get((module, attr)),
                                         ITEMS.get((module, attr)))
                else:
                    wrapped = self._counter(original, name)
                for owner, key in owners:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapped)

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self):
        return {name: (getter(self), unit) for name, unit, getter in PER_LAYER}

    def write(self, path, case_names):
        """Write every span, column by column, with the case names they belong to."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_names": self.names,
                    "case_names": case_names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "case": self.span_case.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
                separators=(",", ":"),
            )
