"""Span tracer that wraps lagfib's public functions from outside.

``Tracer.install`` replaces every public function of every lagfib module
with a wrapper, in each module namespace that binds it (``snf`` is
wrapped in both ``lagfib.intlinalg`` and ``lagfib.complexes``, so calls
through either name are seen).  Two methods are wrapped on their class:
``RationalCohomology.coordinates`` gets a span, and
``Representation.eval_word`` only counts calls and cache hits, because it
runs far too often for a span per call.  ``uninstall`` restores the
originals.

Spans live in flat arrays (name, start, end, parent, request id) until
``write`` dumps them.  Spans named ``trace.*`` are the tracer's own
work; ``trace.spans`` counts only the others.  A span's self time is its
duration minus the time its child spans cover.  Statistics that need to look at a result (matrix
density, coefficient size) are computed inside a ``trace.stats`` span so
their cost is not charged to any lagfib function.
"""

import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("lagfib", "lagfib.cli", "lagfib.complexes", "lagfib.groupring",
           "lagfib.intlinalg", "lagfib.obstruction", "lagfib.problemfile",
           "lagfib.realizable")

STATS = "trace.stats"
ROOT = -1

# Metric name -> span names whose self time it sums; a name ending in "."
# takes every span of that module ("cli." is the request time no deeper
# span covers).
SELF_TIME = {
    "obstruction.certify_s": ("obstruction.validate_diagonal",),
    "obstruction.dd_evaluate_s": ("obstruction.dd_evaluate",),
    "obstruction.dd_matrix_s": ("obstruction.dd_matrix",),
    "obstruction.periods_s": ("obstruction.check_periods_closed",),
    "complexes.h3_coordinates_s": ("complexes.RationalCohomology.coordinates",),
    "complexes.validate_s": ("complexes.validate_complex",),
    "complexes.coboundary_s": ("complexes.coboundary_matrix",),
    "complexes.twisted_cohomology_s": ("complexes.twisted_cohomology",),
    "complexes.untwisted_cohomology_s": ("complexes.untwisted_cohomology_Q",),
    "intlinalg.rat_solve_s": ("intlinalg.rat_solve",),
    "intlinalg.snf_s": ("intlinalg.snf",),
    "intlinalg.hnf_s": ("intlinalg.hnf_columns", "intlinalg.hnf_solve"),
    "groupring.checks_s": ("groupring.check_relations",
                           "groupring.check_duality"),
    "groupring.rep_eval_s": ("groupring.rep_eval",),
    "problemfile.parse_s": ("problemfile.parse_problem_text",),
    "realizable.kernel_s": ("realizable.realizable_subgroup",
                            "realizable.find_fake_witness",
                            "realizable.build_report"),
    "cli.self_s": ("cli.",),
}

CALLS = {
    "obstruction.dd_evaluate_calls": "obstruction.dd_evaluate",
    "complexes.h3_coordinates_calls": "complexes.RationalCohomology.coordinates",
    "complexes.coboundary_calls": "complexes.coboundary_matrix",
    "complexes.twisted_cohomology_calls": "complexes.twisted_cohomology",
    "intlinalg.rat_solve_calls": "intlinalg.rat_solve",
    "intlinalg.snf_calls": "intlinalg.snf",
}


def _bits(matrix):
    return max((abs(x).bit_length() for row in matrix.data for x in row),
               default=0)


class Counters:
    """Counts gathered at span boundaries; summed over traced requests."""

    def __init__(self):
        self.certify_checks = 0
        self.eval_word_calls = 0
        self.eval_word_hits = 0
        self.coboundary_nnz = 0
        self.coboundary_entries = 0
        self.rat_solve_max_cols = 0
        self.snf_max_rows = 0
        self.snf_max_cols = 0
        self.snf_max_entry_bits = 0
        self.input_bytes = 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [ROOT]
        self.request = 0
        self.counters = Counters()
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name, after=None):
        """``fn`` wrapped to record a span; ``after(args, result)`` runs
        in a ``trace.stats`` span once ``fn`` returns."""
        nid = self._name_id(name)
        stats_id = self._name_id(STATS)
        name_ids, parents, requests = self.name_ids, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self.stack

        def open_span(nid):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            return idx

        def traced(*args, **kwargs):
            idx = open_span(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if after is not None:
                sidx = open_span(stats_id)
                start = perf_counter()
                after(args, result)
                ends[sidx] = perf_counter()
                starts[sidx] = start
                stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks computing counters --------------------------------------

    def _after(self):
        c = self.counters

        def certify(args, result):
            c.certify_checks += result.checks_run

        def coboundary(args, result):
            c.coboundary_nnz += sum(1 for row in result.data for x in row if x)
            c.coboundary_entries += result.rows * result.cols

        def rat_solve(args, result):
            A = args[0]
            cols = A.cols if hasattr(A, "cols") else len(A[0])
            c.rat_solve_max_cols = max(c.rat_solve_max_cols, cols)

        def snf(args, result):
            c.snf_max_rows = max(c.snf_max_rows, result.S.rows)
            c.snf_max_cols = max(c.snf_max_cols, result.S.cols)
            c.snf_max_entry_bits = max(c.snf_max_entry_bits, _bits(result.U),
                                       _bits(result.S), _bits(result.V))

        def parse(args, result):
            c.input_bytes += len(args[0].encode("utf-8"))

        return {"obstruction.validate_diagonal": certify,
                "complexes.coboundary_matrix": coboundary,
                "intlinalg.rat_solve": rat_solve,
                "intlinalg.snf": snf,
                "problemfile.parse_problem_text": parse}

    def install(self):
        """Wrap lagfib's public functions and the two traced methods."""
        modules = [importlib.import_module(m) for m in MODULES]
        after = self._after()
        wrappers = {}
        for module in modules:
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("lagfib.")):
                    continue
                if fn not in wrappers:
                    name = "%s.%s" % (fn.__module__[len("lagfib."):],
                                      fn.__name__)
                    wrappers[fn] = self.span(fn, name, after.get(name))
                self._replace(module, attr, wrappers[fn])

        complexes = importlib.import_module("lagfib.complexes")
        groupring = importlib.import_module("lagfib.groupring")
        cls = complexes.RationalCohomology
        self._replace(cls, "coordinates", self.span(
            cls.coordinates, "complexes.RationalCohomology.coordinates"))
        self._replace(groupring.Representation, "eval_word",
                      self._count_eval_word(
                          groupring.Representation.eval_word))

    def _count_eval_word(self, fn):
        c = self.counters

        def eval_word(rep, word):
            c.eval_word_calls += 1
            if word.letters in rep._cache:
                c.eval_word_hits += 1
            return fn(rep, word)

        eval_word.__wrapped__ = fn
        return eval_word

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def self_times(self):
        """Total self time per span name, in seconds."""
        n = len(self.name_ids)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p != ROOT:
                covered[p] += ends[i] - starts[i]
        totals = {}
        names = self.names
        for i in range(n):
            name = names[self.name_ids[i]]
            totals[name] = totals.get(name, 0.0) + (
                ends[i] - starts[i] - covered[i])
        return totals

    def call_counts(self):
        counts = [0] * len(self.names)
        for nid in self.name_ids:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def metrics(self, passes):
        """Per-module metrics, per traced pass, as {name: (value, unit)}."""
        totals = self.self_times()
        calls = self.call_counts()
        out = {}
        for metric, spans in SELF_TIME.items():
            value = sum(t for name, t in totals.items()
                        if any(name == s or (s.endswith(".")
                                             and name.startswith(s))
                               for s in spans))
            out[metric] = (value / passes, "s")
        for metric, span in CALLS.items():
            out[metric] = (calls.get(span, 0) / passes, "count")
        c = self.counters
        out.update({
            "obstruction.certify_checks": (c.certify_checks / passes, "count"),
            "groupring.eval_word_calls": (c.eval_word_calls / passes, "count"),
            "groupring.eval_word_hit_ratio": (
                c.eval_word_hits / max(1, c.eval_word_calls), "ratio"),
            "complexes.coboundary_nnz_ratio": (
                c.coboundary_nnz / max(1, c.coboundary_entries), "ratio"),
            "intlinalg.rat_solve_max_cols": (c.rat_solve_max_cols, "count"),
            "intlinalg.snf_max_rows": (c.snf_max_rows, "count"),
            "intlinalg.snf_max_cols": (c.snf_max_cols, "count"),
            "intlinalg.snf_max_entry_bits": (c.snf_max_entry_bits, "bits"),
            "problemfile.input_bytes": (c.input_bytes / passes, "bytes"),
            "trace.spans": (sum(n for name, n in calls.items()
                                if name != STATS) / passes, "count"),
        })
        return out

    def write(self, path):
        """Dump every span as tab-separated text: request, span index,
        parent index, name, start and end in seconds."""
        names, name_ids = self.names, self.name_ids
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(name_ids)):
                handle.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    self.requests[i], i, self.parents[i], names[name_ids[i]],
                    self.starts[i], self.ends[i]))
