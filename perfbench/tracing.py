"""Spans around calls into gvlam's modules, kept in memory.

Only the traced run installs wrappers.  Each wrapper replaces a function
at the name one module imports it under (``gvlam.vequation.infer`` is the
``infer`` that synthesis and validation call), so the span sits at the
boundary between two layers.  A span records its name, start, end,
parent span and query id; the layer of a span is the first component of
its name.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass

# (module, attribute path, span name, counter).  The counter maps the
# call's (args, result) to (count, size): count feeds a work counter and
# size the largest-carrier figure.  Parsing inside ParamOpFamily.sort
# (gvlam.theory.parse_type) is not wrapped: it runs once per operation
# node of every typecheck, so its cost stays in typecheck self time.
TARGETS = [
    ("gvlam.parser", "parse_term", "parser.parse_term", "nodes"),
    ("gvlam.parser", "parse_context", "parser.parse_context", "entries"),
    ("gvlam.theory", "parse_term", "parser.parse_term", "nodes"),
    ("gvlam.theory", "parse_context", "parser.parse_context", "entries"),
    ("gvlam.proofscript", "parse_term", "parser.parse_term", "nodes"),
    ("gvlam.proofscript", "parse_context", "parser.parse_context",
     "entries"),
    ("gvlam.proofscript", "parse_type", "parser.parse_type", "one"),
    ("gvlam.theory", "load_theory_text", "theory.load_theory_text", None),
    ("gvlam.proofscript", "parse_proof", "proofscript.parse_proof", None),
    ("gvlam.typecheck", "infer", "typecheck.infer", None),
    ("gvlam.vequation", "infer", "typecheck.infer", None),
    ("gvlam.rewrite", "infer", "typecheck.infer", None),
    ("gvlam.metmodel", "infer", "typecheck.infer", None),
    ("gvlam.vequation", "synthesize", "vequation.synthesize", None),
    ("gvlam.vequation", "validate", "vequation.validate", None),
    ("gvlam.vequation", "beta_normalize", "rewrite.beta_normalize", None),
    ("gvlam.vequation", "rewrite_term", "rewrite.rewrite_term", None),
    ("gvlam.vequation", "extract_plugs", "rewrite.extract_plugs", None),
    ("gvlam.vequation", "subst_parallel", "rewrite.subst_parallel", None),
    ("gvlam.rewrite", "apply_step", "rewrite.apply_step", None),
    ("gvlam.rewrite", "rewrite_term", "rewrite.rewrite_term", None),
    ("gvlam.metmodel", "model_distance", "metmodel.model_distance", None),
    ("gvlam.metmodel", "interp", "metmodel.interp", "domain"),
    ("gvlam.metmodel", "enumerate_tables", "metmodel.enumerate_tables",
     "tables"),
    ("gvlam.metmodel", "check_comonad_laws", "metmodel.check_comonad_laws",
     None),
    ("gvlam.probmodel", "check_diaconis", "probmodel.check_diaconis", None),
    ("gvlam.probmodel", "replace_sampler", "probmodel.replace_sampler",
     "outcomes"),
    ("gvlam.probmodel", "no_replace_sampler", "probmodel.no_replace_sampler",
     "outcomes"),
    ("gvlam.probmodel", "tv_distance", "probmodel.tv_distance", None),
    ("gvlam.probmodel", "gaussian_phi", "probmodel.gaussian_phi", None),
    ("gvlam.theory", "gaussian_phi", "probmodel.gaussian_phi", None),
    ("gvlam.quantale", "SymbolicBound.enclosure", "quantale.enclosure", None),
]


def _term_nodes(args, result):
    from terms import nodes
    return nodes(result), 0


def _tables(args, result):
    dom, cod = args[0], args[1]
    return len(result), len(cod.points) ** len(dom.points)


COUNTERS = {
    "nodes": _term_nodes,
    "entries": lambda args, result: (len(result), 0),
    "one": lambda args, result: (1, 0),
    "domain": lambda args, result: (len(result.dom.points),
                                    len(result.dom.points)),
    "tables": _tables,
    "outcomes": lambda args, result: (len(result.probs), 0),
}

# Generator functions whose results the wrapper lists inside the span.
MATERIALIZE = {"metmodel.enumerate_tables"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    query: int = -1
    ok: bool = False
    count: int = 0
    size: int = 0


class Tracer:
    """Collects spans; wrappers are installed only between install() and
    uninstall(), so untraced code runs the original functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               query=self.query))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, ok: bool) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.ok = ok
        self._stack.pop()
        return span

    def wrap(self, module: str, path: str, name: str, counter=None):
        """Replace module.path by a spanning wrapper.  A target that does
        not exist is recorded in self.absent and left alone."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            label = f"{module}.{path}"
            if label not in self.absent:
                self.absent.append(label)
            return
        count = COUNTERS[counter] if counter else None
        listed = name in MATERIALIZE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                if listed:
                    result = list(result)
                ok = True
            finally:
                span = self.close(index, ok)
            if count is not None:
                span.count, span.size = count(args, result)
            return iter(result) if listed else result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def install(self, targets=TARGETS):
        for module, path, name, counter in targets:
            self.wrap(module, path, name, counter)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


# ---------------------------------------------------------------------------
# Analysis

def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for j in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            a, b = max(spans[j].start, s.start), min(spans[j].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans: list[Span], pred) -> list[int]:
    """Indices of spans matching pred with no matching ancestor, so that
    nested spans of one layer are not counted twice."""
    out = []
    for i, s in enumerate(spans):
        if not pred(s):
            continue
        p = s.parent
        while p >= 0 and not pred(spans[p]):
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def busy(spans: list[Span], pred) -> float:
    return sum(spans[i].end - spans[i].start for i in outermost(spans, pred))


def loglog_slope(points) -> float:
    """Least-squares slope of log(value) on log(size) over the median
    value at each size; 0.0 with fewer than two sizes."""
    by_size: dict[int, list[float]] = {}
    for size, value in points:
        if size and value > 0:
            by_size.setdefault(size, []).append(value)
    if len(by_size) < 2:
        return 0.0
    xs, ys = [], []
    for size, values in sorted(by_size.items()):
        values.sort()
        mid = len(values) // 2
        med = values[mid] if len(values) % 2 else \
            (values[mid - 1] + values[mid]) / 2
        xs.append(math.log(size))
        ys.append(math.log(med))
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def has_descendant(spans: list[Span], index: int, name: str) -> bool:
    for s in spans[index + 1:]:
        if s.start >= spans[index].end:
            break
        p = s.parent
        while p > index:
            p = spans[p].parent
        if p == index and s.name == name:
            return True
    return False


EXP_LAYERS = ("typecheck", "vequation", "rewrite", "metmodel")


def layer_metrics(spans: list[Span], queries: int, sizes: dict,
                  guard: int) -> dict:
    """The per-layer metrics from spans of `queries` traced queries.
    sizes maps a query id to its ladder size (absent when it has none)."""
    selfs = self_times(spans)

    def named(n):
        return lambda s: s.name == n

    def in_layer(lay):
        return lambda s: layer(s.name) == lay

    def self_sum(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s))

    def calls(pred):
        return sum(1 for s in spans if pred(s))

    def counted(pred):
        return sum(s.count for s in spans if pred(s))

    parser_busy = busy(spans, in_layer("parser"))
    synth = [i for i, s in enumerate(spans)
             if s.name == "vequation.synthesize"]
    direct = sum(1 for i in synth if spans[i].ok and not has_descendant(
        spans, i, "rewrite.beta_normalize"))
    metmodel_sizes = [s.size for s in spans if layer(s.name) == "metmodel"]
    out = {
        "parser.calls": calls(in_layer("parser")),
        "parser.busy_s": parser_busy,
        "parser.nodes_per_s": (counted(in_layer("parser")) / parser_busy
                               if parser_busy else 0.0),
        "theory.busy_s": busy(spans, in_layer("theory")),
        "proofscript.busy_s": busy(spans, in_layer("proofscript")),
        "typecheck.calls": calls(in_layer("typecheck")),
        "typecheck.busy_s": busy(spans, in_layer("typecheck")),
        "typecheck.self_s": self_sum(in_layer("typecheck")),
        "typecheck.calls_per_query": (calls(in_layer("typecheck")) / queries
                                      if queries else 0.0),
        "vequation.synthesize.self_s": self_sum(
            named("vequation.synthesize")),
        "vequation.validate.calls": calls(named("vequation.validate")),
        "vequation.validate.self_s": self_sum(named("vequation.validate")),
        "vequation.direct_success_ratio": (direct / len(synth)
                                           if synth else 0.0),
        "rewrite.beta_normalize.busy_s": busy(
            spans, named("rewrite.beta_normalize")),
        "rewrite.apply_step.calls": calls(named("rewrite.apply_step")),
        "rewrite.self_s": self_sum(in_layer("rewrite")),
        "metmodel.interp.busy_s": busy(spans, named("metmodel.interp")),
        "metmodel.points_enumerated": counted(in_layer("metmodel")),
        "metmodel.guard_share": (max(metmodel_sizes, default=0) / guard),
        "probmodel.busy_s": busy(spans, in_layer("probmodel")),
        "probmodel.outcomes": counted(in_layer("probmodel")),
        "quantale.enclosure.calls": calls(named("quantale.enclosure")),
        "quantale.enclosure_s": busy(spans, named("quantale.enclosure")),
    }
    for lay in EXP_LAYERS:
        per_query: dict[int, float] = {}
        for i in outermost(spans, in_layer(lay)):
            s = spans[i]
            per_query[s.query] = per_query.get(s.query, 0.0) + s.end - s.start
        out[f"{lay}.exp"] = loglog_slope(
            (sizes.get(q), t) for q, t in per_query.items())
    return out
