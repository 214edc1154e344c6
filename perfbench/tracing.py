"""Spans at the boundaries between the program's modules, recorded from
outside the program.

The tracer replaces, by attribute, the public names through which one
module calls the next (``cli.redei_berge_powersum``,
``polynomials.FundamentalQSym.expand``, ...) with timing wrappers.  Calls
into ``cli``, ``core``, ``polynomials`` and ``hamilton`` become spans with
an op id and a parent id, kept in memory and written out at the end of the
run.  ``kernel`` and ``digraph`` are called about a million times per
n = 8 op, so their calls are aggregated per name (count and self time)
instead.  A span's self time is derived from the spans afterwards: its
duration minus its child spans and the aggregated calls made directly
under it.

A name that does not exist in the program is recorded as absent; the
metrics fed only by absent names are reported as absent, not as errors.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType

# "module:attribute" as looked up by the caller; the layer is the module that
# defines the object.  Calls inside cli, core, polynomials or hamilton are not
# wrapped, except the three that split a layer into the stages the metrics
# name; kernel and digraph names count wherever they are called from.
TARGETS = (
    "cli:main",
    # cli -> core
    "cli:redei_berge_powersum",
    "cli:redei_berge_by_definition",
    "cli:redei_berge_tournament",
    "cli:redei_berge_two_cycle_free",
    "cli:deformed_powersum",
    "cli:in_doubled_odd_cone",
    "core:ArcWeights.from_json",
    "core:descent_distribution",  # the listing sweep of the definition route
    # cli, hamilton -> hamilton
    "cli:count_hamiltonian_paths",
    "cli:verify_berge",
    "cli:verify_redei",
    "cli:verify_mod4",
    "hamilton:count_hamiltonian_paths",
    "hamilton:count_nontrivial_odd_cycles",
    # cli, core -> polynomials
    "polynomials:FundamentalQSym.expand",
    "polynomials:PowerSumPolynomial.expand",
    "polynomials:MonomialPolynomial.__eq__",
    "polynomials:PowerSumPolynomial.__eq__",
    "polynomials:PowerSumPolynomial.to_json",
    "polynomials:PowerSumPolynomial.zeta",
    "polynomials:PowerSumPolynomial.omega",
    "polynomials:PowerSumPolynomial.antipode",
    "polynomials:PowerSumPolynomial.scale",
    # -> digraph (aggregated)
    "cli:parse_digraph",
    "digraph:Digraph.__init__",
    "digraph:Digraph.from_rows",
    "digraph:Digraph.complement",
    "digraph:Digraph.is_tournament",
    "digraph:Digraph.is_two_cycle_free",
    "digraph:Digraph.has_arc",
    "digraph:Digraph.arc_mask",
    # -> kernel (aggregated)
    "kernel:Permutation.__init__",
    "kernel:Permutation.cycles",
    "kernel:Permutation.cycle_type",
    "kernel:CycleClass.__init__",
    "kernel:CycleClass.__len__",
    "kernel:CycleClass.carcs",
    "kernel:CycleClass.reversal",
    "kernel:DescentSet.__init__",
    "kernel:partition_of",
)
AGGREGATED = {"kernel", "digraph"}
LAYERS = ("cli", "core", "polynomials", "hamilton", "digraph", "kernel")

POWERSUM = (
    "core.redei_berge_powersum",
    "core.redei_berge_tournament",
    "core.redei_berge_two_cycle_free",
)
DEFORMED = "core.deformed_powersum"
LISTING_SWEEP = "core.descent_distribution"
EXPAND = ("polynomials.FundamentalQSym.expand", "polynomials.PowerSumPolynomial.expand")
COMPARE = ("polynomials.MonomialPolynomial.__eq__", "polynomials.PowerSumPolynomial.__eq__")
DP = "hamilton.count_hamiltonian_paths"
CYCLES = "hamilton.count_nontrivial_odd_cycles"

# Span record fields.
ID, PARENT, OP, NAME, START, END, AGG, N, SIZE, KEY, ERROR = range(11)


def _self(span, own):
    return own


def _perms(span, own):
    return math.factorial(span[N])


def _size(span, own):
    return span[SIZE] or 0


# metric: (span names it sums over, value of one span given its self time)
FROM_SPANS = {
    "core.powersum_self_s": ((*POWERSUM, DEFORMED), _self),
    "core.perms_visited": ((*POWERSUM, DEFORMED), _perms),
    "core.terms_out": ((*POWERSUM, DEFORMED), _size),
    "core.deformed_self_s": ((DEFORMED,), _self),
    "core.listing_sweep_self_s": ((LISTING_SWEEP,), _self),
    "core.listings_visited": ((LISTING_SWEEP,), _perms),
    "polynomials.expand_self_s": (EXPAND, _self),
    "polynomials.compare_self_s": (COMPARE, _self),
    "polynomials.monomials_out": (EXPAND, _size),
    "hamilton.dp_self_s": ((DP,), _self),
    "hamilton.dp_calls": ((DP,), lambda span, own: 1),
    "hamilton.dp_states": ((DP,), lambda span, own: 2 ** span[N] * span[N]),
    "hamilton.cycles_self_s": ((CYCLES,), _self),
}


def _resolve(modules: dict[str, ModuleType], target: str):
    """(owner, attribute, raw object, layer, name), or None when absent."""
    namespace, path = target.split(":")
    owner = modules.get(namespace)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    raw = vars(owner)[attr]
    if outer:
        layer = owner.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{path}"
    else:
        layer = raw.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{raw.__name__}"
    return owner, attr, raw, layer, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)  # aggregated names
        self.self_s: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.absent: set[str] = set()
        self.op = None
        self._stack: list[list] = []  # [nested aggregated time] or [that, span id]
        self._wrappers: dict[int, object] = {}

    # ----------------------------------------------------------- install

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every target found in ``modules`` (short name -> module)."""
        for target in TARGETS:
            found = _resolve(modules, target)
            if found is None:
                self.absent.add(target)
                continue
            owner, attr, raw, layer, name = found
            if isinstance(raw, property):
                wrapped = property(self._wrap(raw.fget, layer, name))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, name))
            else:
                wrapped = self._wrap(raw, layer, name)
            setattr(owner, attr, wrapped)
            self.installed.add(name)

    def _wrap(self, fn, layer: str, name: str):
        if id(fn) in self._wrappers:  # one name imported into two modules
            return self._wrappers[id(fn)]
        make = self._aggregate if layer in AGGREGATED else self._span
        wrapper = functools.wraps(fn)(make(fn, name))
        self._wrappers[id(fn)] = wrapper
        self._wrappers[id(wrapper)] = wrapper  # a second install is a no-op
        return wrapper

    def _aggregate(self, fn, name: str):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _span(self, fn, name: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keyed = name == DP

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack and len(stack[-1]) == 2 else None
            span = [len(spans), parent, self.op, name, 0.0, 0.0, 0.0, None, None, None, None]
            spans.append(span)
            first = args[0] if args else None
            n = getattr(first, "n", None)
            span[N] = n if isinstance(n, int) else None
            if keyed:
                span[KEY] = hash(first)
            frame = [0.0, span[ID]]
            stack.append(frame)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                span[AGG] = frame[0]
                if stack and len(stack[-1]) == 1:
                    stack[-1][0] += span[END] - span[START]
            terms = getattr(result, "terms", None)
            if isinstance(terms, dict):
                span[SIZE] = len(terms)
            return result

        return wrapper

    # ----------------------------------------------------------- analysis

    def span_self_s(self) -> list[float]:
        """Self time of every span: duration minus child spans minus the
        aggregated calls made directly under it."""
        own = [s[END] - s[START] - s[AGG] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def by_name(self) -> dict[str, dict]:
        """Calls, self time and sizes per wrapped name."""
        table: dict[str, dict] = {}
        for span, own in zip(self.spans, self.span_self_s()):
            row = table.setdefault(
                span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "n": []}
            )
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[END] - span[START]
            if span[N] is not None and span[N] not in row["n"]:
                row["n"].append(span[N])
        for name, calls in self.calls.items():
            table[name] = {"calls": calls, "self_s": self.self_s[name]}
        for row in table.values():
            row["self_s_per_call"] = row["self_s"] / row["calls"]
        return dict(sorted(table.items()))

    def layer_metrics(self, ops: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced op, and the names of those whose
        every source name is absent from the program."""
        own = self.span_self_s()
        spans_by = defaultdict(list)
        layer_self = defaultdict(float)
        for span in self.spans:
            spans_by[span[NAME]].append(span)
            layer_self[span[NAME].split(".")[0]] += own[span[ID]]
        layer_calls = defaultdict(int)
        for name, calls in self.calls.items():
            layer_calls[name.split(".")[0]] += calls
            layer_self[name.split(".")[0]] += self.self_s[name]
        raised_below = {s[PARENT] for s in self.spans if s[ERROR] == "CapExceededError"}
        values = {
            metric: sum(value(s, own[s[ID]]) for n in names for s in spans_by[n])
            for metric, (names, value) in FROM_SPANS.items()
        }
        values["hamilton.cap_refusals"] = sum(  # the span that raised, not those it unwound
            1
            for s in self.spans
            if s[NAME].startswith("hamilton.")
            and s[ERROR] == "CapExceededError"
            and s[ID] not in raised_below
        )
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer]
        for layer in AGGREGATED:
            values[f"{layer}.calls"] = layer_calls[layer]
        per_op = {k: v / ops for k, v in values.items()}
        dp = spans_by[DP]
        per_op["hamilton.dp_useful_ratio"] = (
            len({(s[OP], s[KEY]) for s in dp}) / len(dp) if dp else 0.0
        )
        absent = [
            metric
            for metric, (names, _) in FROM_SPANS.items()
            if not any(n in self.installed for n in names)
        ]
        if DP not in self.installed:
            absent.append("hamilton.dp_useful_ratio")
        return per_op, absent

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "op", "name", "start", "end", "aggregated_s",
                  "n", "size", "key", "error"]  # fmt: skip
        payload = {
            "span_fields": fields,
            "spans": self.spans,
            "aggregated": {
                n: {"calls": c, "self_s": self.self_s[n]} for n, c in self.calls.items()
            },
            "absent_targets": sorted(self.absent),
        }
        path.write_text(json.dumps(payload) + "\n")
