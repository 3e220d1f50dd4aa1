"""Traced mode: wrap each layer's public functions and count their work.

The wrappers live here, in the benchmark, not in the program.  Every
wrapped module-level function is rebound in each module that holds it, so
a name imported with ``from dcrlab.x import f`` is traced as well as calls
through the defining module.  Methods are replaced on their class.

Three kinds of wrapper:

* ``span``  keeps one span per call (name, start, end, parent span) and
            adds the call's self time to its function's total;
* ``hot``   for functions called millions of times: no span, only the
            call count and the summed self time;
* ``count`` only counts calls.  Its time stays with the enclosing span.

Self time is a call's duration minus the durations of the timed calls
made inside it.  Counts depend only on the inputs, so two traced runs of
one seed give identical counts.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, kind).  A dotted path names a method.
TARGETS = [
    ("probkit", "Dist.__init__", "hot"),
    ("probkit", "stat_distance", "hot"),
    ("probkit", "kl_divergence", "hot"),
    ("probkit", "mixture", "hot"),
    ("probkit", "cond_entropy", "hot"),
    ("hashfam", "dcrh_distance", "span"),
    ("hashfam", "adversary_distribution", "span"),
    ("hashfam", "col_distribution", "hot"),
    ("generators", "accessible_entropy", "span"),
    ("generators", "real_entropy", "span"),
    ("generators", "check_consistent", "span"),
    ("generators", "OnlineGenerator.block_law", "count"),
    ("entropy_gap", "_first_block_kl", "span"),
    ("entropy_gap", "_second_block_kl", "span"),
    ("entropy_gap", "RewindingAdversary.exact_distribution", "span"),
    ("commitments", "hiding_distance", "span"),
    ("commitments", "col_equivocation_rate", "span"),
    ("commitments", "markov_step_check", "span"),
    ("commitments", "scheme_to_hash_family", "span"),
    ("szkcommit", "hiding_experiment", "span"),
    ("szkcommit", "hybrid_experiment", "span"),
    ("szkcommit", "decider_advantage", "span"),
    ("szkcommit", "ProtocolSession.__init__", "count"),
    ("szkcommit", "TablePromiseProblem.classify", "count"),
]

# Per-layer metrics read off a traced round: (name, source, counter).
LAYER_METRICS = [
    ("probkit.Dist.calls", "probkit.Dist", "calls"),
    ("probkit.Dist.outcomes", "probkit.Dist", "outcomes"),
    ("probkit.Dist.self_s", "probkit.Dist", "self_s"),
    ("probkit.stat_distance.self_s", "probkit.stat_distance", "self_s"),
    ("probkit.kl_divergence.self_s", "probkit.kl_divergence", "self_s"),
    ("probkit.mixture.self_s", "probkit.mixture", "self_s"),
    ("probkit.cond_entropy.self_s", "probkit.cond_entropy", "self_s"),
    ("hashfam.dcrh_distance.self_s", "hashfam.dcrh_distance", "self_s"),
    ("hashfam.adversary_distribution.self_s", "hashfam.adversary_distribution", "self_s"),
    ("hashfam.adversary_distribution.enumerated", "hashfam.adversary_distribution", "enumerated"),
    ("hashfam.adversary_distribution.analytic", "hashfam.adversary_distribution", "analytic"),
    ("hashfam.col_distribution.calls", "hashfam.col_distribution", "calls"),
    ("hashfam.col_distribution.misses", "hashfam.col_distribution", "misses"),
    ("hashfam.col_distribution.self_s", "hashfam.col_distribution", "self_s"),
    ("generators.accessible_entropy.self_s", "generators.accessible_entropy", "self_s"),
    ("generators.real_entropy.calls", "generators.real_entropy", "calls"),
    ("generators.real_entropy.self_s", "generators.real_entropy", "self_s"),
    ("generators.check_consistent.self_s", "generators.check_consistent", "self_s"),
    ("generators.OnlineGenerator.block_law.calls", "generators.OnlineGenerator.block_law", "calls"),
    ("entropy_gap._first_block_kl.self_s", "entropy_gap._first_block_kl", "self_s"),
    ("entropy_gap._second_block_kl.self_s", "entropy_gap._second_block_kl", "self_s"),
    ("entropy_gap.RewindingAdversary.exact_distribution.calls",
     "entropy_gap.RewindingAdversary.exact_distribution", "calls"),
    ("entropy_gap.RewindingAdversary.exact_distribution.self_s",
     "entropy_gap.RewindingAdversary.exact_distribution", "self_s"),
    ("commitments.hiding_distance.calls", "commitments.hiding_distance", "calls"),
    ("commitments.hiding_distance.self_s", "commitments.hiding_distance", "self_s"),
    ("commitments.col_equivocation_rate.self_s", "commitments.col_equivocation_rate", "self_s"),
    ("commitments.markov_step_check.self_s", "commitments.markov_step_check", "self_s"),
    ("commitments.scheme_to_hash_family.self_s", "commitments.scheme_to_hash_family", "self_s"),
    ("szkcommit.hiding_experiment.self_s", "szkcommit.hiding_experiment", "self_s"),
    ("szkcommit.hybrid_experiment.self_s", "szkcommit.hybrid_experiment", "self_s"),
    ("szkcommit.decider_advantage.self_s", "szkcommit.decider_advantage", "self_s"),
    ("szkcommit.ProtocolSession.calls", "szkcommit.ProtocolSession", "calls"),
    ("szkcommit.TablePromiseProblem.classify.calls", "szkcommit.TablePromiseProblem.classify", "calls"),
]

COUNT_COUNTERS = ("calls", "outcomes", "enumerated", "analytic", "misses")


def _metric_name(module: str, path: str) -> str:
    """'Dist.__init__' and 'ProtocolSession.__init__' name their class."""
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[list] = []  # [seconds of timed children, span index]
        self._col_distribution = None  # the lru_cache whose misses are read

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, keep_span, after=None):
        stats = self.counters[name]
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            else:
                idx = parent
            frame = [0.0, idx]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[idx][1] = start
                    spans[idx][2] = end
            if after is not None:
                after(stats, args, kwargs)
            return result

        return wrapper

    def _counted(self, name, fn):
        stats = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_op(self, label: str, fn):
        """A root span around one of the benchmark's own operations."""
        return self._timed(f"op:{label}", fn, keep_span=True)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import dcrlab.hashfam as hashfam

        base_law = hashfam.Adversary.exact_distribution

        def count_outcomes(stats, args, kwargs):
            stats["outcomes"] += len(args[1] if len(args) > 1 else kwargs["mass"])

        def count_route(stats, args, kwargs):
            # Mirrors the branch taken by adversary_distribution.
            a, h = args[0], args[1]
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
            if mode != "exact":
                return
            threshold = kwargs.get("enum_threshold", 2**16)
            has_law = type(a).exact_distribution is not base_law
            analytic = has_law and a.tape_space(h) > threshold
            stats["analytic" if analytic else "enumerated"] += 1

        hooks = {"Dist.__init__": count_outcomes, "adversary_distribution": count_route}
        self._col_distribution = hashfam.col_distribution

        for module_name, path, kind in TARGETS:
            module = sys.modules[f"dcrlab.{module_name}"]
            name = _metric_name(module_name, path)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if kind == "count":
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, kind == "span", hooks.get(path))
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                _rebind_everywhere(original, wrapper)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        misses = self._col_distribution.cache_info().misses
        self.counters["hashfam.col_distribution"]["misses"] = misses
        out = {}
        for metric, source, counter in LAYER_METRICS:
            value = self.counters[source][counter] if source in self.counters else 0
            out[metric] = int(value) if counter in COUNT_COUNTERS else float(value)
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded module's globals."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
