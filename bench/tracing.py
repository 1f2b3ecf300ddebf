"""Spans and counts at the layer boundaries of ``wplink``, from outside.

The package's code is not modified. ``Tracer.install`` rebinds each traced
public function, in every ``wplink`` module that binds the name (a function
imported into another module is bound there too), to a wrapper, and
``uninstall`` puts the originals back, so untraced passes run the plain
code.

* A span records its name, start, end, the index of the span that was open
  when it began (its parent) and one attribute of the call. Spans are kept
  in memory and written out when the run ends; a span's self time is its
  duration minus the durations of its children.
* Hot leaf functions are counted, not spanned, keyed by the innermost open
  span: a span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def _arg(index: int, name: str, get=lambda v: v):
    """Attribute taken from one argument of the traced call (None if absent)."""

    def pick(args, kwargs):
        try:
            return get(args[index] if len(args) > index else kwargs[name])
        except (KeyError, AttributeError, TypeError, ValueError):
            return None

    return pick


_TRIALS = _arg(4, "cfg", lambda cfg: cfg.trials)

# (module, function, span name, call attribute)
SPANS = [
    ("wplink.cli", "main", "cli.main", None),
    ("wplink.planner", "min_harvest_blocklength_mp", "planner.search_mp", None),
    ("wplink.multi_pb", "energy_supply_prob_mp", "multi_pb.pes_mp", _arg(1, "n", lambda n: int(n) // 2)),
    ("wplink.multi_pb", "f_deriv", "multi_pb.f_deriv", _arg(1, "x1")),
    ("wplink.specfun", "gauss_2f1", "specfun.gauss_2f1", None),
    ("wplink.single_pb", "optimal_power_fbl", "single_pb.optpower_fbl", None),
    ("wplink.montecarlo", "estimate_supply_prob_single", "montecarlo.est_single", _TRIALS),
    ("wplink.montecarlo", "estimate_supply_prob_mp", "montecarlo.est_mp", _TRIALS),
    ("wplink.montecarlo", "check_prefix_equivalence", "montecarlo.prefix", _TRIALS),
    ("wplink.montecarlo", "sample_ppp_energies", "montecarlo.ppp", _arg(2, "count")),
]

# (module, function, count name)
COUNTS = [
    ("wplink.single_pb", "achievable_rate_fbl", "single_pb.rate_fbl"),
    ("wplink.planner", "min_harvest_blocklength", "planner.min_harvest"),
    ("wplink.specfun", "lambert_w0", "specfun.lambert_w0"),
]

SMALL_N = 5_000  # series terms N = n/2 of a "small" outage series
LARGE_N = 10_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attribute]
        self.counts: Counter = Counter()  # (count name, innermost span name) -> calls
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                          attr(args, kwargs) if attr else None]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()

            return wrapper

        return make

    def _count(self, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name, spans[stack[-1]][0] if stack else None] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "wplink" or n.startswith("wplink.")]
        for module, fn, name, attr in SPANS:
            self._patch(modules, module, fn, self._span(name, attr))
        for module, fn, name in COUNTS:
            self._patch(modules, module, fn, self._count(name))

    def _patch(self, modules, module_name, fn_name, make) -> None:
        original = getattr(sys.modules.get(module_name), fn_name, None)
        if original is None:
            if f"{module_name}.{fn_name}" not in self.missing:
                self.missing.append(f"{module_name}.{fn_name}")
            return
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    # ---------------------------------------------------------- results

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3], "attr": s[4]}
            for s in self.spans
        ]
        counts = [{"name": k[0], "in_span": k[1], "calls": v} for k, v in sorted(self.counts.items(), key=str)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts, "missing": self.missing}, fh)

    def layer_metrics(self, passes: int, rows_per_pass: float, large_arg: float) -> dict[str, float]:
        """Per-layer metrics, per traced pass. ``large_arg`` is the f_deriv
        argument above which the large-argument route runs."""
        duration = [s[2] - s[1] for s in self.spans]
        children = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                children[s[3]] += duration[i]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s[0]].append(i)

        def calls(name):
            return len(by_name[name]) / passes

        def self_s(*names):
            return sum(duration[i] - children[i] for n in names for i in by_name[n]) / passes

        def attrs(name):
            return [self.spans[i][4] or 0 for i in by_name[name]]

        def per_second(name):
            busy = sum(duration[i] for i in by_name[name])
            return sum(attrs(name)) / busy if busy else 0.0

        def mean_ms(name, keep):
            picked = [duration[i] for i in by_name[name] if keep(self.spans[i][4] or 0)]
            return 1e3 * statistics.fmean(picked) if picked else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def counted(name, in_span=None):
            return sum(v for (n, s), v in self.counts.items()
                       if n == name and (in_span is None or s == in_span)) / passes

        probes = sum(1 for i in by_name["multi_pb.pes_mp"]
                     if self.spans[i][3] >= 0 and self.spans[self.spans[i][3]][0] == "planner.search_mp")
        montecarlo = [n for n in by_name if n.startswith("montecarlo.")]
        cli_self = self_s("cli.main")
        return {
            "planner.search_mp.calls": calls("planner.search_mp"),
            "planner.search_mp.self_s": self_s("planner.search_mp"),
            "planner.probes_per_search": ratio(probes, len(by_name["planner.search_mp"])),
            "planner.min_harvest.calls": counted("planner.min_harvest"),
            "multi_pb.pes_mp.calls": calls("multi_pb.pes_mp"),
            "multi_pb.pes_mp.self_s": self_s("multi_pb.pes_mp"),
            "multi_pb.pes_mp.terms": sum(attrs("multi_pb.pes_mp")) / passes,
            "multi_pb.pes_mp.ms_small_N": mean_ms("multi_pb.pes_mp", lambda n: n <= SMALL_N),
            "multi_pb.pes_mp.ms_large_N": mean_ms("multi_pb.pes_mp", lambda n: n >= LARGE_N),
            "multi_pb.f_deriv.calls": calls("multi_pb.f_deriv"),
            "multi_pb.f_deriv.self_s": self_s("multi_pb.f_deriv"),
            "multi_pb.f_deriv.large_arg_share": ratio(
                sum(1 for x in attrs("multi_pb.f_deriv") if x > large_arg),
                len(by_name["multi_pb.f_deriv"]),
            ),
            "specfun.gauss_2f1.calls": calls("specfun.gauss_2f1"),
            "specfun.gauss_2f1.self_s": self_s("specfun.gauss_2f1"),
            "specfun.lambert_w0.calls": counted("specfun.lambert_w0"),
            "montecarlo.self_s": self_s(*montecarlo),
            "montecarlo.est_single.trials_per_s": per_second("montecarlo.est_single"),
            "montecarlo.est_mp.trials_per_s": per_second("montecarlo.est_mp"),
            "montecarlo.prefix.trials_per_s": per_second("montecarlo.prefix"),
            "montecarlo.ppp.draws_per_s": per_second("montecarlo.ppp"),
            "single_pb.optpower_fbl.calls": calls("single_pb.optpower_fbl"),
            "single_pb.optpower_fbl.self_s": self_s("single_pb.optpower_fbl"),
            "single_pb.rates_per_optpower": ratio(
                counted("single_pb.rate_fbl", "single_pb.optpower_fbl"),
                calls("single_pb.optpower_fbl"),
            ),
            "single_pb.rate_fbl.calls": counted("single_pb.rate_fbl"),
            "cli.self_s": cli_self,
            "cli.rows": rows_per_pass,
            "cli.us_per_row_self": ratio(1e6 * cli_self, rows_per_pass),
        }
