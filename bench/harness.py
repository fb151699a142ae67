"""Closed-loop runner, span tracer and layer probes of the modalmin benchmark.

A run builds one workload's queries, then sends them to the program one at
a time (one process, no threads) in passes over the whole query set, for as
long as whole passes fit in the run's time.  Every call the benchmark makes
into a modalmin module goes through `Api`, which times it; in a traced run
it also records a span (name, start, end, parent span, query id).  Spans are
taken only around the benchmark's own calls; nothing inside src/ is touched.

A traced run makes one traced pass and then probes the layers directly:
expand_reduced on each query's witness set and language, and
enumerate_formulas to the depth each query enumerates, timed per length
level from yield timestamps and live EnumerationStats snapshots.

Untraced passes run under the host-speed sampler of hostspeed.py and report
their times in reference seconds.  The traced pass is not sampled, so its
spans and its wall time are raw seconds, comparable with the raw wall_s in
the untraced runs' metadata; the tracing overhead it reports is the
measured extra cost of one recorded span times the number of spans,
because on the heavy workloads the difference of two single passes is
mostly run-to-run noise.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from click.testing import CliRunner

from modalmin import cli, colouring, formula, game, gallery, kripke, synth
from modalmin.synth import EnumerationStats

import hostspeed
from workloads import PINNED, WORKLOADS, routes_agree

LAYERS = ("formula", "kripke", "gallery", "colouring", "game", "synth", "cli")
LEVELS = range(1, 11)

ROUTES = {
    "synth_s": ("synth.min_separating_frames", "synth.min_separating"),
    "game_s": ("game.fgf_min_cost", "game.min_cost_fgm"),
    "certify_s": ("synth.certify_bound",),
}


class Tracer:
    """Times the benchmark's calls into the program.

    Per-name totals are always kept, because the route metrics need them.
    Spans are kept only while `recording` is set; each is
    [name, start, end, parent index, query id].
    """

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = None
        start = time.perf_counter()
        if self.recording:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, start, None, parent, self.query])
            self._stack.append(index)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.totals[name] += end - start
            if index is not None:
                self.spans[index][2] = end
                self._stack.pop()


def span_cost(calls: int = 20000) -> float:
    """Seconds a recorded span adds to a call over an unrecorded one."""
    cost = []
    for recording in (False, True):
        scratch = Tracer()
        scratch.recording = recording
        started = time.perf_counter()
        for _ in range(calls):
            with scratch.span("calibrate"):
                pass
        cost.append(time.perf_counter() - started)
    return (cost[1] - cost[0]) / calls


class _Layer:
    """A module whose functions run inside a span named layer.function."""

    def __init__(self, tracer: Tracer, module, name: str):
        self._tracer = tracer
        self._module = module
        self._name = name

    def __getattr__(self, attr: str):
        target = getattr(self._module, attr)
        if not inspect.isfunction(target):
            return target
        name = f"{self._name}.{attr}"
        span = self._tracer.span

        def call(*args, **kwargs):
            with span(name):
                return target(*args, **kwargs)

        setattr(self, attr, call)
        return call


class Api:
    """The program as the benchmark sees it: one traced proxy per module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        for module in (formula, kripke, gallery, colouring, game, synth):
            name = module.__name__.rsplit(".", 1)[1]
            setattr(self, name, _Layer(tracer, module, name))

    def reproduce(self, seed: int) -> tuple[int, str]:
        """`modalmin reproduce --seed <seed>`, in process."""
        with self.tracer.span("cli.reproduce"):
            result = CliRunner().invoke(cli.main, ["reproduce", "--seed", str(seed)])
        return result.exit_code, result.output


# --- passes -------------------------------------------------------------------


TIMED = ("wall_s", *ROUTES)
MIN_SAMPLES = 4  # host-speed samples a segment takes before it closes


class Segments:
    """A pass cut into runs of whole queries, each scaled by its own host speed.

    A segment closes after the query during which it took its MIN_SAMPLES-th
    host-speed sample; a shorter last segment joins the one before.  Each
    segment's times, less the share spent sampling, are scaled by the mean
    unit time sampled during it (see hostspeed.py).
    """

    def __init__(self, tracer: Tracer, sampler: hostspeed.Sampler):
        self.tracer = tracer
        self.sampler = sampler
        self.done: list[tuple[float, dict, int, int]] = []
        self._open()

    def _open(self) -> None:
        self.tracer.totals.clear()
        self.first = len(self.sampler.samples)
        self.begun = time.perf_counter()

    def cut(self, last: bool = False) -> None:
        end = len(self.sampler.samples)
        if end - self.first < MIN_SAMPLES and not last:
            return
        work = time.perf_counter() - self.begun
        totals = {metric: sum(self.tracer.totals[n] for n in names)
                  for metric, names in ROUTES.items()}
        if last and self.done and end - self.first < MIN_SAMPLES:
            before, before_totals, first, _ = self.done.pop()
            work += before
            totals = {m: t + before_totals[m] for m, t in totals.items()}
            self.first = first
        self.done.append((work, totals, self.first, end))
        self._open()

    def times(self) -> dict[str, float]:
        """Reference seconds and raw seconds of every timed metric."""
        out = dict.fromkeys([*TIMED, *(f"raw_{m}" for m in TIMED)], 0.0)
        for work, totals, first, end in self.done:
            scale, sampling = self.sampler.scale(first, end)
            busy = (work - sampling) / work if work > 0 else 1.0
            for metric, seconds in (("wall_s", work), *totals.items()):
                out[f"raw_{metric}"] += seconds * busy
                out[metric] += seconds * busy * scale
        return out


def run_pass(queries, tracer: Tracer, sampler: hostspeed.Sampler) -> dict:
    """One closed-loop pass: each query and its check, then route agreement."""
    problems: dict[int, list[str]] = {}
    values: dict[int, object] = {}
    segments = Segments(tracer, sampler)
    for qid, q in enumerate(queries):
        tracer.query = qid
        with tracer.span(f"bench.{q.name}"):
            try:
                values[qid], errs = q.check(q.run())
            # a query that raises is a counted failure, never the end of the run
            except Exception as exc:  # noqa: BLE001
                values[qid], errs = None, [f"{type(exc).__name__}: {exc}"]
        if errs:
            problems[qid] = errs
        segments.cut()
    tracer.query = None

    groups = defaultdict(list)
    for qid, q in enumerate(queries):
        if q.group is not None:
            groups[q.group].append(qid)
    for group, members in groups.items():
        if not routes_agree(values[qid] for qid in members if values[qid] is not None):
            for qid in members:
                problems.setdefault(qid, []).append(
                    f"routes disagree in {group}: "
                    + ", ".join(f"{queries[m].name}={values[m]!r}" for m in members)
                )
    segments.cut(last=True)
    return {
        **segments.times(),
        "attempted": len(queries),
        "failed": len(problems),
        "problems": [f"{queries[qid].name}: {'; '.join(errs)}" for qid, errs in problems.items()],
        "answers": {q.name: repr(values[qid]) for qid, q in enumerate(queries) if q.fixed},
    }


# --- layer probes -------------------------------------------------------------


def _named_frames(w):
    named = [(f"+{nm}", fr) for nm, fr in w.named_positives()]
    return named + [(f"-{nm}", fr) for nm, fr in w.named_negatives()]


def probe_layers(queries, tracer: Tracer) -> dict:
    """Direct expand_reduced and enumerate_formulas calls on the queries' inputs."""
    expansions = {}
    for q in queries:
        if q.expand is None or q.expand in expansions:
            continue
        name, var_bound, language = q.expand
        w = gallery.builtin_witnesses(name)
        with tracer.span("probe.expand_reduced"):
            started = time.perf_counter()
            red = kripke.expand_reduced(_named_frames(w), var_bound, language)
            seconds = time.perf_counter() - started
        classes = set()
        for reps in red.class_reps.values():
            classes.update(reps)
        expansions[q.expand] = {
            "universe": red.universe,
            "seconds": seconds,
            "indices": len(red.universe),
            "classes": len(classes),
        }

    depth: dict[tuple, int] = {}
    for q in queries:
        if q.enum is not None:
            source, depth_k = q.enum
            depth[source] = max(depth.get(source, 0), depth_k)
    levels = defaultdict(lambda: [0.0, 0])
    enum_s = candidates = denotations = 0
    yielded = []
    for (source, var_bound, language), cap in depth.items():
        universe = (
            expansions[(source, var_bound, language)]["universe"]
            if isinstance(source, str) else source
        )
        stats = EnumerationStats()
        with tracer.span("probe.enumerate_formulas"):
            started = last = time.perf_counter()
            level, at_level = 1, 0
            for phi, _den, vec in synth.enumerate_formulas(universe, var_bound, cap, language, stats=stats):
                length = vec.get(formula.MeasureKind.LENGTH)
                if length != level:
                    # first yield of a new level closes the previous one
                    now = time.perf_counter()
                    levels[level][0] += now - last
                    levels[level][1] += stats.formulas - 1 - at_level
                    last, level, at_level = now, length, stats.formulas - 1
                yielded.append(phi)
            now = time.perf_counter()
        levels[level][0] += now - last
        levels[level][1] += stats.formulas - at_level
        enum_s += now - started
        candidates += stats.formulas
        denotations += stats.denotations

    with tracer.span("probe.measure_all"):
        started = time.perf_counter()
        for phi in yielded:
            formula.measure_all(phi)
        measure_s = time.perf_counter() - started

    return {
        "expansions": expansions,
        "enum_s": enum_s,
        "candidates": candidates,
        "kept": len(yielded),
        "denotations": denotations,
        "levels": levels,
        "measure_all_us": measure_s / max(len(yielded), 1) * 1e6,
    }


def self_times(spans) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += end - start - child[index]
    return out


# Per-layer metrics that are computed rather than read off one span or probe.
DERIVED = {
    "game.search_s": "game.fgf_min_cost spans minus the kripke.expand_s probe of the same "
                     "witness set and language, plus game.min_cost_fgm spans",
    "synth.level<k>_s": "enumerate_formulas probe time between the first yields of lengths k "
                        "and k+1; level<k>_candidates likewise from EnumerationStats snapshots",
    "<layer>.self_s": "span time of the layer minus the time its child spans cover",
    "trace.overhead_s": "extra cost of one recorded span, measured in the run, times the "
                        "number of spans; trace.wall_s (raw seconds) minus the untraced runs' "
                        "raw wall_s (meta.raw_metrics) is the whole-run figure",
}


def layer_metrics(queries, spans, counts, probes, traced_wall) -> dict:
    """The per-layer metrics of one traced pass and the layer probes."""
    per_name = defaultdict(float)
    calls = Counter()
    for name, start, end, _, _ in spans:
        per_name[name] += end - start
        calls[name] += 1
    expansions = probes["expansions"]
    expand_of = {q.name: expansions[q.expand]["seconds"] for q in queries if q.expand}

    search_s = 0.0
    for name, start, end, _, qid in spans:
        if name == "game.min_cost_fgm":
            search_s += end - start
        elif name == "game.fgf_min_cost":
            search_s += end - start - expand_of[queries[qid].name]
    candidates = probes["candidates"]
    m = {
        "kripke.expand_s": sum(e["seconds"] for e in expansions.values()),
        "kripke.universe_indices": sum(e["indices"] for e in expansions.values()),
        "kripke.classes": sum(e["classes"] for e in expansions.values()),
        "kripke.frame_valid_s": per_name["kripke.frame_valid"],
        "kripke.frame_valid_calls": calls["kripke.frame_valid"],
        "kripke.bisimilar_s": per_name["kripke.bisimilar"],
        "kripke.bisimilar_calls": calls["kripke.bisimilar"],
        "synth.enum_s": probes["enum_s"],
        "synth.candidates": candidates,
        "synth.kept": probes["kept"],
        "synth.denotations": probes["denotations"],
        "synth.kept_ratio": probes["kept"] / max(candidates, 1),
        "synth.us_per_candidate": probes["enum_s"] / max(candidates, 1) * 1e6,
        "synth.certify_candidates": counts["synth.certify_candidates"],
    }
    for k in LEVELS:
        m[f"synth.level{k}_s"] = probes["levels"][k][0]
        m[f"synth.level{k}_candidates"] = probes["levels"][k][1]
    m.update({
        "game.search_s": search_s,
        "game.tree_nodes": counts["game.tree_nodes"],
        "game.verify_s": per_name["game.verify_closed_tree"] + per_name["game.psi_of_tree"],
        "formula.measure_all_us": probes["measure_all_us"],
        "formula.roundtrip_s": sum(
            per_name[n] for n in ("formula.print_formula", "formula.parse", "formula.measure_all")
        ),
        "gallery.build_s": sum(t for n, t in per_name.items() if n.startswith("gallery.")),
        "colouring.noncol_s": per_name["colouring.noncol_equivalence"],
        "colouring.cases": calls["colouring.noncol_equivalence"],
        "cli.reproduce_s": per_name["cli.reproduce"],
    })
    own = self_times([s for s in spans if not s[0].startswith("probe.")])
    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = span_cost() * len(spans)
    m["trace.spans"] = len(spans)
    return m


# --- a run --------------------------------------------------------------------


class Run:
    """One workload run: set-up now, passes and probes on `measure`."""

    def __init__(self, workload: str, seed: int, trace: bool, pinned=PINNED):
        self.tracer = Tracer()
        self.tracer.recording = trace
        self.trace = trace
        self.queries = WORKLOADS[workload](Api(self.tracer), seed, pinned)

    def measure(self, seconds: float) -> dict:
        passes = []
        # the traced pass is not sampled, so that its spans hold only the program
        sampler = hostspeed.Sampler()
        started = time.perf_counter()
        if self.trace:
            passes.append(run_pass(self.queries, self.tracer, sampler))
        else:
            sampler.start()
            try:
                # whole passes while the next one, timed like the last, still fits
                while True:
                    begun = time.perf_counter()
                    passes.append(run_pass(self.queries, self.tracer, sampler))
                    now = time.perf_counter()
                    if now - started + (now - begun) > seconds:
                        break
            finally:
                sampler.stop()
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        result = {
            "correct": failed == 0
            and all(p["answers"] == passes[0]["answers"] for p in passes),
            "attempted": attempted,
            "failed": failed,
            "passes": len(passes),
            "problems": [msg for p in passes for msg in p["problems"]][:20],
            "answers": passes[0]["answers"],
        }
        if self.trace:
            probes = probe_layers(self.queries, self.tracer)
            result["metrics"] = layer_metrics(
                self.queries, self.tracer.spans, self.tracer.counts, probes,
                passes[0]["wall_s"],
            )
        else:
            result["metrics"] = {
                name: statistics.median(p[name] for p in passes) for name in TIMED
            }
            result["raw"] = {
                name: statistics.median(p[f"raw_{name}"] for p in passes) for name in TIMED
            }
            result["samples"] = {name: [p[name] for p in passes] for name in TIMED}
            result["host_samples"] = len(sampler.samples)
            result["unit_s"] = statistics.median(sampler.samples)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
