"""In-memory span tracer that wraps mvloc functions from outside the package.

A target is patched under every name a caller looks it up by: each module
global in ``mvloc`` bound to the same function object (``pipeline`` and
``simulate`` import ``estimate_essential`` by name, ``relpose`` calls its own
``eight_point``), attributes of ``mvloc._kernels`` (``refine`` and
``consensus`` call through the module), and class attributes for methods.

A span is ``[name, start, end, parent, item]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``item`` is the query id or trial scene
seed the span belongs to. A span's self time is its duration minus its
children's. Counters read from arguments and results give the useful /
attempted ratios. Wrappers draw from no RNG and pass arguments, results and
exceptions through untouched, so traced and untraced runs write the same
bytes.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, namedtuple

from mvloc.errors import MvlocError

Target = namedtuple("Target", "module attr observe enter", defaults=(None, None))


def target_name(target):
    """Metric prefix of a target: ``relpose.estimate_essential``,
    ``kernels.e1_residual_jac``, ``dataset.load_matches``."""
    module = target.module.removeprefix("mvloc.").lstrip("_")
    return f"{module}.{target.attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.item = None
        self._stack = []

    def call(self, name, target, fn, args, kwargs):
        if target.enter is not None:
            self.item = target.enter(args, kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except MvlocError:
            self.counters[name + ".raised"] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if target.observe is not None:
            target.observe(self.counters, args, result)
        return result

    def summary(self):
        """name -> [seconds, calls, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0.0, 0, 0.0])
            agg[0] += end - start
            agg[1] += 1
            agg[2] += end - start - child[index]
        return out


def _bindings(target):
    """(holder, attribute) pairs through which callers reach the target."""
    owner = sys.modules[target.module]
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        return [(getattr(owner, cls_name), method)]
    original = getattr(owner, target.attr)
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "mvloc" or key.startswith("mvloc.")
    ]
    return [
        (mod, key) for mod in modules for key, value in vars(mod).items() if value is original
    ]


@contextlib.contextmanager
def instrument(tracer, targets):
    """Patch every binding of each target to record spans into ``tracer``;
    restore the originals on exit."""
    patched = []
    try:
        for target in targets:
            name = target_name(target)
            bindings = _bindings(target)
            original = getattr(*bindings[0])

            @functools.wraps(original)
            def wrapper(*args, _name=name, _target=target, _fn=original, **kwargs):
                return tracer.call(_name, _target, _fn, args, kwargs)

            for holder, attr in bindings:
                patched.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


def _essential(counters, args, result):
    counters["relpose.matches"] += len(args[0])
    counters["relpose.inliers"] += int(result[1].sum())


def _consensus(counters, args, result):
    counters["consensus.observations"] += len(args[0])
    counters["consensus.inliers"] += result.inlier_count


def _pairs(counters, args, result):
    counters["consensus.pairs_scored"] += len(args[3])


def _refine(counters, args, result):
    counters["refine.tracks"] += len(args[0])
    counters["refine.points_used"] += result.points_used


def _query(counters, args, result):
    counters["pipeline.anchors_considered"] += result.n_anchors_considered
    counters["pipeline.anchors_estimated"] += result.n_anchors_estimated


def _match_rows(counters, args, result):
    counters["dataset.match_rows"] += len(result)


def _query_id(args, kwargs):
    return str(args[1])


def _scene_seed(args, kwargs):
    return f"scene:{kwargs.get('seed', args[1] if len(args) > 1 else 0)}"


LOCALIZE_QUERY = Target("mvloc.pipeline", "localize_query", _query, _query_id)
GENERATE_SCENE = Target("mvloc.simulate", "generate_scene", None, _scene_seed)

# Every wrapped layer boundary. ``geometry`` stays unwrapped: its helpers are
# called tens of thousands of times per study and cost less than a span.
TARGETS = (
    Target("mvloc.dataset", "load_dataset"),
    Target("mvloc.dataset", "Dataset.load_matches", _match_rows),
    Target("mvloc.relpose", "estimate_essential", _essential),
    Target("mvloc.relpose", "eight_point"),
    Target("mvloc.relpose", "cheirality_select"),
    Target("mvloc.consensus", "anchor_ransac", _consensus),
    Target("mvloc.consensus", "decoupled_pose"),
    Target("mvloc.averaging", "center_average"),
    Target("mvloc.averaging", "markley_rotation_average"),
    Target("mvloc.averaging", "govindu_rotation_average"),
    Target("mvloc.averaging", "govindu_translation_average"),
    Target("mvloc.refine", "refine_pose", _refine),
    Target("mvloc.refine", "triangulate_track"),
    Target("mvloc._kernels", "e1_residual_jac"),
    Target("mvloc._kernels", "consensus_scores", _pairs),
    LOCALIZE_QUERY,
    Target("mvloc.pipeline", "write_results_csv"),
    GENERATE_SCENE,
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, traced):
    """Per-layer metrics, name -> (value, unit), for one set-up plus one
    unit of work: the ``setup`` tracer's totals plus the mean over the
    ``traced`` tracers. Returns (metrics, names of targets never called)."""
    totals = {name: list(agg) for name, agg in setup.summary().items()}
    counters = Counter(setup.counters)
    for tracer in traced:
        for name, agg in tracer.summary().items():
            acc = totals.setdefault(name, [0.0, 0, 0.0])
            for i in range(3):
                acc[i] += agg[i] / len(traced)
        for key, value in tracer.counters.items():
            counters[key] += value / len(traced)

    metrics = {}
    uncalled = set()
    for target in TARGETS:
        name = target_name(target)
        s, calls, self_s = totals.get(name, (0.0, 0, 0.0))
        if not calls:
            uncalled.add(name)
        metrics[f"{name}.s"] = (s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    c = counters
    metrics.update(
        {
            "dataset.match_rows": (c["dataset.match_rows"], "count"),
            "relpose.inlier_frac": (_ratio(c["relpose.inliers"], c["relpose.matches"]), "ratio"),
            "relpose.failed": (
                c["relpose.estimate_essential.raised"] + c["relpose.cheirality_select.raised"],
                "count",
            ),
            "consensus.pairs_scored": (c["consensus.pairs_scored"], "count"),
            "consensus.inlier_frac": (
                _ratio(c["consensus.inliers"], c["consensus.observations"]), "ratio"
            ),
            "refine.tracks_used_frac": (_ratio(c["refine.points_used"], c["refine.tracks"]), "ratio"),
            "pipeline.anchors_estimated_frac": (
                _ratio(c["pipeline.anchors_estimated"], c["pipeline.anchors_considered"]), "ratio"
            ),
        }
    )
    return metrics, uncalled
