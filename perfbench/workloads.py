"""The benchmark's workloads.

Each workload builds its inputs from the seed with ``mvloc.simulate`` and the
dataset writers. ``run_pass`` then runs one unit of closed-loop work (one
query or trial after another, one client) through ``mvloc.cli.main`` or the
public study functions. See README.md for why each workload exists.
"""

import contextlib
import hashlib
import inspect
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvloc import cli, simulate
from mvloc.errors import MvlocError
from mvloc.pipeline import ACCURACY_THRESHOLDS, read_results_csv

from tracer import GENERATE_SCENE, LOCALIZE_QUERY

# The tightest accuracy row: a final pose outside it counts as a failure.
GATE_M, GATE_DEG = ACCURACY_THRESHOLDS[0]


@dataclass
class PassOutcome:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    localized: int = 0
    refined: int = 0
    errors_m: list = field(default_factory=list)
    errors_deg: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    well_formed: bool = True
    notes: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)


@dataclass(frozen=True)
class Localize:
    """``mvloc localize`` over one dataset per query, each from its own
    seeded ``line`` scene, with the shipped default PipelineConfig."""

    n_queries: int
    n_anchors: int
    n_points: int
    sigma_feat: float
    timer = LOCALIZE_QUERY
    idle = frozenset(
        {"averaging.govindu_rotation_average", "averaging.govindu_translation_average"}
    )

    def setup(self, root, seed):
        config = simulate.SceneConfig(
            n_points=self.n_points, n_anchors=self.n_anchors, layout="line"
        )
        manifests = []
        for i in range(self.n_queries):
            scene_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            scene = simulate.generate_scene(config, seed=scene_seed)
            manifests.append(
                simulate.export_scene_dataset(
                    scene, Path(root) / f"q{i}", sigma_feat=self.sigma_feat,
                    seed=scene_seed, query_id=f"q{i}",
                )
            )
        return manifests

    def run_pass(self, manifest, out_dir, seed):
        """One ``mvloc localize`` run over one query's dataset."""
        outcome = PassOutcome(attempted=1)
        query = Path(manifest).parent.name
        argv = [
            "localize", "--manifest", str(manifest), "--output-dir", str(out_dir),
            "--seed", str(seed), "--top-k", str(self.n_anchors),
        ]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # an escaping exception fails this query only
            code = f"{type(exc).__name__}: {exc}"
        outcome.seconds = time.perf_counter() - start
        csv_path = Path(out_dir) / "queries.csv"
        if not csv_path.exists():
            outcome.failed = 1
            outcome.notes.append(f"{query}: no queries.csv (exit {code})")
            return outcome
        outcome.digests[f"{query}/queries.csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        try:
            results, n_failed = read_results_csv(csv_path)
        except MvlocError as exc:
            outcome.well_formed = False
            outcome.notes.append(f"{query}: unreadable queries.csv: {exc}")
            return outcome
        if len(results) + n_failed != 1:
            outcome.well_formed = False
            outcome.notes.append(f"{query}: {len(results) + n_failed} rows, expected 1")
        outcome.failed = n_failed
        if n_failed:
            outcome.notes.append(f"{query}: FailureRecord (exit {code})")
        for res in results:
            outcome.localized += 1
            outcome.refined += res.status == "ok"
            if res.error_m is None or res.error_deg is None:
                outcome.well_formed = False
                outcome.notes.append(f"{query}: no error columns")
                continue
            outcome.errors_m.append(res.error_m)
            outcome.errors_deg.append(res.error_deg)
            if not (res.error_m <= GATE_M and res.error_deg <= GATE_DEG):
                outcome.failed += 1
                outcome.notes.append(
                    f"{query}: {res.error_m:.3g} m / {res.error_deg:.3g} deg outside the gate"
                )
        return outcome

    def item_times(self, tracer, outcome):
        return [end - start for name, start, end, _, _ in tracer.spans]


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class Studies:
    """The three Monte Carlo studies in-process, seeded from the workload
    seed, with their CSVs written by ``write_study_csv``."""

    ksweep_trials: int
    noise_trials: int
    ablation_trials: int
    timer = GENERATE_SCENE
    idle = frozenset(
        {
            "dataset.load_dataset",
            "dataset.load_matches",
            "pipeline.localize_query",
            "pipeline.write_results_csv",
        }
    )

    def setup(self, root, seed):
        return [None]

    def run_pass(self, unit, out_dir, seed):
        """One round of the three studies."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True)
        # (study, call, cells per trial, rows holding one cell's skip count)
        studies = (
            (
                "k_sweep",
                lambda: simulate.run_k_sweep(trials=self.ksweep_trials, seed=seed),
                self.ksweep_trials * len(_default(simulate.run_k_sweep, "k_values")),
                lambda rows: rows,
            ),
            (
                "noise_study",
                lambda: simulate.run_noise_study(trials=self.noise_trials, seed=seed),
                self.noise_trials * len(_default(simulate.run_noise_study, "noise_grid")),
                lambda rows: rows[::2],  # one row per method in each noise cell
            ),
            (
                "averaging_ablation",
                lambda: simulate.run_averaging_ablation(trials=self.ablation_trials, seed=seed),
                self.ablation_trials,
                lambda rows: rows[:1],
            ),
        )
        outcome = PassOutcome()
        for name, call, attempted, cells in studies:
            start = time.perf_counter()
            try:
                result = call()
                simulate.write_study_csv(result, out_dir / f"{name}.csv")
            except Exception as exc:  # a study that raises fails all its trials
                outcome.seconds += time.perf_counter() - start
                outcome.attempted += attempted
                outcome.failed += attempted
                outcome.notes.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter()
            outcome.seconds += end - start
            if name == "k_sweep":
                outcome.window = (start, end)
            outcome.attempted += attempted
            skipped = sum(row["skipped"] for row in cells(result.rows))
            outcome.failed += skipped
            if skipped:
                outcome.notes.append(f"{name}: {skipped} skipped trials")
            if not result.rows or any(
                isinstance(v, float) and not math.isfinite(v)
                for row in result.rows for v in row.values()
            ):
                outcome.well_formed = False
                outcome.notes.append(f"{name}: empty or non-finite rows")
            if name == "k_sweep" and result.rows:
                widest = max(result.rows, key=lambda row: row["k"])
                outcome.errors_m.append(widest["median_center_err"])
                outcome.errors_deg.append(widest["median_rot_err_deg"])
            outcome.digests[f"{name}.csv"] = hashlib.sha256(
                (out_dir / f"{name}.csv").read_bytes()
            ).hexdigest()
        return outcome

    def item_times(self, tracer, outcome):
        """Wall time of each k-sweep trial: from one trial's scene draw to
        the next, the last one ending with the study."""
        lo, hi = outcome.window
        starts = [start for _, start, _, _, _ in tracer.spans if lo <= start <= hi]
        return [b - a for a, b in zip(starts, starts[1:] + [hi])]


WORKLOADS = {
    "localize-k150": Localize(n_queries=4, n_anchors=150, n_points=120, sigma_feat=1e-4),
    "localize-1px": Localize(n_queries=2, n_anchors=6, n_points=120, sigma_feat=1.25e-3),
    "studies": Studies(ksweep_trials=6, noise_trials=25, ablation_trials=60),
}
