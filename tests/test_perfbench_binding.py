"""The benchmark's tracer still reaches every layer it wraps.

``perfbench/run.py --trace 1`` exits when a wrapped layer records no calls,
which is how a renamed or moved function shows up there. This runs the same
check on one small ``mvloc localize`` run and on one small round of the
three studies (the only callers of the ``govindu_*`` averages), so such a
rename fails here in seconds instead. It also checks that the per-pair and
per-track layers stay per pair and per track: one
``relpose.estimate_essential`` per pair that reaches RANSAC, one
``relpose.cheirality_select`` per pair whose RANSAC succeeded, and one
``refine.triangulate_track`` per track refinement is handed, inside which
every ``kernels.e1_residual_jac`` call runs.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mvloc import cli, simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/`` importable without writing bytecode into it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_localize_calls_every_wrapped_layer(perfbench, tmp_path):
    tracer, workloads = perfbench
    with tracer.instrument(tracer.Tracer(), tracer.TARGETS) as trace:
        # through the module, as the workloads call it, so the wrapper sees it
        config = simulate.SceneConfig(n_points=60, n_anchors=6, layout="line")
        scene = simulate.generate_scene(config, seed=11)
        manifest = simulate.export_scene_dataset(scene, tmp_path / "data", sigma_feat=1e-3, seed=11)
        argv = [
            "localize", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"),
            "--seed", "0", "--top-k", "6",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    _, uncalled = tracer.layer_metrics(trace, [])
    missing = uncalled - workloads.WORKLOADS["localize-k150"].idle
    assert not missing, f"wrapped layers recorded no calls (renamed or moved?): {sorted(missing)}"
    calls = {name: agg[1] for name, agg in trace.summary().items()}
    # one triangulation per track handed to refinement: a batched path that
    # goes round the per-track layer shows up here
    assert trace.counters["refine.tracks"] > 0
    assert calls["refine.triangulate_track"] == trace.counters["refine.tracks"]
    # every anchor-energy evaluation runs directly inside a triangulation:
    # the per-query track geometry never evaluates the kernel outside the
    # per-track layer, so per-layer self times stay attributable
    kernel_parents = [
        trace.spans[span[3]][0] if span[3] >= 0 else None
        for span in trace.spans
        if span[0] == "kernels.e1_residual_jac"
    ]
    assert kernel_parents
    assert set(kernel_parents) == {"refine.triangulate_track"}
    # one essential RANSAC per pair that reaches it (every loaded pair here
    # holds all 60 scene points), and one cheirality vote per pair whose
    # RANSAC succeeded: a stacked front end that goes round the per-pair
    # layers shows up here
    assert calls["dataset.load_matches"] == 6
    assert calls["relpose.estimate_essential"] == 6
    succeeded = 6 - trace.counters["relpose.estimate_essential.raised"]
    assert calls["relpose.cheirality_select"] == succeeded > 0


def test_studies_call_every_wrapped_layer(perfbench):
    tracer, workloads = perfbench
    with tracer.instrument(tracer.Tracer(), tracer.TARGETS) as trace:
        results = (
            simulate.run_k_sweep(k_values=(2, 5), trials=1, seed=11),
            simulate.run_noise_study(noise_grid=(1.0,), trials=2, seed=11),
            simulate.run_averaging_ablation(trials=2, seed=11),
        )
    # a skipped trial could leave a layer uncalled for a reason of its own
    assert all(row["skipped"] == 0 for result in results for row in result.rows)
    # the k sweep's one trial runs RANSAC once per anchor of its 5-anchor
    # scene, and cheirality once per anchor whose RANSAC succeeded
    calls = {name: agg[1] for name, agg in trace.summary().items()}
    assert calls["relpose.estimate_essential"] == 5
    succeeded = 5 - trace.counters["relpose.estimate_essential.raised"]
    assert calls["relpose.cheirality_select"] == succeeded > 0
    _, uncalled = tracer.layer_metrics(trace, [])
    missing = uncalled - workloads.WORKLOADS["studies"].idle
    assert not missing, f"wrapped layers recorded no calls (renamed or moved?): {sorted(missing)}"
