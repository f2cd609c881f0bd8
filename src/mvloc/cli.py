"""Command-line interface.

Subcommands: ``localize`` (file-driven pipeline run), ``simulate`` (Monte
Carlo studies), ``score`` (re-score a results CSV against ground truth).
Exit codes: 0 success, 2 configuration or parse error, 3 no query localized;
a bad match file fails only its query, as a ``failed: <path>:<line>: ...`` row.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from numbers import Integral, Real
from pathlib import Path

from .dataset import load_dataset, parse_poses
from .errors import ConfigurationError, InsufficientDataError, MvlocError, ParseError
from .pipeline import (
    PipelineConfig,
    localize_run,
    read_results_csv,
    score_run,
    write_report_json,
    write_results_csv,
)
from .simulate import (
    SceneConfig,
    run_averaging_ablation,
    run_k_sweep,
    run_noise_study,
    write_study_csv,
    write_study_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_POSE = 3


def _load_json_config(path):
    if path is None:
        return {}
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return raw


def _cmd_localize(args):
    raw = _load_json_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.top_k is not None:
        raw["top_k"] = args.top_k
    config = PipelineConfig.from_dict(raw)

    dataset = load_dataset(args.manifest)
    results, failures = localize_run(dataset, config)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "queries.csv", results, failures)

    report = {
        "config": asdict(config),
        "n_queries": len(results) + len(failures),
        "n_localized": len(results),
        "n_failed": len(failures),
        "failures": [
            {"query_id": f.query_id, "reason": f.reason}
            for f in sorted(failures, key=lambda f: f.query_id)
        ],
    }
    if results and dataset.ground_truth is not None:
        report["score"] = score_run(results, dataset.ground_truth, n_unlocalized=len(failures))
    write_report_json(out_dir / "report.json", report)

    print(
        f"localized {len(results)}/{len(results) + len(failures)} queries; "
        f"results in {out_dir}"
    )
    return EXIT_NO_POSE if not results else EXIT_OK


def _scene_config(scene_raw):
    """SceneConfig of a study config's ``scene`` object, or None (the
    study's own scene) for an empty one."""
    if not isinstance(scene_raw, dict):
        raise ConfigurationError(f"scene must be a JSON object, got {scene_raw!r}")
    unknown = set(scene_raw) - set(SceneConfig.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown scene keys: {sorted(unknown)}")
    return SceneConfig(**scene_raw) if scene_raw else None


def _is_integer(value, minimum):
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= minimum


def _is_sigma(value):
    return not isinstance(value, bool) and isinstance(value, Real) and 0 <= value < math.inf


def _is_list_of(check):
    return lambda value: isinstance(value, list) and bool(value) and all(map(check, value))


# Study config values: what each must be, and its check.
_STUDY_VALUES = {
    "trials": ("an integer >= 1", lambda value: _is_integer(value, 1)),
    "k_values": ("a non-empty list of integers >= 2", _is_list_of(lambda k: _is_integer(k, 2))),
    "sigma_feat": ("a finite number >= 0", _is_sigma),
    "sigma_deg": ("a finite number >= 0", _is_sigma),
    "sigmas_deg": ("a non-empty list of finite numbers >= 0", _is_list_of(_is_sigma)),
}


# Each study: its function, the CLI's trial count, and config key -> the
# function's keyword. A key the config leaves out keeps the function default.
_STUDIES = {
    "noise": (run_noise_study, 100, {"sigmas_deg": "noise_grid"}),
    "ksweep": (run_k_sweep, 20, {"k_values": "k_values", "sigma_feat": "sigma_feat"}),
    "ablation": (run_averaging_ablation, 100, {"sigma_deg": "noise"}),
}


def _cmd_simulate(args):
    raw = _load_json_config(args.config)
    study, default_trials, keywords = _STUDIES[args.study]
    for key in raw:
        if key not in keywords and key not in ("trials", "scene"):
            raise ConfigurationError(
                f"{key} must be left out: the {args.study} study does not read it"
            )
    if args.trials is not None:
        raw["trials"] = args.trials
    for key, (kind, check) in _STUDY_VALUES.items():
        if key in raw and not check(raw[key]):
            raise ConfigurationError(f"{key} must be {kind}, got {raw[key]!r}")
    kwargs = {keyword: raw[key] for key, keyword in keywords.items() if key in raw}
    if "scene" in raw:
        kwargs["scene_config"] = _scene_config(raw["scene"])
    result = study(trials=raw.get("trials", default_trials), seed=args.seed, **kwargs)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_study_csv(result, out_dir / f"{result.name}.csv")
    write_study_json(result, out_dir / f"{result.name}.json")
    print(f"{result.name}: {len(result.rows)} rows; results in {out_dir}")
    return EXIT_OK


def _cmd_score(args):
    results, n_failed = read_results_csv(args.results)
    ground_truth = parse_poses(args.ground_truth)
    try:
        report = score_run(results, ground_truth, n_unlocalized=n_failed)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_POSE
    if args.output:
        write_report_json(args.output, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvloc",
        description="Multiview camera localization from anchor databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_loc = sub.add_parser("localize", help="run the localization pipeline on a dataset")
    p_loc.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_loc.add_argument("--output-dir", required=True, help="directory for queries.csv and report.json")
    p_loc.add_argument(
        "--config", help="pipeline config JSON (flat keys; epi_threshold_px in pixels)"
    )
    p_loc.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p_loc.add_argument("--top-k", type=int, default=None, help="retrieval depth per query")
    p_loc.set_defaults(func=_cmd_localize)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study on synthetic scenes")
    p_sim.add_argument("study", choices=("noise", "ksweep", "ablation"))
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--config", help="study config JSON")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_score = sub.add_parser("score", help="score a results CSV against ground truth")
    p_score.add_argument("--results", required=True, help="queries.csv from a localize run")
    p_score.add_argument("--ground-truth", required=True, help="poses file")
    p_score.add_argument("--output", help="write the report JSON here instead of stdout")
    p_score.set_defaults(func=_cmd_score)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MvlocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
