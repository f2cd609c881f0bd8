"""mvloc: multiview camera localization.

Estimates a query camera's pose from scale-free relative poses against a set
of localized anchor images, by decoupled averaging (closed-form center from
ray bundles, chordal rotation mean) followed by latent-point refinement.
Includes a synthetic-scene simulator and a file-driven pipeline CLI.
"""

from .averaging import (
    AnchorObservation,
    CenterSolution,
    Ray,
    center_average,
    chordal_l2_mean,
    govindu_rotation_average,
    govindu_translation_average,
    locus_ray,
    markley_rotation_average,
    ray_from_backward_direction,
)
from .consensus import AnchorConsensus, anchor_ransac, decoupled_pose, pair_hypothesis
from .dataset import (
    Dataset,
    DatasetManifest,
    Intrinsics,
    load_dataset,
    load_manifest,
    write_dataset,
)
from .errors import (
    AmbiguousAverageError,
    AmbiguousCheiralityError,
    BehindCameraError,
    ConfigurationError,
    DegenerateGeometryError,
    GenerationError,
    InitializationError,
    InsufficientDataError,
    InvalidRotationError,
    MvlocError,
    NoConsensusError,
    NoValidPoseError,
    ParseError,
)
from .geometry import (
    Pose,
    RelativePoseEstimate,
    geodesic_angle,
    project,
    quat_to_rotation,
    relative_from_poses,
    rotation_to_quat,
)
from .pipeline import (
    PipelineConfig,
    QueryResult,
    localize_query,
    localize_run,
    score_run,
)
from .refine import (
    CorrespondenceTrack,
    LatentPoint,
    RefinementResult,
    e1_gradient,
    e1_objective,
    refine_pose,
    triangulate_track,
)
from .relpose import (
    MatchSet,
    RansacConfig,
    cheirality_select,
    decompose_essential,
    estimate_essential,
    midpoint_triangulate,
)
from .simulate import (
    NoiseSpec,
    SceneConfig,
    SyntheticScene,
    generate_scene,
    perturb_relative_pose,
    run_averaging_ablation,
    run_k_sweep,
    run_noise_study,
)

__version__ = "0.1.0"
