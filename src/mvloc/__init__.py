"""mvloc: multiview camera localization.

Estimates a query camera's pose from scale-free relative poses against a set
of localized anchor images, by decoupled averaging (closed-form center from
ray bundles, chordal rotation mean) followed by latent-point refinement.
Includes a synthetic-scene simulator and a file-driven pipeline CLI.
"""

from .averaging import (
    CenterSolution,
    ObservationStack,
    center_average,
    govindu_rotation_average,
    govindu_translation_average,
    markley_rotation_average,
)
from .consensus import AnchorConsensus, anchor_ransac, decoupled_pose
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
    quat_to_rotation,
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
    refine_pose,
    triangulate_track,
)
from .relpose import (
    MatchSet,
    RansacConfig,
    cheirality_select,
    estimate_essential,
)
from .simulate import (
    NoiseSpec,
    SceneConfig,
    SyntheticScene,
    generate_scene,
    run_averaging_ablation,
    run_k_sweep,
    run_noise_study,
)

__version__ = "0.1.0"
