"""gestrec: skeleton-based dynamic hand gesture recognition.

Extracts global motion features (rigid pose via Kabsch alignment with
distance-adaptive amplitude binning) and finger motion features (20-DoF
inverse-kinematics joint angles) from 3D hand-skeleton sequences, classifies
them with a three-branch bidirectional LSTM, and evaluates with
leave-one-subject-out cross-validation.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, load_config
from .dataset import (
    DatasetEntry,
    DatasetIndex,
    LoocvSplit,
    load_sequence,
    make_loocv_splits,
    scan_dataset,
)
from .errors import GestrecError
from .evaluation import (
    EvaluationReport,
    accuracy,
    aggregate_splits,
    collapse_28_to_14,
    confusion_matrix,
    larfd,
    run_loocv,
    write_report,
)
from .features import extract_features, read_feature_file, write_feature_file
from .finger_motion import finger_features, hand_local_frame, inverse_kinematics
from .geometry import (
    cartesian_to_spherical,
    euler_to_matrix,
    kabsch_align,
    rotation_to_euler,
    wrap_angle,
)
from .global_motion import (
    DadConfig,
    dad_config_for_sequence,
    dad_thresholds,
    discretize_rho,
    frame_global_pose,
    global_features,
)
from .hand_model import DEFAULT_TEMPLATE, HandTemplate, forward_kinematics, reference_palm
from .network import (
    NetworkModel,
    Sample,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .skeleton import (
    DEFAULT_LAYOUT,
    JointLayout,
    SkeletonSequence,
    normalize_skeleton_branch,
    palm_radius,
    validate_sequence,
)
from .synth import GestureScript, builtin_scripts, export_dhg_tree, generate_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
