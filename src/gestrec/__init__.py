"""gestrec: skeleton-based dynamic hand gesture recognition.

Extracts global motion features (rigid pose via Kabsch alignment with
distance-adaptive amplitude binning) and finger motion features (20-DoF
inverse-kinematics joint angles) from 3D hand-skeleton sequences, classifies
them with a three-branch bidirectional LSTM, and evaluates with
leave-one-subject-out cross-validation.

The package root holds only the names of the README's library sketch; every
other name is imported from the module that defines it.
"""

__version__ = "0.1.0"

from .config import PipelineConfig
from .evaluation import render_summary, run_loocv
from .features import extract_features
from .synth import builtin_scripts, generate_dataset

__all__ = ["PipelineConfig", "builtin_scripts", "generate_dataset",
           "extract_features", "run_loocv", "render_summary"]
