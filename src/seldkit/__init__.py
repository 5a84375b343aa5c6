"""seldkit: a spatial-audio toolkit for sound event localization and detection.

Library layout:

* ``geometry``  - directions, unit vectors, great-circle distance
* ``audio``     - FOA clips and WAV I/O
* ``labels``    - frame-level annotations and their CSV format
* ``manifest``  - dataset manifests (real vs. emulated bookkeeping)
* ``features``  - log-mel + FOA intensity-vector feature extraction
* ``rotation``  - the 16-pattern FOA rotation/reflection group
* ``augment``   - gain/pitch/band-pass and spectrogram masking
* ``accdoa``    - activity-coupled Cartesian DOA encode/decode
* ``emulate``   - synthetic SRIRs, scene mixing, epoch sampling
* ``tta``       - clustering-based test-time augmentation
* ``metrics``   - location-dependent SELD metrics (ER20/F20/LE_CD/LR_CD)
* ``predict``   - predictor contract, oracle/constant/file-backed predictors
* ``pipeline``  - segmentation, k-fold splits, end-to-end scoring runs
"""

from .accdoa import DetectedEvent, decode, encode
from .audio import AudioClip, read_wav, write_wav
from .features import FeatureConfig, extract_features
from .geometry import Direction, UnitVec3, angular_distance, dir_to_unit, unit_to_dir
from .labels import ClipAnnotation, EventLabel, read_labels, write_labels
from .manifest import DatasetManifest, ManifestEntry
from .metrics import MetricConfig, SeldScores, evaluate
from .rotation import all_patterns, apply_to_audio, apply_to_direction, apply_to_features
from .tta import TtaConfig, run_tta

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "ClipAnnotation",
    "DatasetManifest",
    "DetectedEvent",
    "Direction",
    "EventLabel",
    "FeatureConfig",
    "ManifestEntry",
    "MetricConfig",
    "SeldScores",
    "TtaConfig",
    "UnitVec3",
    "all_patterns",
    "angular_distance",
    "apply_to_audio",
    "apply_to_direction",
    "apply_to_features",
    "decode",
    "dir_to_unit",
    "encode",
    "evaluate",
    "extract_features",
    "read_labels",
    "read_wav",
    "run_tta",
    "unit_to_dir",
    "write_labels",
    "write_wav",
]
