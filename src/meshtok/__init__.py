"""meshtok: triangle-mesh tokenization by half-edge traversal.

Encodes a validated mesh into roughly two tokens per face, decodes token
streams back through a predictor-driven stack machine, and ships the
preprocessing, file formats, and geometric metrics around that codec.
"""

from .core import (
    Face,
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    ValidationReport,
    Violation,
    connected_components,
    dequantize_coord,
    dequantize_mesh,
    quantize_coord,
    validate_manifold,
)
from .preprocess import (
    AcceptDecision,
    DegenerateExtentError,
    OutOfRangeError,
    PreprocessConfig,
    augment,
    filter_mesh,
    normalize,
    quantize,
    run_preprocess,
)
from .sequencer import (
    InvalidMeshError,
    MalformedSequenceError,
    SequenceStats,
    StepRecord,
    TokenSequence,
    encode,
    sequence_stats,
)
from .generator import (
    DesyncError,
    GeneratorConfig,
    IllegalAnswerError,
    PipePredictor,
    PredictorAnswer,
    PredictorQuery,
    RunResult,
    decode,
    fuzz_predictor,
    replay_outputs,
    run,
)
from .metrics import (
    EmptySurfaceError,
    MetricsReport,
    chamfer,
    evaluate,
    normal_consistency,
    point_to_triangle_distance,
    sample_surface,
)

__version__ = "0.1.0"
