"""Multi-aspect temporal network embeddings via mixtures of Hawkes processes."""

from .eval import (
    EvalReport,
    auc_roc,
    infer_aspect_labels,
    link_report,
    logistic_fit,
    logistic_predict,
    macro_f1,
    precision_recall_at_k,
    probe_pairs,
    probe_report,
    recommend,
)
from .intensity import (
    Queries,
    build_context,
    candidate_scores,
    forward,
    mixed_intensity,
)
from .params import (
    HyperParams,
    ModelParams,
    all_embeddings,
    export_embeddings,
    init_params,
    load_params,
    save_params,
    softplus,
    softplus_inv,
)
from .synth import PlantedSpec, PlantedTruth, generate, recovery_score, thinning_times
from .temporal_graph import (
    NegativeSampler,
    NeighborEvent,
    TemporalEdge,
    TemporalNetwork,
    history,
    load_edge_list,
    mask_static_edges,
    network_from_edges,
    sample_negatives,
)
from .training import (
    GradientSet,
    TrainingDiverged,
    batch_gradients,
    batch_loss,
    make_sample,
    train,
)

__version__ = "0.1.0"
