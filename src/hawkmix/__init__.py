"""Multi-aspect temporal network embeddings via mixtures of Hawkes processes."""

from .eval import (
    EvalReport,
    aspect_probe,
    auc_roc,
    edge_feature,
    infer_aspect_labels,
    logistic_fit,
    logistic_predict,
    macro_f1,
    precision_recall_at_k,
    probe_report,
    recommend,
)
from .intensity import (
    EdgeContext,
    build_context,
    candidate_scores,
    forward,
    mixed_intensity,
    pad_histories,
)
from .params import (
    HyperParams,
    ModelParams,
    all_embeddings,
    concat_embedding,
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
    LossSample,
    TrainingDiverged,
    ablation_config,
    batch_gradients,
    batch_loss,
    gradients,
    make_sample,
    sample_loss,
    train,
)

__version__ = "0.1.0"
