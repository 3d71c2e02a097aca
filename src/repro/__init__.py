"""Triple-C: resource-usage prediction for semi-automatic
parallelization of groups of dynamic image-processing tasks.

Reproduction of Albers, Suijs & de With, IEEE IPDPS 2009
(DOI 10.1109/IPDPS.2009.5160942).

Package map
-----------
``repro.synthetic``
    Synthetic X-ray angiography sequences (the data substrate).
``repro.imaging``
    The StentBoost image-analysis pipeline (the application).
``repro.graph``
    Structural flow-graph model: tasks, switches, scenarios, Table 1.
``repro.hw``
    Deterministic platform model: cost model, caches, simulator.
``repro.profiling``
    Trace collection (the paper's profiling step).
``repro.core``
    **Triple-C itself**: Markov chains, EWMA+Markov computation
    predictors, cache and bandwidth models, accuracy metrics.
``repro.runtime``
    Semi-automatic parallelization: partitioner, QoS, the frame
    engine with its managed and baseline policies, co-scheduling.
``repro.experiments``
    One module per paper table/figure; regenerates every number.
``repro.workloads``
    Workload registry: named application bundles (flow graph +
    pipeline + corpus + fleet parameters); StentBoost is one entry.
"""

from repro.core import TripleC, TripleCPrediction, prediction_accuracy
from repro.hw import CostModel, Mapping, PlatformSimulator, blackford
from repro.imaging import StentBoostPipeline
from repro.profiling import ProfileConfig, profile_corpus, profile_sequence
from repro.synthetic import CorpusSpec, SequenceConfig, XRaySequence, generate_corpus
from repro.workloads import DEFAULT_WORKLOAD, Workload, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "TripleC",
    "TripleCPrediction",
    "prediction_accuracy",
    "DEFAULT_WORKLOAD",
    "Workload",
    "get_workload",
    "workload_names",
    "blackford",
    "CostModel",
    "Mapping",
    "PlatformSimulator",
    "StentBoostPipeline",
    "ProfileConfig",
    "profile_corpus",
    "profile_sequence",
    "CorpusSpec",
    "SequenceConfig",
    "XRaySequence",
    "generate_corpus",
    "__version__",
]
