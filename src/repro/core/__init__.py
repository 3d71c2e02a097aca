"""Triple-C: the paper's contribution.

Prediction models for the three C's:

* **Computation time** (:mod:`repro.core.computation`): per-task
  predictors combining an EWMA long-term tracker (Eq. 1), a
  first-order Markov chain over adaptively quantized short-term
  residuals (Eq. 2, :mod:`repro.core.markov`), the linear ROI growth
  model (Eq. 3) and a scenario state table
  (:mod:`repro.core.scenario`).  The predictor kinds form one closed
  table, :data:`~repro.core.computation.PREDICTORS`.
* **Cache memory** (:mod:`repro.core.cachemodel`): Table 1 per-task
  requirements plus the space-time occupancy prediction of intra-task
  swap traffic (Fig. 5).
* **Communication bandwidth** (:mod:`repro.core.bandwidth`): analytic
  inter-task and external-memory bandwidth per scenario (Fig. 2,
  Section 5.2).

:class:`~repro.core.triplec.TripleC` is the facade the runtime
manager consumes: ``fit`` on profiling traces, then a
``predict`` / ``observe`` loop per frame.
"""

from repro.core.accuracy import AccuracyReport, prediction_accuracy
from repro.core.bandwidth import BandwidthModel
from repro.core.cachemodel import CacheMemoryModel, table1_rows
from repro.core.computation import (
    PREDICTORS,
    ComputationModel,
    ConstantPredictor,
    EwmaMarkovPredictor,
    LastValuePredictor,
    MarkovPredictor,
    RoiLinearMarkovPredictor,
    ScenarioConditionedPredictor,
    predictor_class,
)
from repro.core.markov import AdaptiveQuantizer, MarkovChain
from repro.core.scenario import ScenarioTable
from repro.core.triplec import TripleC, TripleCPrediction

__all__ = [
    "PREDICTORS",
    "predictor_class",
    "AdaptiveQuantizer",
    "MarkovChain",
    "ConstantPredictor",
    "LastValuePredictor",
    "MarkovPredictor",
    "EwmaMarkovPredictor",
    "RoiLinearMarkovPredictor",
    "ScenarioConditionedPredictor",
    "ComputationModel",
    "ScenarioTable",
    "CacheMemoryModel",
    "table1_rows",
    "BandwidthModel",
    "TripleC",
    "TripleCPrediction",
    "AccuracyReport",
    "prediction_accuracy",
]
