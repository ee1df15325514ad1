"""Flow schedulers: baselines, Coflow (Varys), and EchelonFlow (adapted MADD)."""

from .base import (
    Scheduler,
    SchedulerView,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from .cache import MemoizingScheduler
from .coflow_madd import CoflowMaddScheduler, link_load, madd_rates, remaining_gamma
from .deadline import EdfFlowScheduler
from .echelon_madd import ANCHORS, ORDERINGS, EchelonMaddScheduler
from .fairshare import FairSharingScheduler
from .oracle import (
    MakespanBounds,
    PipelineStageSpec,
    makespan_lower_bounds,
    single_link_pipeline_optimum,
)
from .sincronia import SincroniaScheduler, bssi_order
from .sjf import FifoFlowScheduler, ShortestFlowFirstScheduler

__all__ = [
    "Scheduler",
    "SchedulerView",
    "register_scheduler",
    "make_scheduler",
    "scheduler_names",
    "FairSharingScheduler",
    "ShortestFlowFirstScheduler",
    "FifoFlowScheduler",
    "CoflowMaddScheduler",
    "SincroniaScheduler",
    "bssi_order",
    "EchelonMaddScheduler",
    "EdfFlowScheduler",
    "MemoizingScheduler",
    "ORDERINGS",
    "ANCHORS",
    "link_load",
    "madd_rates",
    "remaining_gamma",
    "PipelineStageSpec",
    "single_link_pipeline_optimum",
    "MakespanBounds",
    "makespan_lower_bounds",
]
