"""Failure, churn, and estimation-error models used by the robustness experiments."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .churn import (
        AdversarialChurn,
        BurstChurn,
        ChurnEvent,
        ChurnModel,
        FlashCrowd,
        NoChurn,
        UniformChurn,
    )
    from .churn_registry import CHURN_MODELS, available_churn_models, build_churn_model
    from .estimates import EstimateError, distorted_estimate, estimate_grid
    from .message_loss import FailureModel, IndependentLoss, ReliableDelivery
    from .registry import FAILURE_MODELS, available_failure_models, build_failure_model

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "FailureModel",
    "IndependentLoss",
    "ReliableDelivery",
    "ChurnModel",
    "NoChurn",
    "UniformChurn",
    "BurstChurn",
    "FlashCrowd",
    "AdversarialChurn",
    "ChurnEvent",
    "EstimateError",
    "distorted_estimate",
    "estimate_grid",
    "FAILURE_MODELS",
    "available_failure_models",
    "build_failure_model",
    "CHURN_MODELS",
    "available_churn_models",
    "build_churn_model",
]
