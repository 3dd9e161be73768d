"""Memory consistency models (SC, x86-TSO, ARM-like weak ordering) and
the constraint rules every checker derives from them."""

from repro.mcm.model import (
    SC,
    TSO,
    WEAK,
    MemoryModel,
    SequentialConsistency,
    TotalStoreOrder,
    WeakOrdering,
    get_model,
    model_for_register_width,
)
from repro.mcm.rules import ConstraintRules

__all__ = [
    "SC",
    "TSO",
    "WEAK",
    "ConstraintRules",
    "MemoryModel",
    "SequentialConsistency",
    "TotalStoreOrder",
    "WeakOrdering",
    "get_model",
    "model_for_register_width",
]
