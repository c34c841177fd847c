"""Baseline samplers the paper compares against."""

from .sjoin import ExactTreeIndex, SJoin
from .symmetric import SymmetricHashJoinSampler

__all__ = [
    "ExactTreeIndex",
    "SJoin",
    "SymmetricHashJoinSampler",
]
