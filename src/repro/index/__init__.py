"""Dynamic sampling index for acyclic joins (Section 4)."""

from .counters import is_pow2, next_pow2, pow2_exponent
from .buckets import Bucket, BucketFamily
from .grouping import GroupView, grouping_attrs
from .tree_index import TreeIndex
from .dynamic_index import DynamicJoinIndex
from .two_table import TwoTableIndex
from .foreign_key import ForeignKeyCombiner

__all__ = [
    "is_pow2",
    "next_pow2",
    "pow2_exponent",
    "Bucket",
    "BucketFamily",
    "GroupView",
    "grouping_attrs",
    "TreeIndex",
    "DynamicJoinIndex",
    "TwoTableIndex",
    "ForeignKeyCombiner",
]
