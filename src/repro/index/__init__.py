"""Dynamic sampling index for acyclic joins (Section 4)."""

from .counters import next_pow2
from .buckets import BucketFamily
from .grouping import GroupView, grouping_attrs
from .tree_index import TreeIndex
from .dynamic_index import DynamicJoinIndex
from .two_table import TwoTableIndex
from .foreign_key import ForeignKeyCombiner

__all__ = [
    "next_pow2",
    "BucketFamily",
    "GroupView",
    "grouping_attrs",
    "TreeIndex",
    "DynamicJoinIndex",
    "TwoTableIndex",
    "ForeignKeyCombiner",
]
