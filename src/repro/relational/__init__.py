"""Relational substrate: schemas, relations, queries, streams and joins.

Stream deliveries travel as chunks of :class:`StreamTuple` items or plain
``(relation, row)`` pairs; :func:`~repro.relational.stream.validated_items`
normalises and validates a chunk before any sampler state changes.
"""

from .schema import KeyConstraint, RelationSchema, canonical_attrs
from .relation import Relation, RelationIndex
from .query import JoinQuery
from .database import Database
from .stream import (
    StreamTuple,
    checkpoints,
    concatenate,
    interleave,
    renumber,
    shuffled,
    stream_from_rows,
)
from .acyclicity import gyo_reduction, is_acyclic, join_tree_edges, verify_join_tree
from .jointree import JoinTree, RootedJoinTree, TreeNode
from .join import (
    count_results,
    delta_results,
    iter_delta_results,
    iter_join_results,
    join_results,
    join_size,
    results_as_tuples,
)

__all__ = [
    "KeyConstraint",
    "RelationSchema",
    "canonical_attrs",
    "Relation",
    "RelationIndex",
    "JoinQuery",
    "Database",
    "StreamTuple",
    "checkpoints",
    "concatenate",
    "interleave",
    "renumber",
    "shuffled",
    "stream_from_rows",
    "gyo_reduction",
    "is_acyclic",
    "join_tree_edges",
    "verify_join_tree",
    "JoinTree",
    "RootedJoinTree",
    "TreeNode",
    "count_results",
    "delta_results",
    "iter_delta_results",
    "iter_join_results",
    "join_results",
    "join_size",
    "results_as_tuples",
]
