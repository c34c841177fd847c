"""Join trees and rooted join trees (Section 4.3).

The dynamic index maintains one *rooted* join tree per relation: the tree
rooted at relation ``r`` is responsible for generating the delta batch of
every tuple inserted into ``R_r``.  A :class:`RootedJoinTree` precomputes the
parent/children relationships and, for every non-root node ``e``, the key
attributes ``key(e) = e ∩ parent(e)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .acyclicity import join_tree_edges
from .query import JoinQuery
from .schema import canonical_attrs


class JoinTree:
    """An unrooted join tree over the relations of an acyclic query."""

    def __init__(self, query: JoinQuery, edges: Optional[List[Tuple[str, str]]] = None) -> None:
        self.query = query
        if edges is None:
            edges = join_tree_edges(query)
        self.edges = [tuple(edge) for edge in edges]
        self.adjacency: Dict[str, List[str]] = {name: [] for name in query.relation_names}
        for a, b in self.edges:
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)

    def rooted_at(self, root: str) -> "RootedJoinTree":
        """The rooted version of this tree with ``root`` as the root."""
        return RootedJoinTree(self, root)


@dataclass
class TreeNode:
    """A node of a rooted join tree.

    Attributes
    ----------
    name:
        The relation name.
    parent:
        Name of the parent node, or ``None`` for the root.
    children:
        Names of the child nodes.
    key_attrs:
        ``key(e) = attrs(e) ∩ attrs(parent(e))`` in canonical order; empty for
        the root.
    attrs:
        The node's own attributes.
    subtree_size:
        ``|T_e|`` — number of relations in the subtree rooted here.
    """

    name: str
    parent: Optional[str]
    children: Tuple[str, ...]
    key_attrs: Tuple[str, ...]
    attrs: Tuple[str, ...]
    subtree_size: int

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RootedJoinTree:
    """A join tree rooted at a specific relation."""

    def __init__(self, tree: JoinTree, root: str) -> None:
        if root not in tree.query.relation_names:
            raise ValueError(f"unknown root relation {root!r}")
        self.query = tree.query
        self.root = root
        self.nodes: Dict[str, TreeNode] = {}
        self._build(tree)

    def _build(self, tree: JoinTree) -> None:
        parent: Dict[str, Optional[str]] = {self.root: None}
        order: List[str] = [self.root]
        seen = {self.root}
        cursor = 0
        while cursor < len(order):
            node = order[cursor]
            cursor += 1
            for neighbour in tree.adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    parent[neighbour] = node
                    order.append(neighbour)
        if len(order) != len(tree.query.relation_names):
            missing = set(tree.query.relation_names) - seen
            raise ValueError(f"join tree is disconnected; unreachable nodes: {missing}")
        children: Dict[str, List[str]] = {name: [] for name in order}
        for name, par in parent.items():
            if par is not None:
                children[par].append(name)
        subtree_size: Dict[str, int] = {}
        for name in reversed(order):
            subtree_size[name] = 1 + sum(subtree_size[c] for c in children[name])
        for name in order:
            schema = self.query.relation(name)
            par = parent[name]
            if par is None:
                key_attrs: Tuple[str, ...] = ()
            else:
                key_attrs = canonical_attrs(
                    schema.attr_set & self.query.relation(par).attr_set
                )
            self.nodes[name] = TreeNode(
                name=name,
                parent=par,
                children=tuple(children[name]),
                key_attrs=key_attrs,
                attrs=schema.attrs,
                subtree_size=subtree_size[name],
            )
        self._order = order

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def node(self, name: str) -> TreeNode:
        """The tree node for relation ``name``."""
        return self.nodes[name]

    def topological_order(self) -> List[str]:
        """Nodes in root-first (BFS) order."""
        return list(self._order)

    def bottom_up_order(self) -> List[str]:
        """Nodes in leaves-first order."""
        return list(reversed(self._order))

    def key_of(self, name: str) -> Tuple[str, ...]:
        """``key(e)`` for node ``name`` (empty tuple for the root)."""
        return self.nodes[name].key_attrs

    def children_of(self, name: str) -> Tuple[str, ...]:
        """Child node names of ``name``."""
        return self.nodes[name].children

    def parent_of(self, name: str) -> Optional[str]:
        """Parent node name of ``name`` (``None`` for the root)."""
        return self.nodes[name].parent

    def subtree_size(self, name: str) -> int:
        """``|T_e|`` for node ``name``."""
        return self.nodes[name].subtree_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for name in self._order:
            node = self.nodes[name]
            parts.append(f"{name}->{node.parent}" if node.parent else f"{name}(root)")
        return f"RootedJoinTree({', '.join(parts)})"
