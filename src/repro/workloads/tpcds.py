"""A synthetic TPC-DS-like workload and the paper's QX / QY / QZ queries.

The paper runs QX, QY and QZ (taken from Zhao et al. [31]) on data produced
by the official TPC-DS generator.  ``dsdgen`` is not available offline, so
:func:`generate` creates synthetic tables with the same schemas, key /
foreign-key structure and scale-factor-proportional cardinalities, with
Zipf-skewed foreign keys so that the many-to-many joins (income band, item
category) exhibit the fan-out that stresses the samplers.

Column names are rewritten so that each query is a pure *natural* join: two
relations join exactly on their shared attribute names, which is how
:class:`~repro.relational.query.JoinQuery` expresses join conditions.
Non-join payload columns are kept so the grouping optimisation of
Section 4.4 has something to group away.

Each ``*_workload`` function returns ``(query, stream)`` where the stream
pre-loads the dimension tables and then streams the (shuffled) fact tables,
matching the experimental setup of Section 6.1.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..relational.query import JoinQuery
from ..relational.stream import StreamTuple, concatenate, stream_from_rows


# ---------------------------------------------------------------------- #
# Synthetic data
# ---------------------------------------------------------------------- #
@dataclass
class TPCDSData:
    """Raw synthetic tables (column layouts documented per attribute)."""

    scale_factor: float
    #: (d_date_sk,)
    date_dim: List[Tuple] = field(default_factory=list)
    #: (hd_demo_sk, hd_income_band_sk)
    household_demographics: List[Tuple] = field(default_factory=list)
    #: (c_customer_sk, c_current_hdemo_sk)
    customer: List[Tuple] = field(default_factory=list)
    #: (i_item_sk, i_category_id)
    item: List[Tuple] = field(default_factory=list)
    #: (ss_item_sk, ss_ticket_number, ss_customer_sk, ss_sold_date_sk)
    store_sales: List[Tuple] = field(default_factory=list)
    #: (sr_item_sk, sr_ticket_number, sr_customer_sk)
    store_returns: List[Tuple] = field(default_factory=list)
    #: (cs_bill_customer_sk, cs_sold_date_sk)
    catalog_sales: List[Tuple] = field(default_factory=list)


class _Skewed:
    """Zipf-skewed sampling from a finite domain of keys."""

    def __init__(self, keys: Sequence, skew: float, rng: random.Random) -> None:
        self._keys = list(keys)
        self._rng = rng
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(len(self._keys)):
            total += 1.0 / (rank + 1) ** skew
            self._cumulative.append(total)
        self._total = total

    def draw(self):
        index = bisect.bisect_left(self._cumulative, self._rng.random() * self._total)
        return self._keys[min(index, len(self._keys) - 1)]


def generate(scale_factor: float, rng: random.Random) -> TPCDSData:
    """Generate a synthetic TPC-DS-like dataset at the given scale factor.

    Cardinalities are proportional to ``scale_factor`` with the same
    dimension/fact ratios the real benchmark has (dimension tables small and
    nearly scale-independent, fact tables dominating).
    """
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    data = TPCDSData(scale_factor=scale_factor)
    n_dates = 120
    n_income_bands = 20
    n_demographics = max(40, int(60 * min(scale_factor, 4)))
    n_customers = max(50, int(400 * scale_factor))
    n_items = max(30, int(150 * scale_factor))
    n_categories = 12
    n_sales = max(100, int(1500 * scale_factor))
    n_catalog = max(50, int(700 * scale_factor))

    data.date_dim = [(date_sk,) for date_sk in range(1, n_dates + 1)]
    data.household_demographics = [
        (demo_sk, rng.randrange(1, n_income_bands + 1))
        for demo_sk in range(1, n_demographics + 1)
    ]
    demo_pick = _Skewed([row[0] for row in data.household_demographics], 1.0, rng)
    data.customer = [
        (customer_sk, demo_pick.draw()) for customer_sk in range(1, n_customers + 1)
    ]
    data.item = [
        (item_sk, rng.randrange(1, n_categories + 1)) for item_sk in range(1, n_items + 1)
    ]
    customer_pick = _Skewed([row[0] for row in data.customer], 0.8, rng)
    item_pick = _Skewed([row[0] for row in data.item], 0.8, rng)
    date_pick = _Skewed([row[0] for row in data.date_dim], 0.5, rng)
    for ticket in range(1, n_sales + 1):
        data.store_sales.append(
            (item_pick.draw(), ticket, customer_pick.draw(), date_pick.draw())
        )
    # Roughly 10% of sales are returned (same item + ticket identify the sale).
    for sale in data.store_sales:
        if rng.random() < 0.10:
            data.store_returns.append((sale[0], sale[1], sale[2]))
    seen_catalog = set()
    while len(seen_catalog) < n_catalog:
        seen_catalog.add((customer_pick.draw(), date_pick.draw()))
    data.catalog_sales = list(seen_catalog)
    return data


# ---------------------------------------------------------------------- #
# Query builders
# ---------------------------------------------------------------------- #
def qx_query() -> JoinQuery:
    """QX: store_sales ⋈ store_returns ⋈ catalog_sales ⋈ date_dim × 2."""
    return JoinQuery.from_spec(
        "QX",
        {
            "store_sales": ["item_sk", "ticket_number", "ss_customer_sk", "ss_date_sk"],
            "store_returns": ["item_sk", "ticket_number", "ret_customer_sk"],
            "catalog_sales": ["ret_customer_sk", "cs_date_sk"],
            "date_dim1": ["ss_date_sk"],
            "date_dim2": ["cs_date_sk"],
        },
        keys={"date_dim1": ["ss_date_sk"], "date_dim2": ["cs_date_sk"]},
    )


def qy_query() -> JoinQuery:
    """QY: store_sales ⋈ customer ⋈ demographics ⋈ demographics ⋈ customer."""
    return JoinQuery.from_spec(
        "QY",
        {
            "store_sales": ["c1_id", "ss_item_sk", "ss_ticket"],
            "customer1": ["c1_id", "d1_id"],
            "demographics1": ["d1_id", "income_band"],
            "demographics2": ["d2_id", "income_band"],
            "customer2": ["c2_id", "d2_id"],
        },
        keys={
            "customer1": ["c1_id"],
            "demographics1": ["d1_id"],
            "demographics2": ["d2_id"],
            "customer2": ["c2_id"],
        },
    )


def qz_query() -> JoinQuery:
    """QZ: QY extended with a self-join of item through the category id."""
    return JoinQuery.from_spec(
        "QZ",
        {
            "store_sales": ["c1_id", "i1_id", "ss_ticket"],
            "customer1": ["c1_id", "d1_id"],
            "demographics1": ["d1_id", "income_band"],
            "demographics2": ["d2_id", "income_band"],
            "customer2": ["c2_id", "d2_id"],
            "item1": ["i1_id", "category_id"],
            "item2": ["i2_id", "category_id"],
        },
        keys={
            "customer1": ["c1_id"],
            "demographics1": ["d1_id"],
            "demographics2": ["d2_id"],
            "customer2": ["c2_id"],
            "item1": ["i1_id"],
            "item2": ["i2_id"],
        },
    )


# ---------------------------------------------------------------------- #
# Workload builders (query + stream)
# ---------------------------------------------------------------------- #
def _preload_then_stream(
    preload: List[List[StreamTuple]],
    facts: List[List[StreamTuple]],
    rng: random.Random,
) -> List[StreamTuple]:
    fact_rows: List[StreamTuple] = []
    for stream in facts:
        fact_rows.extend(stream)
    rng.shuffle(fact_rows)
    return concatenate(preload + [fact_rows])


def qx_workload(data: TPCDSData, rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """QX over the synthetic dataset: dimensions pre-loaded, facts streamed."""
    query = qx_query()
    dates = sorted({row[3] for row in data.store_sales} | {row[1] for row in data.catalog_sales})
    preload = [
        stream_from_rows("date_dim1", [(d,) for d in dates]),
        stream_from_rows("date_dim2", [(d,) for d in dates]),
    ]
    facts = [
        stream_from_rows(
            "store_sales",
            [(item, ticket, cust, date) for item, ticket, cust, date in data.store_sales],
        ),
        stream_from_rows("store_returns", list(data.store_returns)),
        stream_from_rows("catalog_sales", list(data.catalog_sales)),
    ]
    return query, _preload_then_stream(preload, facts, rng)


def qy_workload(data: TPCDSData, rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """QY over the synthetic dataset."""
    query = qy_query()
    preload = [
        stream_from_rows("customer1", list(data.customer)),
        stream_from_rows("customer2", list(data.customer)),
        stream_from_rows("demographics1", list(data.household_demographics)),
        stream_from_rows("demographics2", list(data.household_demographics)),
    ]
    facts = [
        stream_from_rows(
            "store_sales",
            [(cust, item, ticket) for item, ticket, cust, _ in data.store_sales],
        ),
    ]
    return query, _preload_then_stream(preload, facts, rng)


def qz_workload(data: TPCDSData, rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """QZ over the synthetic dataset."""
    query = qz_query()
    preload = [
        stream_from_rows("customer1", list(data.customer)),
        stream_from_rows("customer2", list(data.customer)),
        stream_from_rows("demographics1", list(data.household_demographics)),
        stream_from_rows("demographics2", list(data.household_demographics)),
        stream_from_rows("item1", list(data.item)),
        stream_from_rows("item2", list(data.item)),
    ]
    facts = [
        stream_from_rows(
            "store_sales",
            [(cust, item, ticket) for item, ticket, cust, _ in data.store_sales],
        ),
    ]
    return query, _preload_then_stream(preload, facts, rng)


WORKLOADS = {
    "QX": qx_workload,
    "QY": qy_workload,
    "QZ": qz_workload,
}
