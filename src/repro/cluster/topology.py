"""Dragonfly topology and node placement (paper Fig 3).

Cori's Aries network arranges nodes into *electrical groups* wired all-to-all
by optical links. The paper's ideal placement puts each compute group inside
one electrical group (cheap intra-group all-reduce) with parameter servers
reachable over the optical fabric. Placement quality enters the simulation as
a latency/bandwidth multiplier on inter-group traffic: a compute group
scattered across electrical groups pays global-link costs for its all-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.checks import require_count

#: Cori Phase II: 9688 nodes (paper SIV); Aries groups hold 384 nodes
#: (2 cabinets x 192).
CORI_NODES = 9688
NODES_PER_ELECTRICAL_GROUP = 384


@dataclass(frozen=True)
class Placement:
    """Assignment of worker nodes to compute groups and PS nodes.

    ``group_nodes[g]`` lists node ids of compute group ``g``;
    ``ps_nodes`` lists the dedicated parameter-server node ids
    (one PS *node* can host several per-layer PSs).
    """

    group_nodes: Tuple[Tuple[int, ...], ...]
    ps_nodes: Tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.group_nodes)

    @property
    def n_workers(self) -> int:
        return sum(len(g) for g in self.group_nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_workers + len(self.ps_nodes)

    def validate(self) -> None:
        all_ids = [n for g in self.group_nodes for n in g] + list(self.ps_nodes)
        if len(set(all_ids)) != len(all_ids):
            raise ValueError("placement assigns a node to two roles")


class DragonflyTopology:
    """Electrical-group structure + placement construction and scoring."""

    def __init__(self, n_nodes: int = CORI_NODES,
                 group_size: int = NODES_PER_ELECTRICAL_GROUP) -> None:
        self.n_nodes = require_count("n_nodes", n_nodes)
        self.group_size = require_count("group_size", group_size)

    @property
    def n_electrical_groups(self) -> int:
        return -(-self.n_nodes // self.group_size)

    def electrical_group(self, node_id: int) -> int:
        if require_count("node_id", node_id, least=0) >= self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range")
        return node_id // self.group_size

    # -- placement -----------------------------------------------------------
    def place(self, n_workers: int, n_groups: int, n_ps: int = 0,
              compact: bool = True,
              rng: "np.random.Generator | None" = None) -> Placement:
        """Build a placement of ``n_workers`` workers in ``n_groups`` compute
        groups plus ``n_ps`` PS nodes.

        ``compact=True`` packs each compute group into contiguous node ids
        (the Fig 3 ideal); ``compact=False`` scatters nodes randomly across
        the machine (what an unlucky batch-queue allocation looks like).
        """
        require_count("n_groups", n_groups)
        require_count("n_workers", n_workers)
        require_count("n_ps", n_ps, least=0)
        if n_workers < n_groups:
            raise ValueError(
                f"need at least one worker per group: {n_workers} < {n_groups}")
        if n_workers + n_ps > self.n_nodes:
            raise ValueError(
                f"requested {n_workers + n_ps} nodes > machine size "
                f"{self.n_nodes}")
        ids = np.arange(self.n_nodes)
        if not compact:
            if rng is None:
                rng = np.random.default_rng(0)
            ids = rng.permutation(ids)
        chosen = ids[:n_workers + n_ps]
        ps_nodes = tuple(int(i) for i in chosen[:n_ps])
        workers = chosen[n_ps:]
        # Split workers into groups as evenly as possible (paper splits 9594
        # nodes into 9 groups of 1066).
        base = n_workers // n_groups
        extra = n_workers % n_groups
        groups: List[Tuple[int, ...]] = []
        pos = 0
        for g in range(n_groups):
            size = base + (1 if g < extra else 0)
            groups.append(tuple(int(i) for i in workers[pos:pos + size]))
            pos += size
        placement = Placement(tuple(groups), ps_nodes)
        placement.validate()
        return placement

    # -- scoring -------------------------------------------------------------
    def spread(self, nodes: Sequence[int]) -> int:
        """Number of electrical groups a node set touches."""
        return len({self.electrical_group(n) for n in nodes})

    def allreduce_penalty(self, nodes: Sequence[int]) -> float:
        """Multiplier on intra-group collective cost from placement quality.

        1.0 when the set fits one electrical group; grows ~15 % per extra
        electrical group crossed (optical-link contention), saturating at 2x.
        """
        if not nodes:
            return 1.0
        crossings = self.spread(nodes) - 1
        return min(2.0, 1.0 + 0.15 * crossings)

    def ps_penalty(self, worker_nodes: Sequence[int],
                   ps_nodes: Sequence[int]) -> float:
        """Multiplier on root<->PS exchange cost.

        Mild (the PS traffic crosses the optical fabric regardless): 1.0 when
        PSs sit in their own electrical group, up to 1.3 when PSs share
        electrical groups with workers (contending for the same routers).
        """
        if not ps_nodes:
            return 1.0
        worker_groups = {self.electrical_group(n) for n in worker_nodes}
        ps_groups = {self.electrical_group(n) for n in ps_nodes}
        overlap = len(worker_groups & ps_groups)
        return 1.0 + 0.3 * (overlap / max(1, len(ps_groups)))
