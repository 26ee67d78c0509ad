"""The assembled machine: nodes + network + topology + noise models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.failures import FailureModel, StragglerModel
from repro.cluster.knl import IOModel, KNLNodeModel, SolverOverheadModel
from repro.cluster.network import AriesNetwork
from repro.cluster.topology import CORI_NODES, DragonflyTopology
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike


@dataclass
class CoriMachine:
    """Everything the trainer simulators need to know about the machine."""

    n_nodes: int = CORI_NODES
    node: KNLNodeModel = field(default_factory=KNLNodeModel)
    network: AriesNetwork = field(default_factory=AriesNetwork)
    topology: DragonflyTopology = field(default_factory=DragonflyTopology)
    stragglers: StragglerModel = field(default_factory=StragglerModel)
    failures: FailureModel = field(default_factory=FailureModel)
    solver_overhead: SolverOverheadModel = field(
        default_factory=SolverOverheadModel)
    io: IOModel = field(default_factory=IOModel)

    def __post_init__(self) -> None:
        self.n_nodes = require_count("n_nodes", self.n_nodes)
        if self.topology.n_nodes != self.n_nodes:
            self.topology = DragonflyTopology(
                self.n_nodes, self.topology.group_size)

    @property
    def peak_flops(self) -> float:
        """Aggregate sustained-clock peak of the whole machine."""
        return self.n_nodes * self.node.peak_flops


def cori(seed: SeedLike = None, n_nodes: int = CORI_NODES,
         jitter: bool = True, endpoint_factor: float = 1.0) -> CoriMachine:
    """Factory for the Cori Phase II model used throughout the benchmarks.

    ``jitter=False`` produces the deterministic machine (useful in tests);
    ``endpoint_factor > 1`` enables the MLSL endpoint-proxy bandwidth boost.
    """
    from repro.utils.rng import spawn_rngs

    rngs = spawn_rngs(seed, 3)
    network = AriesNetwork(seed=rngs[0])
    if endpoint_factor != 1.0:
        network = network.with_endpoints(endpoint_factor)
    if not jitter:
        network.jitter_sigma0 = 0.0
        network.jitter_scale = 0.0
    stragglers = StragglerModel(seed=rngs[1]) if jitter else StragglerModel(
        sigma_node=0.0, sigma_iter=0.0, seed=rngs[1])
    failures = FailureModel(seed=rngs[2])
    return CoriMachine(n_nodes=n_nodes, network=network,
                       stragglers=stragglers, failures=failures)
