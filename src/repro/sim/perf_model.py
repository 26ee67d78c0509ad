"""Single-node iteration decomposition — the model behind Fig 5.

For a given workload and local minibatch, produce per-layer times and FLOP
rates on one KNL node plus the non-FLOP components the paper calls out:
the solver update (12.5 % of HEP runtime — ADAM history copies) and the
input pipeline (13 % of climate runtime — single-core non-threaded HDF5).

Also models the MCDRAM-capacity effect: when the working set exceeds the
16 GiB MCDRAM cache, the node falls back to DDR bandwidth and the achieved
rate drops — this is what makes the single-node batch-2048 strong-scaling
baseline realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.knl import IOModel, KNLNodeModel, SolverOverheadModel
from repro.flops.counter import LayerFlops
from repro.sim.workload import Workload

#: MCDRAM capacity (paper SIV: 16 GiB on-package memory in cache mode)
MCDRAM_BYTES = 16 * 1024**3
#: effective capacity before cache thrash sets in
MCDRAM_USABLE = 0.6 * MCDRAM_BYTES
#: rate multiplier once the working set spills to DDR4 (~90 GB/s vs ~450 GB/s,
#: partially hidden by cache-mode reuse)
DDR_SPILL_FACTOR = 0.45
#: minibatch beyond which a node processes in accumulated micro-batches
#: (Caffe iter_size): efficiency and working set saturate at this size
MICRO_BATCH = 32


@dataclass
class LayerTime:
    name: str
    kind: str
    seconds: float
    flops: int

    @property
    def rate(self) -> float:
        return self.flops / self.seconds if self.seconds > 0 else 0.0


@dataclass
class SingleNodePerf:
    """Single-node iteration breakdown for one workload at one batch size."""

    workload: Workload
    batch: int
    node: KNLNodeModel = field(default_factory=KNLNodeModel)
    solver_model: SolverOverheadModel = field(
        default_factory=SolverOverheadModel)
    io_model: IOModel = field(default_factory=IOModel)
    training: bool = True

    def __post_init__(self) -> None:
        self._report = self.workload.report(self.batch)
        # Large local batches run as accumulated micro-batches (Caffe
        # iter_size). A tuned implementation picks the micro-batch that
        # maximizes per-image throughput: larger micro-batches raise kernel
        # efficiency but can spill the activation working set out of MCDRAM.
        self._micro = self._best_micro_batch()
        self._n_micro = -(-self.batch // self._micro)
        self._micro_report = self.workload.report(self._micro)

    def _penalty_for(self, micro: int) -> float:
        acts = self.workload.activation_bytes(micro)
        ws = 2 * acts + 4 * self.workload.model_bytes
        if ws <= MCDRAM_USABLE:
            return 1.0
        overflow = min(1.0, (ws - MCDRAM_USABLE) / MCDRAM_USABLE)
        return 1.0 - (1.0 - DDR_SPILL_FACTOR) * overflow

    def _best_micro_batch(self) -> int:
        cap = min(self.batch, MICRO_BATCH)
        candidates = [b for b in (1, 2, 4, 8, 16, 32) if b <= cap]
        if cap not in candidates:
            candidates.append(cap)
        h = self.node.batch_half

        def throughput_proxy(b: int) -> float:
            batch_term = b * b / (b * b + h * h)
            return batch_term * self._penalty_for(b)

        return max(candidates, key=throughput_proxy)

    # -- memory ---------------------------------------------------------------
    def working_set_bytes(self) -> int:
        """Forward + backward activations + weights + solver history (for
        one micro-batch — activations are reused across micro-batches)."""
        acts = self.workload.activation_bytes(self._micro)
        weights = self.workload.model_bytes
        history = 3 * weights  # grad + (m, v) or velocity
        return 2 * acts + weights + history

    def memory_penalty(self) -> float:
        """Rate multiplier: 1.0 in MCDRAM, DDR_SPILL_FACTOR when far beyond."""
        return self._penalty_for(self._micro)

    # -- components -------------------------------------------------------------
    def layer_times(self) -> List[LayerTime]:
        penalty = self.memory_penalty()
        out: List[LayerTime] = []
        for rec, full in zip(self._micro_report.layers, self._report.layers):
            t = self.node.layer_time(rec, self._micro, self.training)
            t = t * self._n_micro / penalty
            flops = (full.training_flops if self.training
                     else full.forward_flops)
            out.append(LayerTime(rec.name, rec.kind, t, flops))
        return out

    def compute_time(self) -> float:
        return sum(lt.seconds for lt in self.layer_times())

    def solver_time(self) -> float:
        n_params = self.workload.model_bytes // 4
        return self.solver_model.time(n_params,
                                      self.workload.n_trainable_layers,
                                      self.workload.solver)

    def io_time(self) -> float:
        return self.io_model.time(self.workload.input_bytes(self.batch))

    def iteration_time(self) -> float:
        return self.compute_time() + self.solver_time() + self.io_time()

    # -- summary ------------------------------------------------------------
    def flop_rate(self, include_overheads: bool = True) -> float:
        """Achieved FLOP/s. ``include_overheads=False`` gives the kernel-only
        rate; the paper's 1.90 / 2.09 TF/s are whole-iteration rates."""
        flops = (self._report.training_flops if self.training
                 else self._report.forward_flops)
        t = self.iteration_time() if include_overheads else self.compute_time()
        return flops / t if t > 0 else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Component times, Fig 5 style."""
        comp: Dict[str, float] = {}
        for lt in self.layer_times():
            comp[lt.name] = lt.seconds
        comp["solver_update"] = self.solver_time()
        comp["io"] = self.io_time()
        return comp

    def fraction(self, component: str) -> float:
        """Fraction of iteration time in a named component."""
        bd = self.breakdown()
        if component not in bd:
            raise KeyError(f"unknown component {component!r}; "
                           f"have {sorted(bd)}")
        total = sum(bd.values())
        return bd[component] / total if total > 0 else 0.0

    def table(self) -> str:
        rows = [f"{'component':22s} {'time (ms)':>10s} {'TFLOP/s':>9s} "
                f"{'% iter':>7s}"]
        total = self.iteration_time()
        for lt in self.layer_times():
            rows.append(f"{lt.name:22s} {lt.seconds * 1e3:>10.2f} "
                        f"{lt.rate / 1e12:>9.2f} "
                        f"{100 * lt.seconds / total:>6.1f}%")
        for nm, t in (("solver_update", self.solver_time()),
                      ("io", self.io_time())):
            rows.append(f"{nm:22s} {t * 1e3:>10.2f} {'':>9s} "
                        f"{100 * t / total:>6.1f}%")
        rows.append(f"{'TOTAL':22s} {total * 1e3:>10.2f} "
                    f"{self.flop_rate() / 1e12:>9.2f}")
        return "\n".join(rows)
