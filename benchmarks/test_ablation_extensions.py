"""Ablations of the extension modules (paper SIII-D, SIV, SVIII-B, SIX).

Each benchmark quantifies a design decision the paper makes by fiat:

- **no BatchNorm** (SI): what per-iteration sync cost would BN add at scale?
- **data over model parallelism** (SIII-D): byte traffic of both, per layer,
  for the paper's two networks — and the regime where the choice flips;
- **quad-cache MCDRAM** (SIV): memory-bound layer time in cache vs flat vs
  DDR-only modes;
- **Winograd** (SVIII-A): the multiply reduction actually realized for the
  HEP network's 3x3 stacks;
- **gradient compression** (SVIII-B): bandwidth saved vs convergence kept
  on a real training run;
- **YellowFin** (SVIII-B ref [48]): closed-loop momentum tuning vs the
  paper's grid, at equal budget.
"""

import numpy as np
import pytest

from bench_report import report
from repro.cluster.knl import KNLNodeModel
from repro.cluster.mcdram import (
    GIB,
    MCDRAMConfig,
    activation_working_set,
    node_with_memory_mode,
)
from repro.comm.model_parallel import (
    data_parallel_grad_bytes,
    model_parallel_activation_bytes,
)
from repro.data.hep import make_hep_dataset
from repro.distributed.flatten import flatten_grads, unflatten_into
from repro.flops.counter import count_net
from repro.models import build_hep_net
from repro.nn import BatchNorm2D, WinogradConv2D
from repro.optim import (
    SGD,
    ErrorFeedbackCompressor,
    YellowFin,
    compressed_allreduce,
    tune_momentum_for_groups,
)
from repro.train.loop import hep_loss_fn, step


# ---------------------------------------------------------------------------
# BatchNorm scalability cost (paper SI: "not use layers ... such as batch
# normalization")
# ---------------------------------------------------------------------------
def test_batchnorm_sync_cost(benchmark, machine, hep_wl):
    """Adding a synchronized BN after each conv adds 2 sync points and a
    2C-float all-reduce per layer per iteration — at 1024 nodes that is a
    measurable fraction of the HEP iteration, for zero model-size increase.
    """
    n_nodes = 1024

    def cost():
        bn_layers = [BatchNorm2D(128) for _ in range(5)]
        extra_points = sum(bn.extra_sync_points() for bn in bn_layers)
        extra_bytes = sum(bn.sync_stat_bytes() for bn in bn_layers)
        # Arrival-spread absorption per extra sync point (SVI-B2 mechanism):
        from repro.sim.sampling import expected_max_std_normal
        from repro.sim.sync_sim import OS_JITTER
        jitter = extra_points * OS_JITTER * expected_max_std_normal(n_nodes)
        reduce_t = sum(
            machine.network.allreduce(bn.sync_stat_bytes(), n_nodes)
            for bn in bn_layers) * 2  # fwd stats + bwd stat-grads
        return extra_points, extra_bytes, jitter + reduce_t

    points, nbytes, seconds = benchmark.pedantic(cost, rounds=1, iterations=1)
    base_iter = 0.106  # paper SVI-B3: ~106 ms HEP iteration at scale
    report("Ablation: the BatchNorm the paper avoided (HEP, 1K nodes)", [
        ("extra sync points per iteration", "0 (by design)", str(points)),
        ("extra all-reduce bytes per iteration", "0 (by design)",
         f"{nbytes}"),
        ("extra time per iteration", "0 (by design)",
         f"{seconds * 1e3:.2f} ms"),
        ("fraction of the 106 ms paper iteration", "--",
         f"{seconds / base_iter * 100:.1f}%"),
    ])
    assert points == 10
    # The cost is real (>1% of the iteration) — the paper's choice to omit
    # BN at scale is measurable, not cosmetic.
    assert seconds / base_iter > 0.01


# ---------------------------------------------------------------------------
# Data vs model parallelism (paper SIII-D)
# ---------------------------------------------------------------------------
def test_parallelism_choice_per_layer(benchmark, hep_wl, climate_wl):
    """Per-layer byte traffic of data vs model parallelism for both paper
    networks: data parallelism wins every layer of both (the paper's
    'we only use data parallelism' is the measured optimum), and the
    crossover only appears for dense layers far larger than either net has.
    """
    p, batch = 64, 8

    def tally(wl):
        rows = []
        for rec in wl.trainable_records():
            n_in = int(np.prod(rec.input_shape))
            n_out = int(np.prod(rec.output_shape))
            dp = data_parallel_grad_bytes(4 * rec.params, p)
            # Sharding this layer means gathering its output activations and
            # reducing its input gradient every iteration.
            mp = ((p - 1) / p * batch * n_out * 4
                  + 2 * (p - 1) / p * batch * n_in * 4)
            rows.append((rec.name, dp, mp))
        return rows

    def sweep():
        return tally(hep_wl), tally(climate_wl)

    hep_rows, climate_rows = benchmark.pedantic(sweep, rounds=1,
                                                iterations=1)
    dp_wins = sum(dp < mp for _n, dp, mp in hep_rows + climate_rows)
    total = len(hep_rows) + len(climate_rows)
    # The flip regime: a hypothetical 16k x 16k dense head.
    dp_huge = data_parallel_grad_bytes(4 * 16384 * 16384, p)
    mp_huge = model_parallel_activation_bytes(batch, 16384, 16384, p)
    report("Ablation: data vs model parallelism (64 nodes, batch 8)", [
        ("layers where data parallelism wins", "all (paper's choice)",
         f"{dp_wins}/{total}"),
        ("HEP conv1: DP vs MP bytes/rank", "DP smaller",
         f"{hep_rows[0][1] / 1e3:.0f} kB vs {hep_rows[0][2] / 1e3:.0f} kB"),
        ("hypothetical 16k^2 dense: DP vs MP", "MP smaller",
         f"{dp_huge / 1e6:.0f} MB vs {mp_huge / 1e6:.1f} MB"),
    ])
    assert dp_wins == total
    assert mp_huge < dp_huge


# ---------------------------------------------------------------------------
# MCDRAM memory modes (paper SIV)
# ---------------------------------------------------------------------------
def test_mcdram_memory_modes(benchmark):
    """Memory-bound layer time of the HEP net per MCDRAM mode. Everything
    fits in 16 GiB at batch 8, so quad-cache (the paper's mode) is within a
    hair of hand-placed flat mode and far ahead of DDR-only."""
    cfg = MCDRAMConfig()
    node = KNLNodeModel()
    net = build_hep_net(rng=0)
    flop_report = count_net(net, (3, 224, 224), batch=8)
    ws = activation_working_set(flop_report)

    def times():
        out = {}
        for mode in ("cache", "flat", "ddr"):
            n = node_with_memory_mode(node, cfg, ws, mode)
            out[mode] = n.compute_time(flop_report)
        return out

    t = benchmark.pedantic(times, rounds=1, iterations=1)
    report("Ablation: MCDRAM modes (HEP net, batch 8)", [
        ("working set", "fits 16 GiB MCDRAM", f"{ws / GIB:.2f} GiB"),
        ("iteration compute, quad-cache (paper)", "baseline",
         f"{t['cache'] * 1e3:.1f} ms"),
        ("iteration compute, flat (hand-placed)", "~= cache",
         f"{t['flat'] * 1e3:.1f} ms"),
        ("iteration compute, DDR-only", "slower",
         f"{t['ddr'] * 1e3:.1f} ms"),
    ])
    assert ws < cfg.mcdram_bytes
    assert t["flat"] <= t["cache"] < t["ddr"]
    # Fitting working set: the cache/flat gap is small (tag-check only).
    assert (t["cache"] - t["flat"]) / t["flat"] < 0.25


# ---------------------------------------------------------------------------
# Winograd on the HEP conv stack (paper SVIII-A)
# ---------------------------------------------------------------------------
def test_winograd_multiply_reduction(benchmark):
    """F(2x2, 3x3) multiply reduction for each HEP conv layer, plus a live
    numerical-agreement check against the im2col path."""
    rng = np.random.default_rng(0)

    def measure():
        reductions = []
        spatial = 32
        for cin in (3, 16, 16):
            layer = WinogradConv2D(cin, 16, pad=1, rng=1)
            reductions.append(
                layer.multiply_reduction(8, (cin, spatial, spatial)))
            spatial //= 2
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        wino = WinogradConv2D(3, 8, pad=1, rng=2)
        from repro.nn import Conv2D
        direct = Conv2D(3, 8, 3, pad=1, rng=2)
        direct.weight.data[...] = wino.weight.data
        direct.bias.data[...] = wino.bias.data
        err = float(np.max(np.abs(wino.forward(x) - direct.forward(x))))
        return reductions, err

    reductions, err = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("Future work: Winograd F(2x2,3x3) on HEP convs", [
        ("multiply reduction, even tiles", "2.25x",
         f"{reductions[0]:.2f}x"),
        ("max |winograd - direct| (fp32)", "~1e-5",
         f"{err:.2e}"),
    ])
    for r in reductions:
        assert r == pytest.approx(2.25, abs=0.01)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# Gradient compression (paper SVIII-B)
# ---------------------------------------------------------------------------
def test_gradient_compression_tradeoff(benchmark):
    """'Communicating high-order bits of weight updates': top-k with error
    feedback on a real (small) HEP training run — bandwidth saved vs
    final-loss degradation."""
    ds = make_hep_dataset(400, image_size=32, signal_fraction=0.5, seed=3)
    p = 4

    def train(k_fraction):
        net = build_hep_net(filters=8, rng=5)
        opt = SGD(net.params(), lr=5e-2, momentum=0.9)
        comps = ([ErrorFeedbackCompressor("topk", k_fraction)
                  for _ in range(p)] if k_fraction else None)
        rng = np.random.default_rng(0)
        losses = []
        for _ in range(40):
            grads = []
            loss_acc = 0.0
            for r in range(p):
                idx = rng.choice(len(ds.images), size=16, replace=False)
                loss = step(net, hep_loss_fn, ds.images[idx], ds.labels[idx])
                grads.append(flatten_grads(net.params()).copy())
                loss_acc += loss / p
            if comps is None:
                mean = np.mean(grads, axis=0).astype(np.float32)
                wire = None
            else:
                mean, wire = compressed_allreduce(grads, comps)
            unflatten_into(mean, net.params(), target="grad")
            opt.step()
            losses.append(loss_acc)
        saving = comps[0].bandwidth_saving if comps else 1.0
        return float(np.mean(losses[-8:])), saving

    def sweep():
        return {
            "dense": train(None),
            "top-10%": train(0.10),
            "top-1%": train(0.01),
        }

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Future work: gradient compression (HEP, 4 ranks)", [
        ("dense final loss", "baseline", f"{out['dense'][0]:.3f}"),
        ("top-10% final loss / bandwidth", "~dense / ~5x",
         f"{out['top-10%'][0]:.3f} / {out['top-10%'][1]:.1f}x"),
        ("top-1% final loss / bandwidth", "degrades / ~50x",
         f"{out['top-1%'][0]:.3f} / {out['top-1%'][1]:.1f}x"),
    ])
    # 10% compression must stay close to dense convergence...
    assert out["top-10%"][0] < out["dense"][0] + 0.15
    # ...while saving ~5x bandwidth (8B per kept entry vs 4B dense).
    assert out["top-10%"][1] == pytest.approx(5.0, rel=0.05)
    assert out["top-1%"][1] == pytest.approx(50.0, rel=0.05)


# ---------------------------------------------------------------------------
# YellowFin vs the paper's momentum grid (paper SVIII-B, ref [48])
# ---------------------------------------------------------------------------
def test_yellowfin_vs_momentum_grid(benchmark):
    """The paper hand-tunes momentum per group count on {0, 0.4, 0.7}. The
    closed-loop tuner should reach a comparable loss on the same budget
    with NO grid — one run instead of |grid| runs."""
    ds = make_hep_dataset(400, image_size=32, signal_fraction=0.5, seed=4)

    def train(opt_factory, n_iterations=60):
        net = build_hep_net(filters=8, rng=6)
        opt = opt_factory(net)
        rng = np.random.default_rng(1)
        losses = []
        for _ in range(n_iterations):
            idx = rng.choice(len(ds.images), size=32, replace=False)
            losses.append(step(net, hep_loss_fn, ds.images[idx],
                               ds.labels[idx]))
            opt.step()
        return float(np.mean(losses[-10:]))

    def sweep():
        grid_losses = {
            mu: train(lambda n, m=mu: SGD(n.params(), lr=5e-2, momentum=m))
            for mu in (0.0, 0.4, 0.7)
        }
        # lr_max plays the role of the official implementation's clip_thresh:
        # the ||g||^2 curvature proxy underestimates h on small CNNs, so the
        # raw SingleStep lr overshoots the stable regime.
        yf_loss = train(lambda n: YellowFin(n.params(), lr=1e-2,
                                            lr_max=0.05))
        return grid_losses, yf_loss

    grid_losses, yf_loss = benchmark.pedantic(sweep, rounds=1, iterations=1)
    best_mu, best_grid = min(grid_losses.items(), key=lambda kv: kv[1])
    report("Future work: YellowFin vs the Fig 8 momentum grid", [
        ("best grid point (3 runs)", "mu in {0,.4,.7}",
         f"mu={best_mu} -> loss {best_grid:.3f}"),
        ("YellowFin (1 run)", "comparable", f"loss {yf_loss:.3f}"),
    ])
    # One closed-loop run lands within reach of the 3-run grid's best.
    assert yf_loss < best_grid + 0.1


# ---------------------------------------------------------------------------
# SSP: the protocol between the paper's two poles (SII-B2)
# ---------------------------------------------------------------------------
def test_ssp_staleness_wait_tradeoff(benchmark):
    """Bounded staleness trades blocked time for gradient freshness. The
    paper picks unbounded asynchrony + momentum tuning; this ablation shows
    the curve that choice sits on: tight bounds re-introduce the straggler
    stall the hybrid design removes."""
    from repro.distributed import SSPTrainer
    from repro.optim import Adam

    ds = make_hep_dataset(200, image_size=16, signal_fraction=0.5, seed=2)

    def sweep():
        out = {}
        for bound in (0, 1, 2, 100):
            trainer = SSPTrainer(
                lambda: build_hep_net(filters=4, rng=3),
                lambda params: Adam(params, lr=1e-3),
                hep_loss_fn, n_groups=4, bound=bound,
                iteration_time_fn=lambda g: 1.0, seed=1)
            res = trainer.run(ds.images, ds.labels, group_batch=8,
                              n_iterations=8, drift=[1.0, 1.0, 1.0, 4.0])
            out[bound] = (int(res.staleness.max()), res.total_wait)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(f"bound={b}: max staleness / blocked time",
             "stale up, wait down",
             f"{s} / {w:.1f}s") for b, (s, w) in out.items()]
    report("Ablation: stale-synchronous parallel between sync and async",
           rows)
    waits = [out[b][1] for b in (0, 1, 2, 100)]
    stales = [out[b][0] for b in (0, 1, 2, 100)]
    assert waits[0] > 0 and waits[-1] == 0.0
    assert all(a >= b for a, b in zip(waits, waits[1:]))
    # The worst-case gradient age grows as the bound loosens.
    assert all(a <= b for a, b in zip(stales, stales[1:]))
    assert stales[0] <= 3  # lock-step: at most G-1 interleaved updates


# ---------------------------------------------------------------------------
# Roofline: the Fig 5 decomposition from first principles (SVI-A)
# ---------------------------------------------------------------------------
def test_roofline_fig5_decomposition(benchmark):
    """Fig 5's split — convs at 1.25-3.5 TF/s, everything else bandwidth-
    bound — recovered from arithmetic intensity alone."""
    from repro.flops.counter import count_net
    from repro.flops.roofline import (bound_fractions, machine_balance,
                                      roofline)

    node = KNLNodeModel()

    def analyze():
        net = build_hep_net(rng=0)
        rep = count_net(net, (3, 224, 224), batch=8)
        points = roofline(rep, node)
        return points, bound_fractions(points)

    points, frac = benchmark.pedantic(analyze, rounds=1, iterations=1)
    convs = [p for p in points if p.kind == "conv"]
    pools = [p for p in points if p.kind == "pool"]
    report("Roofline view of Fig 5a (HEP, batch 8)", [
        ("machine balance", "--",
         f"{machine_balance(node):.0f} FLOP/byte"),
        ("first conv (3 channels)", "memory-bound (1.25 TF/s)",
         f"{convs[0].bound} @ {convs[0].intensity:.0f} F/B"),
        ("deep convs (128 channels)", "compute-bound (3.5 TF/s)",
         f"{sum(p.bound == 'compute' for p in convs[1:])}/{len(convs) - 1}"),
        ("pool layers memory-bound", "all",
         f"{sum(p.bound == 'memory' for p in pools)}/{len(pools)}"),
        ("FLOPs in compute-bound layers", ">90%",
         f"{frac['compute'] * 100:.1f}%"),
    ])
    # Fig 5's split, from intensity alone: the 3-channel first layer cannot
    # feed the VPUs (the paper's 1.25 TF/s layer); the 128-channel stack can
    # (the 3.5 TF/s layers); pooling and the tiny FC head stream memory.
    assert convs[0].bound == "memory"
    assert all(p.bound == "compute" for p in convs[1:])
    assert all(p.bound == "memory" for p in pools)
    assert frac["compute"] > 0.9


# ---------------------------------------------------------------------------
# Physics-symmetry augmentation (SI-A: simulators as data multipliers)
# ---------------------------------------------------------------------------
def test_phi_augmentation_helps_small_samples(benchmark):
    """The detector's phi periodicity gives every event W free aliases.
    With scarce training data the augmented CNN generalizes better — the
    low-level-image advantage the cut baseline cannot share (its features
    are phi-invariant by construction)."""
    from repro.data.hep import AugmentedBatcher, make_hep_dataset
    from repro.train import auc
    from repro.train.loop import predict_proba

    train_ds = make_hep_dataset(260, image_size=32, signal_fraction=0.5,
                                seed=11)
    test_ds = make_hep_dataset(600, image_size=32, signal_fraction=0.5,
                               seed=12)

    def fit(augment):
        net = build_hep_net(filters=8, rng=13)
        opt = SGD(net.params(), lr=5e-2, momentum=0.9)
        if augment:
            batcher = AugmentedBatcher(train_ds.images, train_ds.labels,
                                       batch=32, rng=3)
        rng = np.random.default_rng(3)
        for _ in range(80):
            if augment:
                xb, yb = batcher.next_batch()
            else:
                idx = rng.choice(len(train_ds.images), size=32,
                                 replace=False)
                xb, yb = train_ds.images[idx], train_ds.labels[idx]
            step(net, hep_loss_fn, xb, yb)
            opt.step()
        scores = predict_proba(net, test_ds.images)[:, 1]
        return auc(scores, test_ds.labels)

    def sweep():
        return fit(augment=False), fit(augment=True)

    plain_auc, aug_auc = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Ablation: phi/eta symmetry augmentation (260 train events)", [
        ("test AUC without augmentation", "baseline", f"{plain_auc:.3f}"),
        ("test AUC with augmentation", ">= baseline", f"{aug_auc:.3f}"),
    ])
    # Augmentation must not hurt, and both must beat chance.
    assert plain_auc > 0.55
    assert aug_auc > plain_auc - 0.03


# ---------------------------------------------------------------------------
# Sharded solver (the Fig 5a 12.5%-ADAM implication)
# ---------------------------------------------------------------------------
def test_sharded_solver_saves_update_time(benchmark, machine, hep_wl):
    """Fig 5a: the ADAM update is 12.5% of the HEP iteration, repeated
    identically on every rank. Reduce-scatter + sharded solver + all-gather
    does that work once across p ranks, at unchanged communication volume —
    and is numerically identical to the unsharded step (tested live)."""
    from repro.comm import ThreadWorld
    from repro.distributed import (ShardedSolverDataParallel,
                                   SyncDataParallel, solver_time_saving)

    ds = make_hep_dataset(160, image_size=16, signal_fraction=0.5, seed=4)
    p = 4

    def run_both():
        a = SyncDataParallel(
            ThreadWorld(p), lambda: build_hep_net(filters=4, rng=1),
            lambda net: SGD(net.params(), lr=0.05, momentum=0.9),
            hep_loss_fn)
        res_a = a.run(ds.images[:32], ds.labels[:32], n_iterations=4)
        b = ShardedSolverDataParallel(
            ThreadWorld(p), lambda: build_hep_net(filters=4, rng=1),
            lambda params: SGD(params, lr=0.05, momentum=0.9),
            hep_loss_fn)
        res_b = b.run(ds.images[:32], ds.labels[:32], n_iterations=4)
        drift = max(abs(x - y) for x, y in zip(res_a.losses, res_b.losses))
        return drift

    drift = benchmark.pedantic(run_both, rounds=1, iterations=1)
    # Fig 5a solver fraction on the model: 12.5% of a 106 ms iteration.
    solver_t = machine.solver_overhead.time(
        hep_wl.model_bytes // 4, hep_wl.n_trainable_layers, "adam")
    saved_64 = solver_time_saving(solver_t, 64)
    report("Ablation: sharded solver (ZeRO-1) vs replicated ADAM", [
        ("max per-iteration loss drift vs unsharded", "0 (exact)",
         f"{drift:.2e}"),
        ("HEP solver time per iteration (model)", "~12.5% of 106 ms",
         f"{solver_t * 1e3:.1f} ms"),
        ("saved per iteration at 64 ranks", "(p-1)/p of it",
         f"{saved_64 * 1e3:.1f} ms"),
        ("solver state per rank", "1/64", "1/64"),
    ])
    assert drift < 1e-5
    assert saved_64 == pytest.approx(solver_t * 63 / 64)
