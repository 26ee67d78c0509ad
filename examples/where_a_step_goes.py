"""Where a step goes: median self time of every layer's forward / backward at
the shapes of ``hep_train``, ``hybrid`` (a group step of ``hybrid_train``),
``hep_infer`` or ``climate_infer`` (the quarter-width ClimateNet), and the
lowering form each conv / deconv took, as tabled in the README's "Where a ...
goes" sections. Run
``PYTHONPATH=src python examples/where_a_step_goes.py --net hybrid``.

``--net hep_data`` times ``make_hep_dataset`` instead, stage by stage
(generate / detect / select / image, median seconds), at the dataset shapes
of ``hybrid_train`` (256 events at 32²), ``hep_train`` (96 at 64²) and the
tier-1 integration fixture (1100 at 64²).

The forms are the plans ``repro.nn.im2col.plan`` made, a pass each. In an
eval forward a conv's followers run inside its row, on bands. A max-pool the
Winograd form took in place (its 4x4 blocks pooled before they are woven)
never has its ``forward`` called, so it has no row: its conv reads
``winograd, pooled``. In a training step the first conv makes the gradient
of the max-pool behind it band by band inside its weight gradient, so that
pool has no backward row: the conv's reads ``w: direct, pooled  d: none``.

Memory is traced with ``tracemalloc`` in untimed passes after the timed
steps. A forward row's ``held`` is the MiB its layer keeps for ``backward``
once the forward ends: what ``tracemalloc`` sees freed when that layer's
state is dropped, in execution order. The last lines are what one step holds
when its forward ends and the step's traced peak (parameters, gradients and
solver state allocated before the step are not counted)."""
import argparse
import sys
import time
import tracemalloc

import numpy as np

import repro.data.hep.dataset as hep_dataset
from repro.data.hep import DetectorModel, EventGenerator, EventImager
from repro.models.climate import PAPER_DECODER, PAPER_ENCODER, ClimateNet
from repro.models.hep import build_hep_net
from repro.optim import SGD, Adam
from repro.train.loop import hep_loss_fn, step

#: net -> (batch, image side, filters, optimizer; None: an eval forward)
SHAPES = {"hep_train": (8, 64, 128, lambda p: Adam(p, lr=1e-3)),
          "hybrid": (32, 32, 16, lambda p: SGD(p, lr=0.01, momentum=0.9)),
          "hep_infer": (2, 224, 128, None),
          "climate_infer": (2, 256, None, None)}
#: (events, image side) of the datasets ``--net hep_data`` builds
DATASETS = ((256, 32), (96, 64), (1100, 64))


def climate_net(width=1 / 4):
    """``bench/workloads.py::ClimateInfer``'s net."""
    enc = [(int(c * width), k, s) for c, k, s in PAPER_ENCODER]
    dec = [(int(c * width), k, s) for c, k, s in PAPER_DECODER]
    dec[-1] = (16,) + PAPER_DECODER[-1][1:]
    return ClimateNet(16, 3, enc, dec, rng=0)


def timed(fn, key, spent, forms=None):
    """``fn``, booking its time, less what its callees book, in ``spent``,
    and under ``key`` the forms of the plans it made (``forms[None]``): a
    backward's by pass, ``w`` the weight gradient and ``d`` the data
    gradient. A weight gradient on the columns a one-shot forward kept
    plans nothing: it is the GEMM alone, ``direct``; one on the tiles a
    Winograd forward kept plans nothing either: ``winograd, kept``."""
    def call(*args, **kwargs):
        booked, start = sum(spent.values()), time.perf_counter()
        mark = forms and len(forms[None])
        out = fn(*args, **kwargs)
        took = time.perf_counter() - start - (sum(spent.values()) - booked)
        spent[key] = spent.get(key, 0.0) + took
        if forms:
            def form(passes):
                return "/".join(form for by, form in forms[None][mark:]
                                if by in passes) or "direct"
            # a pool handed to the conv that booked no time ran in its pass
            # (its forward in the tile form, its gradient inside the weight
            # gradient's band loop)
            fwd, phase = key.endswith(".forward"), key.rsplit(".", 1)[1]
            pools = args[1] if fwd and args[1:] else [kwargs.get("pool")]
            pooled = ", pooled" if any(
                f"{pool.name}.{phase}" not in spent for pool in pools
                if pool is not None and pool.window_max) else ""
            kept = getattr(getattr(fn.__self__, "_cache", None), "plan", None)
            w = "winograd, kept" if kept and kept.form == "winograd" \
                else form("w")
            # a backward(..., input_grad=False) returns no data gradient
            forms[key] = form("wd") + pooled if fwd else f"w: {w}{pooled}" \
                f"  d: {'none' if out is None else form('d')}"
        return out
    return call


def noting(plan, made):
    """``plan``, noting the form of each plan in ``made`` by the pass its
    ``op`` serves: ``w`` the weight gradient's ``lowered_outer``, else ``d``."""
    def call(op, *args):
        planned = plan(op, *args)
        made.append(("w" if op.__name__ == "lowered_outer" else "d",
                     planned.form))
        return planned
    return call


def held_mib(net, layers, x):
    """MiB each of ``layers`` keeps after a forward of ``x``: the traced
    memory freed when its state is dropped."""
    held = {}
    tracemalloc.start()
    try:
        net.forward(x)
        for mod in layers:
            before = tracemalloc.get_traced_memory()[0]
            for state in ("_cache", "_mask"):
                if hasattr(mod, state):
                    setattr(mod, state, None)
            held[mod.name] = (before - tracemalloc.get_traced_memory()[0]) \
                / 2**20
    finally:
        tracemalloc.stop()
    return held


def step_mib(net, one_step):
    """MiB one step holds when its forward ends, and its traced peak."""
    forward, ends = net.forward, []

    def traced(*args):
        out = forward(*args)
        ends.append(tracemalloc.get_traced_memory()[0])
        return out
    net.forward = traced
    tracemalloc.start()
    try:
        one_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del net.forward
    return ends[0] / 2**20, peak / 2**20


def hep_data(repeats):
    """Median seconds of each ``make_hep_dataset`` stage, per dataset."""
    spent = {}
    for key, owner, name in (("generate", EventGenerator, "generate"),
                             ("detect", DetectorModel, "simulate_all"),
                             ("select", hep_dataset, "high_level_features"),
                             ("image", EventImager, "images")):
        setattr(owner, name, timed(getattr(owner, name), key, spent))
    build = timed(hep_dataset.make_hep_dataset, "rest", spent)
    keys = ("generate", "detect", "select", "image", "rest", "total")
    print(f"make_hep_dataset: median s over {repeats} builds")
    print(f"{'events @ side':14s}" + "".join(f"{k:>10s}" for k in keys))
    for n, side in DATASETS:
        builds = []
        for seed in range(repeats + 1):         # the first one warms up
            spent.clear()
            build(n, image_size=side, seed=seed)
            builds.append(dict(spent, total=sum(spent.values())))
        print(f"{f'{n} @ {side}²':14s}" + "".join(
            f"{np.median([b[k] for b in builds[1:]]):10.4f}" for k in keys))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--net", choices=sorted(SHAPES) + ["hep_data"],
                    default="hybrid")
    ap.add_argument("--filters", type=int)
    ap.add_argument("--steps", type=int, default=11)
    args = ap.parse_args()
    if args.net == "hep_data":
        hep_data(args.steps)
        sys.exit()
    batch, side, filters, make_optimizer = SHAPES[args.net]
    if args.net == "climate_infer":
        net = climate_net()
        layers = net.encoder.schedule() + net.children()[1:4] \
            + net.decoder.schedule()
    else:
        net = build_hep_net(filters=args.filters or filters, rng=0)
        layers = net.schedule()
    x = np.random.default_rng(0).random(
        (batch, layers[0].in_channels, side, side), np.float32)
    optimizer = make_optimizer(net.params()) if make_optimizer else net.eval()
    spent, steps, forms = {}, [], {None: []}
    lowering = sys.modules["repro.nn.im2col"]   # the attribute is a function
    lowering.plan = noting(lowering.plan, forms[None])
    for mod in layers:          # a fused eval follower runs inside its conv
        for a in ("forward", "backward"):
            setattr(mod, a, timed(
                getattr(mod, a), f"{mod.name}.{a}", spent,
                forms if mod.kind in ("conv", "deconv") else None))

    def one_step():
        if not make_optimizer:
            return net.forward(x)
        step(net, hep_loss_fn, x, np.arange(batch) % 2)
        optimizer.step()
    one_step = timed(one_step, "rest of the step", spent)
    for _ in range(args.steps + 1):             # the first one warms up
        spent.clear()
        one_step()
        steps.append(dict(spent, total=sum(spent.values())))
    for mod in layers:                          # untimed from here on
        del mod.forward, mod.backward
    ends, peak = step_mib(net, one_step)
    held = held_mib(net, layers, x)
    print(f"{args.net} {x.shape}: median ms over {args.steps} steps, "
          "MiB held after the forward")
    for key in steps[-1]:                       # in the order calls returned
        name, _, phase = key.rpartition(".")
        mib = f"{held[name]:7.2f}" if phase == "forward" else " " * 7
        print(f"{key:22s} {1e3 * np.median([s[key] for s in steps[1:]]):8.3f}"
              f" {mib}  {forms.get(key, '')}")
    print(f"{'held when the forward ends':30s} {ends:7.2f} MiB")
    print(f"{'traced step peak':30s} {peak:7.2f} MiB")
