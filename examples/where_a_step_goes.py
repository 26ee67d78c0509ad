"""Where a step goes: median self time of every layer's forward / backward at
the shapes of ``hep_train``, ``hybrid`` (a group step of ``hybrid_train``) or
``hep_infer``, as tabled in the README's "Where a ... goes" sections. Run
``PYTHONPATH=src python examples/where_a_step_goes.py --net hybrid``."""
import argparse
import time

import numpy as np

from repro.models.hep import build_hep_net
from repro.optim import SGD, Adam
from repro.train.loop import hep_loss_fn

#: net -> (batch, image side, filters, optimizer; None: an eval forward)
SHAPES = {"hep_train": (8, 64, 128, lambda p: Adam(p, lr=1e-3)),
          "hybrid": (32, 32, 16, lambda p: SGD(p, lr=0.01, momentum=0.9)),
          "hep_infer": (2, 224, 128, None)}


def timed(fn, key, spent):
    """``fn``, booking its time, less what its callees book, in ``spent``."""
    def call(*args, **kwargs):
        booked, start = sum(spent.values()), time.perf_counter()
        out = fn(*args, **kwargs)
        took = time.perf_counter() - start - (sum(spent.values()) - booked)
        spent[key] = spent.get(key, 0.0) + took
        return out
    return call


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--net", choices=sorted(SHAPES), default="hybrid")
    ap.add_argument("--filters", type=int)
    ap.add_argument("--steps", type=int, default=11)
    args = ap.parse_args()
    batch, side, filters, make_optimizer = SHAPES[args.net]
    net = build_hep_net(filters=args.filters or filters, rng=0)
    x = np.random.default_rng(0).random((batch, 3, side, side), np.float32)
    optimizer = make_optimizer(net.params()) if make_optimizer else net.eval()
    spent, steps = {}, []
    for mod in net.schedule():  # a fused eval follower runs inside its conv
        for a in ("forward", "backward"):
            setattr(mod, a, timed(getattr(mod, a), f"{mod.name}.{a}", spent))

    def step():
        if not make_optimizer:
            return net.forward(x)
        net.zero_grad()
        _, grad = hep_loss_fn(net, x, np.arange(batch) % 2)
        net.backward(grad, input_grad=False)
        optimizer.step()
    step = timed(step, "rest of the step", spent)
    for _ in range(args.steps + 1):             # the first one warms up
        spent.clear()
        step()
        steps.append(dict(spent, total=sum(spent.values())))
    print(f"{args.net} {x.shape}: median ms over {args.steps} steps")
    for key in steps[-1]:                       # in the order calls returned
        print(f"{key:22s} {1e3 * np.median([s[key] for s in steps[1:]]):8.3f}")
