#!/usr/bin/env python
"""Model parallelism: the MLSL capability the paper measured and declined.

Paper SIII-D: MLSL "enables different forms of parallelism — both data and
model parallelism"; the paper uses only data parallelism because its
networks are "fully convolutional ... or those with very small fully
connected layers". This example runs real model-parallel layers over the
thread communicator, checks that they match their unsharded counterparts
(it exits with an error if not), and reproduces the byte-traffic argument
behind the paper's choice.

Run:  python examples/model_parallel.py
"""

import threading

import numpy as np

from repro.comm import ThreadWorld
from repro.comm.model_parallel import (
    ColumnParallelDense,
    RowParallelDense,
    SpatialParallelConv2D,
    data_parallel_grad_bytes,
    model_parallel_activation_bytes,
)
from repro.nn import Conv2D, Dense
from repro.sim.workload import climate_workload, hep_workload


def run_ranks(world, fn):
    results = [None] * world.size
    threads = [threading.Thread(target=lambda r=r: results.__setitem__(
        r, fn(r, world.comm(r))), daemon=True) for r in range(world.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def main() -> None:
    print("=== model parallelism over the thread communicator ===\n")
    rng = np.random.default_rng(0)

    print("[1/3] column- and row-parallel dense layers (output / input "
          "features sharded)")
    p = 4
    x = rng.normal(size=(8, 32)).astype(np.float32)
    ref = Dense(32, 16, rng=np.random.default_rng(3))
    expected = ref.forward(x)
    for cls, features in ((ColumnParallelDense, "16 output"),
                          (RowParallelDense, "32 input")):
        outs = run_ranks(ThreadWorld(p), lambda r, comm: cls(
            comm, 32, 16, rng=np.random.default_rng(3)).forward(x))
        err = max(float(np.abs(o - expected).max()) for o in outs)
        print(f"      {cls.__name__}: {p} ranks, each holding 1/{p} of the "
              f"{features} features")
        print(f"      max |sharded - unsharded| = {err:.2e}")
        assert err < 1e-5, f"{cls.__name__} does not match Dense"
    print()

    print("[2/3] spatial-parallel convolution (image rows sharded)")
    height = 16
    x_img = rng.normal(size=(2, 3, height, 12)).astype(np.float32)
    ref_conv = Conv2D(3, 4, 3, stride=1, pad=1, rng=np.random.default_rng(8))
    expected_conv = ref_conv.forward(x_img)
    world2 = ThreadWorld(p)

    def conv_fn(r, comm):
        layer = SpatialParallelConv2D(comm, 3, 4, 3, image_height=height,
                                      rng=np.random.default_rng(8))
        return layer.forward(x_img[:, :, layer.lo:layer.hi].copy())

    strips = run_ranks(world2, conv_fn)
    assembled = np.concatenate(strips, axis=2)
    err = float(np.abs(assembled - expected_conv).max())
    print(f"      {p} ranks x {height // p}-row strips, halo exchange of "
          "1 row per neighbour")
    print(f"      max |strips - full conv| = {err:.2e}\n")
    assert err < 1e-5, "the strips do not match the full convolution"

    print("[3/3] why the paper chose data parallelism (bytes/rank/iter, "
          "64 nodes, batch 8)")
    print(f"      {'layer':24s} {'data-parallel':>14s} "
          f"{'model-parallel':>14s} {'winner':>8s}")
    nodes, batch = 64, 8
    for wl in (hep_workload(), climate_workload()):
        for rec in wl.trainable_records()[:3]:
            n_in = int(np.prod(rec.input_shape))
            n_out = int(np.prod(rec.output_shape))
            dp = data_parallel_grad_bytes(4 * rec.params, nodes)
            mp = ((nodes - 1) / nodes * batch * n_out * 4
                  + 2 * (nodes - 1) / nodes * batch * n_in * 4)
            winner = "DP" if dp < mp else "MP"
            print(f"      {wl.name + '/' + rec.name:24s} "
                  f"{dp / 1e6:>12.2f}MB {mp / 1e6:>12.2f}MB {winner:>8s}")
    huge_dp = data_parallel_grad_bytes(4 * 16384 * 16384, nodes)
    huge_mp = model_parallel_activation_bytes(batch, 16384, 16384, nodes)
    print(f"      {'hypothetical 16k^2 dense':24s} "
          f"{huge_dp / 1e6:>12.2f}MB {huge_mp / 1e6:>12.2f}MB "
          f"{'MP' if huge_mp < huge_dp else 'DP':>8s}")
    print("\nConv activations dwarf conv weights, so sharding activations "
          "(model parallelism)\nmoves more data than sharding samples — "
          "until a layer's weights dominate, which\nneither paper network "
          "has. The machinery is here for the models that do.")


if __name__ == "__main__":
    main()
