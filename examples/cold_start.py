"""Cold start: what a replica pays before its first prediction. One process
imports ``repro``, builds a drawn net and publishes it; a fresh one imports,
``registry.load()``s it and runs a first forward. Seconds per stage and the
process's peak RSS once the stage is done, as tabled in the README's "Cold
start" section. Run ``PYTHONPATH=src python examples/cold_start.py --net
climate --width 1`` (the paper-size ClimateNet, 302 MiB of weights)."""
import argparse
import subprocess
import sys
import tempfile
import time

#: net -> per-sample input shape of the first forward
INPUTS = {"hep": (3, 224, 224), "climate": (16, 256, 256)}


def builder(net, width):
    """The paper nets with every layer ``width`` times as wide."""
    if net == "hep":
        from repro.models import build_hep_net
        return lambda: build_hep_net(filters=int(128 * width), rng=0)
    from repro.models.climate import PAPER_DECODER, PAPER_ENCODER, ClimateNet
    enc = [(int(c * width), k, s) for c, k, s in PAPER_ENCODER]
    dec = [(int(c * width), k, s) for c, k, s in PAPER_DECODER]
    dec[-1] = (16,) + PAPER_DECODER[-1][1:]
    return lambda: ClimateNet(16, 3, enc, dec, rng=0)


def peak_rss_mib():
    """This process image's high-water mark. Not ``ru_maxrss``: that one
    survives ``exec``, so a fresh process would report its parent's peak."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")) / 1024


def stage(name, fn):
    start = time.perf_counter()
    out = fn()
    print(f"{name:34s} {time.perf_counter() - start:8.2f} "
          f"{peak_rss_mib():10.1f}", flush=True)
    return out


def registry(args):
    from repro.serve import ModelRegistry
    reg = ModelRegistry(args.root)
    reg.register(args.net, builder(args.net, args.width), INPUTS[args.net])
    return reg


def publisher(args):
    stage("import repro", lambda: __import__("repro"))
    net = stage("build (weights drawn)", builder(args.net, args.width))
    print(f"  {args.net} net at width {args.width:g}: "
          f"{net.param_bytes() / 2**20:.1f} MiB of parameters")
    reg = registry(args)
    stage("registry.publish", lambda: reg.publish(args.net, net))


def replica(args):
    stage("import repro", lambda: __import__("repro"))
    import numpy as np
    reg = registry(args)
    model = stage("registry.load", lambda: reg.load(args.net))
    x = np.random.default_rng(0).standard_normal(
        (1,) + INPUTS[args.net]).astype(np.float32)
    stage(f"first forward {x.shape}", lambda: model(x))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--net", choices=sorted(INPUTS), default="climate")
    ap.add_argument("--width", type=float, default=0.25)
    ap.add_argument("--root", help=argparse.SUPPRESS)   # the replica's side
    args = ap.parse_args()
    if args.root:
        replica(args)
    else:
        print(f"{'stage':34s} {'seconds':>8s} {'peak MiB':>10s}")
        with tempfile.TemporaryDirectory() as args.root:
            publisher(args)
            print("-- fresh process --", flush=True)
            subprocess.run([sys.executable, __file__, "--net", args.net,
                            "--width", str(args.width), "--root", args.root],
                           check=True)
