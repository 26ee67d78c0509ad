"""A registry round trip costs what it moves.

``publish`` writes the live arrays (no ``state_dict()`` copy) atomically and
refuses a diverged net; ``load`` builds the net undrawn and streams the
checkpoint into it one array at a time; ``import repro`` imports no scipy.
Twelve of these fail at the commit before that was true; the strictness
cases and the stale-partial one pin what the new paths had to keep.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.sequential import Sequential
from repro.models import build_hep_net
from repro.models.climate import PAPER_DECODER, PAPER_ENCODER, ClimateNet
from repro.nn.batchnorm import BatchNorm2D
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.pooling import GlobalAvgPool2D
from repro.serve import ModelRegistry


def hep_net():
    return build_hep_net(filters=8, n_units=3, rng=0)


def batchnorm_net():
    return Sequential([Conv2D(2, 4, 3, rng=0), BatchNorm2D(4),
                       GlobalAvgPool2D(), Dense(4, 2, rng=0)])


def quarter_climate_net():
    """The ``climate_infer`` benchmark net: 18.8 MiB of parameters."""
    enc = [(c // 4, k, s) for c, k, s in PAPER_ENCODER]
    dec = [(c // 4, k, s) for c, k, s in PAPER_DECODER]
    dec[-1] = (16,) + PAPER_DECODER[-1][1:]
    return ClimateNet(16, 3, enc, dec, rng=0)


BUILDERS = [hep_net, batchnorm_net, quarter_climate_net]


def _live(net):
    """{key: the net's own array} — spelled out, not ``net._state_items()``,
    so these tests run (and fail for their own reasons) without it."""
    return dict([(p.name, p.data) for p in net.params()]
                + list(net._buffer_items()))


def _registry(root, builder):
    reg = ModelRegistry(root)
    reg.register("m", builder, (1,))
    return reg


class _CountingGenerator(np.random.Generator):
    """``Generator`` is immutable, so the spy is a subclass that every
    ``default_rng()`` call hands out while ``draws`` is installed."""

    calls = []

    def normal(self, *args, **kwargs):
        self.calls.append("normal")
        return super().normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.calls.append("uniform")
        return super().uniform(*args, **kwargs)


@pytest.fixture()
def draws(monkeypatch):
    monkeypatch.setattr(_CountingGenerator, "calls", [])
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed=None: _CountingGenerator(np.random.PCG64(seed)))
    return _CountingGenerator.calls


class TestNothingIsDrawn:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_spec_and_load_draw_nothing_and_restore_every_key(
            self, builder, tmp_path, draws):
        net = builder()
        assert draws                    # the spy sees a drawn build
        for arr in _live(net).values():         # buffers off their defaults
            arr += np.float32(0.25)
        reg = _registry(tmp_path, builder)
        del draws[:]
        reg._spec("m")
        reg.publish("m", net)
        replica = reg.load("m")
        assert draws == []
        want, got = net.state_dict(), replica.net.state_dict()
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


class TestOneCopyOfTheWeights:
    """tracemalloc sees numpy's allocations, touched or not: a replica's
    gradient accumulators (``np.zeros``, never written, never resident)
    count once here although they cost no RSS."""

    def test_load_holds_the_net_and_one_array(self, tmp_path):
        net = quarter_climate_net()
        params = net.param_bytes()
        largest = max(arr.nbytes for arr in _live(net).values())
        reg = _registry(tmp_path, quarter_climate_net)
        reg.publish("m", net)
        tracemalloc.start()
        try:
            replica = reg.load("m")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = sum(p.grad.nbytes for p in replica.net.params())
        assert peak - grads <= params + largest + 0.1 * params

    def test_publish_copies_no_weight(self, tmp_path):
        """Room for the finiteness mask (a quarter of an array) and for the
        one buffer ``np.savez`` writes through (at most 16 MiB, here one
        whole array) — not for a second state dict."""
        net = quarter_climate_net()
        largest = max(arr.nbytes for arr in _live(net).values())
        reg = _registry(tmp_path, quarter_climate_net)
        reg._spec("m")      # the first publish also builds the undrawn spec
        tracemalloc.start()
        try:
            reg.publish("m", net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * largest < 0.5 * net.param_bytes()


class TestStreamingLoadIsStillStrict:
    def _checkpoint(self, tmp_path, edit):
        state = batchnorm_net().state_dict()
        edit(state)
        (tmp_path / "m").mkdir()
        np.savez(tmp_path / "m" / "v0001.npz", **state)
        return _registry(tmp_path, batchnorm_net)

    @pytest.mark.parametrize("edit, error, match", [
        (lambda s: s.pop("conv.weight"), KeyError, "missing parameters"),
        (lambda s: s.pop("batchnorm.buffer.running_var"), KeyError,
         "missing buffer"),
        (lambda s: s.update(phantom=np.zeros(3, np.float32)), KeyError,
         "unexpected keys"),
        (lambda s: s.update({"fc.bias": np.zeros(5, np.float32)}),
         ValueError, "shape mismatch for 'fc.bias'"),
        (lambda s: s.update({"batchnorm.buffer.running_mean":
                             np.zeros(7, np.float32)}),
         ValueError, "shape mismatch for 'batchnorm.buffer.running_mean'"),
    ])
    def test_bad_checkpoints_raise_as_before(self, tmp_path, edit, error,
                                             match):
        reg = self._checkpoint(tmp_path, edit)
        with pytest.raises(error, match=match):
            reg.load("m")


class TestPublishIsAllOrNothing:
    @pytest.mark.parametrize("key, value", [
        ("conv.weight", np.nan),
        ("fc.bias", np.inf),
        ("batchnorm.buffer.running_var", -np.inf),
    ])
    def test_a_diverged_net_is_refused_by_key(self, tmp_path, key, value):
        reg = _registry(tmp_path, batchnorm_net)
        reg.publish("m", batchnorm_net())
        net = batchnorm_net()
        _live(net)[key].flat[-1] = value
        with pytest.raises(ValueError, match="non-finite") as err:
            reg.publish("m", net)
        assert repr(key) in str(err.value)
        assert reg.versions("m") == [1]
        assert [f.name for f in (tmp_path / "m").iterdir()] == ["v0001.npz"]

    def test_a_write_that_dies_half_way_is_never_a_version(
            self, tmp_path, monkeypatch):
        reg = _registry(tmp_path, batchnorm_net)
        reg.publish("m", batchnorm_net())
        seen = {}

        def torn_savez(file, **arrays):
            out = file if hasattr(file, "write") else open(file, "wb")
            out.write(b"PK\x03\x04 half a checkpoint")
            out.flush()
            # a replica starting right now, mid-write
            seen["versions"] = reg.versions("m")
            seen["loaded"] = reg.load("m").version
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="No space left"):
            reg.publish("m", batchnorm_net())
        assert seen == {"versions": [1], "loaded": 1}
        assert reg.versions("m") == [1]
        assert [f.name for f in (tmp_path / "m").iterdir()] == ["v0001.npz"]

    def test_what_a_killed_writer_leaves_is_not_a_version(self, tmp_path):
        reg = _registry(tmp_path, batchnorm_net)
        (tmp_path / "m").mkdir()
        stale = tmp_path / "m" / "v0001.npz.12345.partial"
        stale.write_bytes(b"PK\x03\x04 half a checkpoint")
        assert reg.versions("m") == []
        assert reg.publish("m", batchnorm_net()) == 1
        assert reg.load("m").version == 1


_NO_SCIPY = """
import sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro
assert not scipy_modules(), scipy_modules()
import repro.serve
assert not scipy_modules(), scipy_modules()

from repro.data.climate.fields import FieldGenerator
from repro.data.climate.heuristics import (
    HeuristicARDetector, HeuristicTCDetector)
from repro.nn.fft_conv import FFTConv2D
assert not scipy_modules(), scipy_modules()

x = np.ones((1, 2, 8, 8), dtype=np.float32)
assert FFTConv2D(2, 3, 3, rng=0).forward(x).shape == (1, 3, 8, 8)
assert "scipy.fft" in scipy_modules()
assert "scipy.ndimage" not in scipy_modules()

field = FieldGenerator(32, 32, seed=0).background()
assert field.shape == (16, 32, 32) and np.isfinite(field).all()
assert "scipy.ndimage" in scipy_modules()
"""

_HEURISTICS_FIRST = """
import sys
import numpy as np
from repro.data.climate.heuristics import (
    HeuristicARDetector, HeuristicTCDetector)
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
field = np.zeros((16, 32, 32), dtype=np.float32)
assert HeuristicTCDetector().detect(field) == []
assert "scipy.ndimage" in sys.modules
"""

_AR_FIRST = _HEURISTICS_FIRST.replace("HeuristicTCDetector()",
                                      "HeuristicARDetector()")


class TestImportReproImportsNoScipy:
    @pytest.mark.parametrize("script", [_NO_SCIPY, _HEURISTICS_FIRST,
                                        _AR_FIRST],
                             ids=["fft_and_fields", "tc", "ar"])
    def test_scipy_arrives_with_the_first_call_that_needs_it(self, script):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
