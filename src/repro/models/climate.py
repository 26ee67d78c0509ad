"""The semi-supervised climate architecture (paper SIII-B, Table II).

A shared **encoder** of strided convolutions produces coarse features of the
16-channel climate fields. On top of the features:

- three 1x1-conv **heads** predict, per grid cell, box confidence, class
  probabilities and box geometry (bottom-left corner + size);
- a **decoder** of deconvolutions reconstructs the input (the unsupervised
  autoencoder branch), so unlabeled data improves the shared encoder.

The joint objective (SIII-B): minimize confidence off-box / maximize on-box,
maximize correct-class probability at boxes, minimize box offset/scale error,
minimize reconstruction error. Trained with SGD + momentum.

At the paper-native input (768x768x16) the "paper" preset holds ~302 MiB of
single-precision parameters, matching Table II.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.module import Module
from repro.core.parameter import Parameter
from repro.core.sequential import Sequential
from repro.nn.activations import ReLU, sigmoid, softmax
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.losses import BCEWithLogitsLoss, MSELoss, SmoothL1Loss
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, spawn_rngs

#: (channels, height, width) used in the paper (Table II)
CLIMATE_PAPER_INPUT = (16, 768, 768)

#: encoder spec: (out_channels, kernel, stride) -- 9 convolutions
PAPER_ENCODER: Tuple[Tuple[int, int, int], ...] = (
    (64, 5, 2), (128, 3, 1), (256, 3, 2), (384, 3, 1), (512, 3, 2),
    (768, 3, 1), (1024, 3, 2), (1344, 3, 1), (1728, 3, 1),
)
#: decoder spec: (out_channels, kernel, stride) -- 5 deconvolutions
PAPER_DECODER: Tuple[Tuple[int, int, int], ...] = (
    (864, 4, 2), (432, 4, 2), (216, 4, 2), (108, 4, 2), (16, 5, 1),
)

#: scaled-down preset for tests / real-training benchmarks (stride 8)
SMALL_ENCODER: Tuple[Tuple[int, int, int], ...] = (
    (16, 5, 2), (32, 3, 2), (48, 3, 1), (64, 3, 2),
)
SMALL_DECODER: Tuple[Tuple[int, int, int], ...] = (
    (32, 4, 2), (16, 4, 2), (8, 4, 2),
)


class ClimateNet(Module):
    """Multi-head encoder/decoder network with explicit backward."""

    kind = "climate_net"

    def __init__(self, in_channels: int, n_classes: int,
                 encoder_spec: Sequence[Tuple[int, int, int]],
                 decoder_spec: Sequence[Tuple[int, int, int]],
                 name: str = "climate_net", rng: SeedLike = None) -> None:
        super().__init__(name=name)
        require_count("in_channels", in_channels)
        require_count("n_classes", n_classes)
        if decoder_spec and decoder_spec[-1][0] != in_channels:
            raise ValueError(
                f"decoder must end with {in_channels} channels to reconstruct "
                f"the input, got {decoder_spec[-1][0]}")
        self.in_channels = in_channels
        self.n_classes = n_classes

        rngs = spawn_rngs(rng, len(encoder_spec) + len(decoder_spec) + 3)
        ri = iter(rngs)

        enc_layers: List[Module] = []
        channels = in_channels
        stride = 1
        for i, (out_ch, k, s) in enumerate(encoder_spec):
            enc_layers.append(Conv2D(channels, out_ch, k, stride=s,
                                     name=f"enc_conv{i + 1}", rng=next(ri)))
            enc_layers.append(ReLU(name=f"enc_relu{i + 1}"))
            channels = out_ch
            stride *= s
        self.encoder = Sequential(enc_layers, name="encoder")
        self.feature_channels = channels
        #: total spatial downsampling factor == prediction-grid stride
        self.stride = stride

        dec_layers: List[Module] = []
        dch = channels
        for i, (out_ch, k, s) in enumerate(decoder_spec):
            dec_layers.append(Deconv2D(dch, out_ch, k, stride=s,
                                       name=f"dec_deconv{i + 1}",
                                       rng=next(ri)))
            if i < len(decoder_spec) - 1:  # linear output for reconstruction
                dec_layers.append(ReLU(name=f"dec_relu{i + 1}"))
            dch = out_ch
        self.decoder = Sequential(dec_layers, name="decoder")

        # 1x1-conv heads: confidence (1), class (K), box geometry (4).
        self.conf_head = Conv2D(channels, 1, 1, name="head_conf", rng=next(ri))
        self.cls_head = Conv2D(channels, n_classes, 1, name="head_cls",
                               rng=next(ri))
        self.box_head = Conv2D(channels, 4, 1, name="head_box", rng=next(ri))
        self._prefix_params()

    def _prefix_params(self) -> None:
        # Heads live outside a Sequential, so prefix their params with the
        # layer name first (Sequential already did this for enc/dec layers).
        for head in (self.conf_head, self.cls_head, self.box_head):
            for p in head.params():
                if not p.name.startswith(head.name + "."):
                    p.name = f"{head.name}.{p.name}"
        for p in self.params():
            if not p.name.startswith(self.name + "."):
                p.name = f"{self.name}.{p.name}"

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W), got {x.shape}")
        feats = self.encoder.forward(x)
        return {
            "conf": self.conf_head.forward(feats),   # logits (N,1,gh,gw)
            "cls": self.cls_head.forward(feats),     # logits (N,K,gh,gw)
            "box": self.box_head.forward(feats),     # raw    (N,4,gh,gw)
            "recon": self.decoder.forward(feats),    # (N,C,H,W)
            "features": feats,
        }

    def backward(self, grads: Dict[str, np.ndarray],
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Backward from per-output gradients; returns dL/d(input), or
        ``None`` with ``input_grad=False`` (the encoder's first conv then
        skips its data gradient, the largest scatter of a training step)."""
        g_feats = self.conf_head.backward(grads["conf"])
        g_feats = g_feats + self.cls_head.backward(grads["cls"])
        g_feats = g_feats + self.box_head.backward(grads["box"])
        g_feats = g_feats + self.decoder.backward(grads["recon"])
        return self.encoder.backward(g_feats, input_grad)

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        out: List[Parameter] = []
        for sub in self.children():
            out.extend(sub.params())
        return out

    def trainable_layers(self) -> List[Module]:
        """One PS per trainable layer (paper Fig 4): encoder convs, heads,
        decoder deconvs."""
        return (self.encoder.trainable_layers()
                + [self.conf_head, self.cls_head, self.box_head]
                + self.decoder.trainable_layers())

    def children(self) -> List[Module]:
        """Every child, in parameter order — the single enumeration that
        params(), train/eval propagation, and the checkpoint buffer walk
        (both via Module) all share."""
        return [self.encoder, self.conf_head, self.cls_head,
                self.box_head, self.decoder]

    def grid_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int]:
        """Prediction-grid size for a given input size."""
        c, h, w = self.encoder.output_shape(
            (self.in_channels,) + tuple(input_hw))
        return (h, w)

    def predict(self, x: np.ndarray, conf_threshold: float = 0.8,
                apply_nms: bool = True):
        """Run inference and decode boxes above ``conf_threshold`` (SIII-B)."""
        from repro.models.bbox import decode_predictions
        out = self.forward(x)
        conf = sigmoid(out["conf"])
        cls = softmax(out["cls"], axis=1)
        return decode_predictions(conf, cls, out["box"], self.stride,
                                  conf_threshold=conf_threshold,
                                  apply_nms=apply_nms)


def build_climate_net(in_channels: int = 16, n_classes: int = 3,
                      preset: str = "paper",
                      rng: SeedLike = None) -> ClimateNet:
    """Build the climate network. ``preset`` is ``"paper"`` (768x768x16,
    ~302 MiB) or ``"small"`` (test-scale, stride 8)."""
    if preset == "paper":
        enc, dec = list(PAPER_ENCODER), list(PAPER_DECODER)
    elif preset == "small":
        enc, dec = list(SMALL_ENCODER), list(SMALL_DECODER)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    dec[-1] = (in_channels,) + tuple(dec[-1][1:])
    return ClimateNet(in_channels, n_classes, enc, dec, rng=rng)


class SemiSupervisedLoss:
    """Joint objective of the climate network (paper SIII-B).

    ``total = w_conf * BCE(conf) + w_cls * CE(cls | positive cells)
            + w_box * SmoothL1(box | positive cells) + w_recon * MSE(recon)``

    Supervised terms are masked to labeled images (``labeled_mask``); the
    reconstruction term applies to every image — that is the semi-supervised
    coupling that lets unlabeled data improve the shared encoder.
    """

    def __init__(self, w_conf: float = 1.0, w_cls: float = 1.0,
                 w_box: float = 2.0, w_recon: float = 1.0,
                 pos_weight: float = 8.0) -> None:
        for nm, v in (("w_conf", w_conf), ("w_cls", w_cls), ("w_box", w_box),
                      ("w_recon", w_recon), ("pos_weight", pos_weight)):
            require_real(nm, v, "[0, inf)")
        self.w_conf = w_conf
        self.w_cls = w_cls
        self.w_box = w_box
        self.w_recon = w_recon
        self.pos_weight = pos_weight
        self._bce = BCEWithLogitsLoss()
        self._smooth_l1 = SmoothL1Loss()
        self._mse = MSELoss()

    def __call__(self, outputs: Dict[str, np.ndarray],
                 targets: Dict[str, np.ndarray], images: np.ndarray,
                 labeled_mask: Optional[np.ndarray] = None):
        """Returns ``(total_loss, breakdown, grads)``.

        ``outputs`` from :meth:`ClimateNet.forward`; ``targets`` from
        :func:`repro.models.bbox.encode_targets`; ``images`` the input batch
        (reconstruction target); ``labeled_mask`` (N,) bool, default all-True.
        """
        n = images.shape[0]
        if labeled_mask is None:
            labeled_mask = np.ones(n, dtype=bool)
        labeled_mask = np.asarray(labeled_mask, dtype=bool)
        if labeled_mask.shape != (n,):
            raise ValueError(
                f"labeled_mask shape {labeled_mask.shape} != ({n},)")
        lab = labeled_mask.astype(np.float32)[:, None, None, None]

        grads: Dict[str, np.ndarray] = {}
        breakdown: Dict[str, float] = {}

        # Confidence: weighted BCE; unlabeled images get weight 0; cells
        # adjacent to a positive are ignored (their receptive fields see
        # the object).
        pos = targets["mask"]
        conf_w = (1.0 + (self.pos_weight - 1.0) * pos) * lab
        if "ignore" in targets:
            conf_w = conf_w * (1.0 - targets["ignore"])
        if conf_w.sum() > 0:
            conf_loss, g_conf = self._bce(outputs["conf"], targets["conf"],
                                          weights=conf_w)
        else:
            conf_loss, g_conf = 0.0, np.zeros_like(outputs["conf"])
        breakdown["conf"] = conf_loss
        grads["conf"] = self.w_conf * g_conf

        # Class cross-entropy at positive cells of labeled images.
        probs = softmax(outputs["cls"], axis=1)
        onehot = np.zeros_like(probs)
        k = probs.shape[1]
        idx = targets["cls"]                             # (N, gh, gw)
        onehot[np.arange(n)[:, None, None],
               idx,
               np.arange(idx.shape[1])[None, :, None],
               np.arange(idx.shape[2])[None, None, :]] = 1.0
        cls_mask = pos * lab                             # (N,1,gh,gw)
        n_pos = float(cls_mask.sum())
        if n_pos > 0:
            eps = np.finfo(np.float32).tiny
            picked = (probs * onehot).sum(axis=1, keepdims=True)
            cls_loss = float(
                -(np.log(np.maximum(picked, eps)) * cls_mask).sum() / n_pos)
            g_cls = (probs - onehot) * cls_mask / n_pos
        else:
            cls_loss, g_cls = 0.0, np.zeros_like(probs)
        breakdown["cls"] = cls_loss
        grads["cls"] = (self.w_cls * g_cls).astype(np.float32)

        # Box regression at positive cells of labeled images.
        box_mask = np.broadcast_to(cls_mask, outputs["box"].shape).copy()
        box_loss, g_box = self._smooth_l1(outputs["box"], targets["box"],
                                          mask=box_mask)
        breakdown["box"] = box_loss
        grads["box"] = self.w_box * g_box

        # Reconstruction on ALL images (the unsupervised branch).
        recon_loss, g_recon = self._mse(outputs["recon"], images)
        breakdown["recon"] = recon_loss
        grads["recon"] = self.w_recon * g_recon

        total = (self.w_conf * conf_loss + self.w_cls * cls_loss
                 + self.w_box * box_loss + self.w_recon * recon_loss)
        breakdown["total"] = total
        return total, breakdown, grads
