"""NumPy neural-network layers and losses.

This is the from-scratch substitute for IntelCaffe + MKL DNN primitives: the
exact operator set needed by the paper's two architectures (Table II), each
with explicit forward/backward and per-layer FLOP accounting — plus the
extension operators the paper names as future work / portability targets
(Winograd and FFT convolution, BatchNorm, LSTM, ResNet blocks).
"""

from repro.nn.im2col import col2im, conv_output_size, deconv_output_size, im2col
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.fft_conv import FFTConv2D
from repro.nn.winograd import (
    WinogradConv2D,
    direct_multiplies,
    winograd_multiplies,
)
from repro.nn.residual import ResidualBlock, build_resnet
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.dense import Dense, Flatten
from repro.nn.batchnorm import BatchNorm2D
from repro.nn.dropout import Dropout
from repro.nn.lstm import LSTM
from repro.nn.activations import ReLU, Sigmoid, Tanh, sigmoid, softmax
from repro.nn.losses import (
    BCEWithLogitsLoss,
    MSELoss,
    SmoothL1Loss,
    SoftmaxCrossEntropyLoss,
)

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "deconv_output_size",
    "Conv2D",
    "Deconv2D",
    "FFTConv2D",
    "WinogradConv2D",
    "direct_multiplies",
    "winograd_multiplies",
    "ResidualBlock",
    "build_resnet",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Dense",
    "Flatten",
    "BatchNorm2D",
    "Dropout",
    "LSTM",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "softmax",
    "sigmoid",
    "SoftmaxCrossEntropyLoss",
    "MSELoss",
    "BCEWithLogitsLoss",
    "SmoothL1Loss",
]
