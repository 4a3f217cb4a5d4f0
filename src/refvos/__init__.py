"""Text-conditioned video object segmentation: cross-modal prompt
generation, hierarchical pixel-level fusion, a prompt-token mask decoder,
and an online tracking token, with training and J/F evaluation."""

from .autodiff import (DimensionError, NonFiniteError, Tensor, bilinear_resize,
                       concat, grad_check, layer_norm, linear, no_grad, softmax,
                       transposed_conv_upscale)
from .losses import LossConfig, dice_loss, focal_loss

__all__ = [
    "Tensor", "DimensionError", "NonFiniteError", "linear", "softmax",
    "layer_norm", "bilinear_resize", "transposed_conv_upscale",
    "concat", "grad_check", "no_grad", "LossConfig", "dice_loss", "focal_loss",
]

__version__ = "0.1.0"
