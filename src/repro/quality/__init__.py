"""Output-quality metrics (MSE / PSNR / SNR) for kernel outputs."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "bit_accuracy": ".metrics",
    "mae": ".metrics",
    "mse": ".metrics",
    "psnr": ".metrics",
    "snr_db": ".metrics",
})
