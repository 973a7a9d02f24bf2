"""The paper's three benchmark applications (p4 and NCS variants)."""

from .common import AppResult, ShapeError, platform_of
from .costs import AppCosts, ELC_COSTS, IPX_COSTS, costs_for_platform

# ``run_<app>_<variant>``: imported, and numpy with it, when first asked for
_RUNNERS = {f"run_{app}_{variant}": module for app, module in (
    ("fft", ".fft"), ("jpeg", ".jpeg.distributed"), ("matmul", ".matmul"))
    for variant in ("ncs", "p4")}

__all__ = [
    "AppResult", "ShapeError", "platform_of",
    "AppCosts", "ELC_COSTS", "IPX_COSTS", "costs_for_platform", *_RUNNERS,
]


def __getattr__(name: str):
    if name not in _RUNNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(_RUNNERS[name], __name__), name)
