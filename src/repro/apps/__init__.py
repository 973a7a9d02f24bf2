"""The paper's three benchmark applications (p4 and NCS variants)."""

# every name is imported when first asked for (PEP 562): ``run_<app>_<variant>``
# with numpy, the rest with the table apps' costs and result shape
_EXPORTS = {
    **dict.fromkeys(("AppResult", "ShapeError", "platform_of"), ".common"),
    **dict.fromkeys(("AppCosts", "ELC_COSTS", "IPX_COSTS",
                     "costs_for_platform"), ".costs"),
    **{f"run_{app}_{variant}": module for app, module in (
        ("fft", ".fft"), ("jpeg", ".jpeg.distributed"), ("matmul", ".matmul"))
       for variant in ("ncs", "p4")},
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(_EXPORTS[name], __name__), name)
