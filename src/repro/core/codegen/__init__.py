"""Code emission backends behind the pluggable target registry.

The surface is the registry API — :func:`get_target`,
:func:`list_targets`, :func:`register_target` and the
:class:`CodegenTarget` interface.  Backends load lazily on first lookup,
so importing this package does not pull every backend in.
"""

from .registry import (
    CodegenTarget,
    TargetCapabilityError,
    get_target,
    list_targets,
    register_target,
    runnable_targets,
)

__all__ = [
    "CodegenTarget",
    "TargetCapabilityError",
    "get_target",
    "list_targets",
    "register_target",
    "runnable_targets",
]
