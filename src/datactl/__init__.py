"""datactl: a toolchain for data-control policies and privacy architectures.

Policies describe who may act on and come to hold each datum; traces of
abstract events are audited against the compliance rules C1-C5; policies map
to architectures whose possession properties are established by deduction
rules or by bounded state-space enumeration.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ActivitySets,
    DataRef,
    Policy,
    PolicyModel,
    SP,
)
from .semantics import AbstractEvent, run_trace  # noqa: F401
from .compliance import ComplianceReport, Violation, check_trace  # noqa: F401
from .architecture import Architecture, ArchEvent, Universe  # noqa: F401
from .logic import Has, HasNever, HasNot, HasSp, deduce, eval_semantic  # noqa: F401
from .mapping import (  # noqa: F401
    MappingContext,
    check_correspondence,
    compare_architectures,
    compare_policies,
    derive_architecture,
    image_trace,
)
