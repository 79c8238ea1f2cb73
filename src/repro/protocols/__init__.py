"""Protocol library: the paper's protocols plus extensions and invariants."""

from .handwritten import HAND_CONFIG, handwritten_migratory
from .invalidate import invalidate_protocol
from .invariants import (
    INVALIDATE_SPEC,
    MESI_SPEC,
    MIGRATORY_SPEC,
    MSI_SPEC,
    CoherenceSpec,
    async_structural_invariants,
    coherence_invariants,
    holders,
)
from .mesi import mesi_protocol
from .migratory import migratory_protocol
from .msi import msi_protocol
from .symmetry import (
    INVALIDATE_SYMMETRY,
    MESI_SYMMETRY,
    MIGRATORY_SYMMETRY,
    MSI_SYMMETRY,
    symmetry_spec_for,
)

#: The library protocols by name — the one table the CLI's protocol
#: choices and :func:`repro.check.spec.build_system` both read.
LIBRARY_PROTOCOLS = {
    "mesi": mesi_protocol,
    "migratory": migratory_protocol,
    "invalidate": invalidate_protocol,
    "msi": msi_protocol,
}

__all__ = [
    "LIBRARY_PROTOCOLS",
    "CoherenceSpec", "HAND_CONFIG", "INVALIDATE_SPEC", "MIGRATORY_SPEC",
    "MSI_SPEC",
    "async_structural_invariants", "coherence_invariants",
    "handwritten_migratory", "holders", "invalidate_protocol",
    "migratory_protocol", "msi_protocol", "mesi_protocol",
    "MESI_SPEC", "MESI_SYMMETRY",
    "INVALIDATE_SYMMETRY", "MIGRATORY_SYMMETRY", "MSI_SYMMETRY",
    "symmetry_spec_for",
]
