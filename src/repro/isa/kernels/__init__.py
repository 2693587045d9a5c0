"""XT32 assembly kernels for the library leaf routines.

Each kernel exists in a base-ISA variant and (where the formulation
phase produced custom instructions) an extended-ISA variant.  Host-side
runner helpers marshal Python values into simulator memory, execute the
kernel, and return results plus cycle counts; the test suite checks the
kernels bit-exact against the reference Python implementations, and the
characterization phase fits macro-models to their cycle counts.
"""

import weakref

from repro.isa.assembler import assemble
from repro.isa.machine import Machine, MachineFleet

# Base-ISA sources assemble to the same Program every time, so memoize
# them: reconstructing a kernel object while another one of the same
# source is alive (as the characterization jobs do per stimulus family)
# then shares one Program object, which is what lets the weak
# per-Program threaded-code cache hit instead of re-predecoding.  The
# memo holds its Programs weakly, so a Program -- and its compiled code
# -- is freed with the last kernel using it rather than pinned for the
# life of the process.  Extended kernels pass an ExtensionSet whose
# contents callers may still grow, so those assemble fresh.
_BASE_PROGRAMS = weakref.WeakValueDictionary()


def _assemble_memo(source: str, extensions):
    if extensions is not None and len(extensions):
        return assemble(source, extensions)
    program = _BASE_PROGRAMS.get(source)
    if program is None:
        program = _BASE_PROGRAMS[source] = assemble(source, None)
    return program


class KernelRunner:
    """Assembles a kernel source once and spawns fresh machines per run."""

    def __init__(self, source: str, extensions=None, mem_size: int = 1 << 20):
        self.source = source
        self.extensions = extensions
        self.mem_size = mem_size
        self.program = _assemble_memo(source, extensions)
        self._fleet = None

    def machine(self) -> Machine:
        return Machine(self.program, self.extensions, self.mem_size)

    def fleet(self) -> MachineFleet:
        """A cached :class:`MachineFleet` for batched runs: machines are
        reused (reset, not reconstructed) across stimulus repetitions."""
        if self._fleet is None:
            self._fleet = MachineFleet(self.program, self.extensions,
                                       self.mem_size)
        return self._fleet
