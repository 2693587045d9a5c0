"""Multi-precision arithmetic substrate (GNU GMP substitute).

The paper builds its public-key software layers on GNU GMP's ``mpn``
(limb-vector) and ``mpz`` (signed integer) layers.  This package is a
from-scratch reimplementation of the subset the security platform
needs, with the same structural split:

- :mod:`repro.mp.mpn` -- low-level primitives on vectors of limbs
  (``add_n``, ``sub_n``, ``mul_1``, ``addmul_1``, ...).  These are the
  *leaf routines* that the methodology characterizes, macro-models and
  accelerates with custom instructions.
- :mod:`repro.mp.mpz` -- sign-magnitude arbitrary-precision integers
  built on the mpn layer.
- :mod:`repro.mp.hooks` -- a tracing hook that reports every leaf
  routine invocation (name + size parameters) so the macro-modeling
  layer can estimate cycle counts during native execution.
- :mod:`repro.mp.prng` -- a small deterministic PRNG so every
  experiment in the repository is reproducible.
- :mod:`repro.mp.mpn_reference` -- the limb-loop forms of the mpn
  routines that :mod:`repro.mp.mpn` computes flat (packed bignums).
  A test oracle only: the equivalence suite holds the flat routines
  value- and trace-identical to it; production code never calls it.
"""

from repro.mp.limb import Radix, RADIX16, RADIX32
from repro.mp.mpz import Mpz
from repro.mp.prng import DeterministicPrng


def active_backend() -> str:
    """Name of the mpn implementation in use.

    Always ``"fast"`` (the flat routines of :mod:`repro.mp.mpn`); kept
    so run reports can state it.
    """
    return "fast"


__all__ = ["Radix", "RADIX16", "RADIX32", "Mpz", "DeterministicPrng",
           "active_backend"]
