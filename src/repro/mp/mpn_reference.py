"""Limb-loop reference forms of the flat :mod:`repro.mp.mpn` routines.

:mod:`repro.mp.mpn` computes ``addmul_1``, ``_addmul_1_into``,
``mul_basecase``, ``sqr``, ``divrem_1`` and ``divrem`` on packed
bignums.  The limb-by-limb loops they replaced -- the faithful form of
the target's assembly -- live here unchanged, together with the
in-place ``_submul_1_into`` / ``_add_n_into`` helpers that only these
loops use.

This module is a **test oracle**: production code calls none of it.
The equivalence suite and the ``mpn_fast`` bench scenario compare
every flat routine against its loop here on values *and* on
:func:`repro.mp.hooks.trace` sequences.  The loops call the rest of
the mpn layer (``mul_1``, ``lshift``, ``mul``...) through
:mod:`repro.mp.mpn`, so patching the six flat names in that module
with these functions reproduces the all-reference library end to end.
"""

from typing import Tuple

from repro.mp import mpn
from repro.mp.hooks import trace
from repro.mp.limb import DEFAULT_RADIX, Radix
from repro.mp.mpn import Limbs

#: The :mod:`repro.mp.mpn` names whose flat definitions this module
#: mirrors.
ROUTINES = ("addmul_1", "_addmul_1_into", "mul_basecase", "sqr",
            "divrem_1", "divrem")


def addmul_1(rp: Limbs, up: Limbs, v: int,
             radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """rp += up * v (equal lengths); return (new rp, carry limb).

    The multiply-accumulate inner loop of schoolbook multiplication --
    the hottest leaf routine in public-key processing and the
    ``mpn_addmul_1`` of paper Figure 5(b).
    """
    if len(rp) != len(up):
        raise ValueError("addmul_1 requires equal-length operands")
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    out = []
    carry = 0
    for r, u in zip(rp, up):
        t = r + u * v + carry
        out.append(t & mask)
        carry = t >> bits
    return out, carry


def _addmul_1_into(rp: Limbs, offset: int, up: Limbs, v: int,
                   radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] += up * v in place; return carry limb."""
    trace("mpn_addmul_1", n=len(up))
    bits, mask = radix.bits, radix.mask
    carry = 0
    i = offset
    for u in up:
        t = rp[i] + u * v + carry
        rp[i] = t & mask
        carry = t >> bits
        i += 1
    return carry


def _submul_1_into(rp: Limbs, offset: int, up: Limbs, v: int,
                   radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] -= up * v in place; return borrow limb."""
    trace("mpn_submul_1", n=len(up))
    bits, mask, base = radix.bits, radix.mask, radix.base
    borrow = 0
    i = offset
    for u in up:
        prod = u * v + borrow
        t = rp[i] - (prod & mask)
        borrow = prod >> bits
        if t < 0:
            t += base
            borrow += 1
        rp[i] = t
        i += 1
    return borrow


def _add_n_into(rp: Limbs, offset: int, up: Limbs,
                radix: Radix = DEFAULT_RADIX) -> int:
    """rp[offset:offset+len(up)] += up in place; return carry out."""
    trace("mpn_add_n", n=len(up))
    base = radix.base
    carry = 0
    i = offset
    for u in up:
        s = rp[i] + u + carry
        carry = 1 if s >= base else 0
        rp[i] = s - base if carry else s
        i += 1
    return carry


def mul_basecase(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Schoolbook product of two vectors (length = len(up)+len(vp))."""
    un = len(up)
    rp = [0] * (un + len(vp))
    lo, carry = mpn.mul_1(up, vp[0], radix)
    rp[:un] = lo
    rp[un] = carry
    for i in range(1, len(vp)):
        rp[i + un] += _addmul_1_into(rp, i, up, vp[i], radix)
    return rp


def sqr(up: Limbs, radix: Radix = DEFAULT_RADIX) -> Limbs:
    """Square of a vector (currently via mul; a true sqr saves ~half)."""
    return mpn.mul(up, up, radix)


def divrem_1(up: Limbs, v: int, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, int]:
    """Divide a vector by a single limb; return (quotient, remainder limb)."""
    if v == 0:
        raise ZeroDivisionError("division by zero limb")
    trace("mpn_divrem_1", n=len(up))
    bits = radix.bits
    qp = [0] * len(up)
    rem = 0
    for i in range(len(up) - 1, -1, -1):
        cur = (rem << bits) | up[i]
        qp[i] = cur // v
        rem = cur - qp[i] * v
    return mpn.normalize(qp), rem


def divrem(up: Limbs, vp: Limbs, radix: Radix = DEFAULT_RADIX) -> Tuple[Limbs, Limbs]:
    """Knuth Algorithm D division; return (quotient, remainder) vectors."""
    up, vp = mpn.normalize(up), mpn.normalize(vp)
    if vp == [0]:
        raise ZeroDivisionError("mpn division by zero")
    if len(vp) == 1:
        q, r = divrem_1(up, vp[0], radix)
        return q, [r]
    if mpn.cmp(up, vp, radix) < 0:
        return [0], up
    bits, base, mask = radix.bits, radix.base, radix.mask

    # D1: normalize so the divisor's top limb has its high bit set.
    shift = bits - vp[-1].bit_length()
    if shift:
        vn, _ = mpn.lshift(vp, shift, radix)
        un, carry = mpn.lshift(up, shift, radix)
        un = un + [carry]
    else:
        vn = list(vp)
        un = list(up) + [0]
    n = len(vn)
    m = len(un) - n - 1
    qp = [0] * (m + 1)
    vtop, vnext = vn[-1], vn[-2]

    for j in range(m, -1, -1):
        # D3: estimate quotient digit from the top two/three limbs.
        # (On the target this is a division-free shift-subtract estimate;
        # see the divrem_qest kernel.)
        trace("mpn_divrem_qest", n=1)
        num = (un[j + n] << bits) | un[j + n - 1]
        qhat = num // vtop
        rhat = num - qhat * vtop
        while qhat >= base or qhat * vnext > ((rhat << bits) | un[j + n - 2]):
            qhat -= 1
            rhat += vtop
            if rhat >= base:
                break
        # D4: multiply and subtract (in place on the un window).
        borrow = _submul_1_into(un, j, vn, qhat, radix)
        top = un[j + n] - borrow
        if top < 0:
            # D6: qhat was one too large; add back.
            qhat -= 1
            top += _add_n_into(un, j, vn, radix)
            top += base if top < 0 else 0
        un[j + n] = top & mask
        qp[j] = qhat

    rem = mpn.normalize(un[:n])
    if shift:
        rem, _ = mpn.rshift(rem, shift, radix)
    return mpn.normalize(qp), mpn.normalize(rem)
