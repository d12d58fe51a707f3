"""Independent right-hand sides for the Kronecker lattice-sum instances.

The oracle shares no code with ``updownlab.lfunctions``: the character comes
from Euler's criterion over the prime factors of ``a``, and each L-value from
mpmath's Hurwitz zeta,

    L_d(2) = |d|^-2 sum_{a=1}^{|d|} (d/a) zeta(2, a/|d|).

Building the 31 L-values of the corpus at 315 digits takes about 10 s, so
they can be kept in a file, exactly, as mpmath's (sign, mantissa, exponent,
bit count) tuples.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Optional

import mpmath


def _prime_symbol(d: int, p: int) -> int:
    """(d/p) for a prime p: Euler's criterion, and d mod 8 for p = 2."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1, multiplicative over n's primes."""
    result = 1
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            n //= p
            result *= _prime_symbol(d, p)
        p += 1
    return result


def discriminants(instances) -> set:
    """The d whose L_d(2) the instances' right-hand sides need."""
    out = set()
    for inst in instances:
        if inst.kind == "KRONECKER":
            out |= {inst.d1.d, inst.d2.d}
        else:
            out.add(inst.d1.d * inst.d2.d)
    return out


def _load(path: Optional[Path], dps: int) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if data.get("dps") != dps:
        return {}
    with mpmath.workdps(dps):
        return {int(d): mpmath.mpf((s, int(m, 16), e, b))
                for d, (s, m, e, b) in data["l2"].items()}


def _save(path: Path, dps: int, values: dict) -> None:
    data = {"dps": dps, "l2": {str(d): [v._mpf_[0], hex(v._mpf_[1]), v._mpf_[2],
                                        v._mpf_[3]] for d, v in sorted(values.items())}}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1))
    os.replace(tmp, path)


class LatticeOracle:
    """Right-hand sides of lattice-sum instances at a fixed decimal precision,
    from L-values computed once per discriminant, or read from ``cache``."""

    def __init__(self, dps: int, needed: Iterable[int], cache: Optional[Path] = None):
        self.dps = dps
        self._l2 = _load(cache, dps)
        missing = sorted(set(needed) - set(self._l2))
        for d in missing:
            self._l2[d] = self._compute(d)
        if missing and cache is not None:
            _save(cache, dps, self._l2)

    def _compute(self, d: int):
        q = abs(d)
        with mpmath.workdps(self.dps):
            total = mpmath.mpf(0)
            for a in range(1, q + 1):
                chi = kronecker(d, a)
                if chi:
                    total += chi * mpmath.zeta(2, mpmath.mpf(a) / q)
            return total / q**2

    def l2(self, d: int):
        return self._l2[d]

    def rhs(self, instance):
        """-twist d1 d2 L_d1(2) L_d2(2) / (4 zeta(4)) for a KRONECKER
        instance; zeta(2) L_{d1 d2}(2) replaces the product for DIRICHLET."""
        d1, d2 = instance.d1.d, instance.d2.d
        with mpmath.workdps(self.dps):
            if not instance.points:
                return mpmath.mpf(0)
            if instance.kind == "KRONECKER":
                product = self.l2(d1) * self.l2(d2)
            else:
                product = mpmath.zeta(2) * self.l2(d1 * d2)
            twist = mpmath.mpf(instance.twist.numerator) / instance.twist.denominator
            return -twist * d1 * d2 * product / (4 * mpmath.zeta(4))
