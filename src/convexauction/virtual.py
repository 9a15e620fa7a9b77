"""Discrete virtual values, their positive part, and the regularity check.

For type grid z_1 < ... < z_K with pmf f and cdf F, the virtual value at
index k is

    phi_k = z_k - (z_{k+1} - z_k) * (1 - F_k) / f_k,

with the sentinel z_{K+1} = z_K, so phi_K = z_K exactly.  The mass above k,
1 - F_k, is taken as written where F_k <= 1/2 and as f_{k+1} + ... + f_K,
summed from the top, elsewhere: near the top 1 - F_k would cancel to
rounding noise, and a hazard of noise over a tiny f_k can make a regular
distribution read irregular (binomial:58,0.5).  A hazard term past the
float range, from a subnormal f_k, is refused with ValueError naming the
bidder, the type and its pmf entry: binomial:t,0.5 first overflows at
t = 1024, binomial:t,0.7 at 590 and binomial:t,0.9 at 309.  A phi within
1e-12 * max_k z_k of zero is exactly 0 (uniform:5's middle type computes
+1.1e-16): a score of zero never wins supply, and rounding must not decide
whether a type competes.  A bidder's distribution is regular when phi is
non-decreasing in k; regularity is what makes virtual-value-maximizing
allocations monotone, so it is reported per bidder rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AuctionInstance, _frozen_array


@dataclass(frozen=True, eq=False)
class VirtualValueTable:
    """phi and phi^+ = max(phi, 0), one vector per bidder (or per class); ragged."""

    phi: tuple[np.ndarray, ...]
    phi_plus: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(_frozen_array(p) for p in self.phi))
        object.__setattr__(
            self, "phi_plus", tuple(_frozen_array(p) for p in self.phi_plus)
        )


def virtual_values(instance: AuctionInstance, bidders=None) -> VirtualValueTable:
    """Virtual value table for each of ``bidders`` (every bidder by default),
    in order; a profile space passes its classes' first bidders.

    phi^+ is precomputed alongside phi because several pipelines consume it.
    """
    phi = []
    with np.errstate(over="ignore"):  # a hazard term past the float range is refused below
        for i in range(instance.n) if bidders is None else bidders:
            z = instance.values(i)
            gaps = instance.space(i).gaps
            f = instance.pmf(i)
            cdf = instance.dist(i).cdf
            tail = np.where(cdf <= 0.5, 1.0 - cdf, np.append(np.cumsum(f[:0:-1])[::-1], 0.0))
            # gaps[-1] == 0 makes the hazard term vanish at the top type exactly.
            p = z - gaps * tail / f
            if not np.isfinite(p).all():
                k = int(np.isfinite(p).argmin())
                raise ValueError(f"bidder {i}'s virtual value at type {k} overflows: its pmf "
                                 f"entry {float(f[k])!r} is too small")
            p[np.abs(p) <= 1e-12 * z[-1]] = 0.0  # z ascends from >= 0, so z[-1] = max|z|
            phi.append(p)
    plus = [np.maximum(p, 0.0) for p in phi]
    return VirtualValueTable(tuple(phi), tuple(plus))


def is_regular(table: VirtualValueTable) -> tuple[bool, ...]:
    """True per entry of ``table`` iff its phi is non-decreasing across type indices."""
    return tuple(bool(np.all(np.diff(p) >= 0)) for p in table.phi)


def virtual_values_matrix(instance: AuctionInstance) -> np.ndarray:
    """phi_i(v_i) at every profile, shape ``(n, *instance.shape)``."""
    from .spaces import DenseSpace  # spaces imports this module
    return DenseSpace(instance).join([phi[:, None] for phi in virtual_values(instance).phi])
