"""Construction profiles: family, integer parameters, and derived data.

A profile pins down one instance of the linear-form construction.  Both
families build one rational function from a tuple ``shape`` =
(eta_0, ..., eta_s): h_0 = eta_0 n + 1, poles at t = -(k + 1/2) for k
in the window [N, h_0-N-1] with N = n min_{j>=1} eta_j, lcm index M
(``d_index``), and the carry function of ``numtheory`` at that shape.
They differ only in their parameter rules, their prime window and the
decay-rate cross-check that ``asymptotics`` runs for section 2:

* ``section2`` -- odd s >= 3, even n > 0; shape (3, 1, ..., 1), so
  h_0 = 3n + 1, poles k = n..2n and M = n; the prime window
  2*sqrt(n) < p <= n.
* ``general`` -- odd s >= 5 and a tuple eta = (eta_0, ..., eta_s) of
  positive integers with 0 < eta_j < eta_0/2 and
  sum eta_j <= (s-1) eta_0 / 2; shape eta and the prime window
  sqrt(2 h_0) < p <= M.

Everything derived (h_0, N, d_index, the normalizing factor, the pole
window) lives here, each fact derived once, so that downstream modules
never re-derive it.  The inner-sum origins are not here: they follow
from the table's pole window (``decomposition.beta_coefficients``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._records import frozen
from .numtheory import eta_violations


class ProfileError(ValueError):
    """Raised when profile parameters violate the construction conditions."""


def profile_violations(family: str, s: int, n: int,
                       eta: tuple[int, ...] | None = None) -> list[str]:
    """All violated parameter conditions, as human-readable strings."""
    bad = []
    if family == "section2":
        if eta is not None:
            bad.append("section2 takes no eta tuple")
        if s < 3 or s % 2 == 0:
            bad.append(f"s must be odd and >= 3, got {s}")
        if n < 2 or n % 2 == 1:
            bad.append(f"n must be even and > 0, got {n}")
    elif family == "general":
        if s < 5 or s % 2 == 0:
            bad.append(f"s must be odd and >= 5, got {s}")
        if n < 1:
            bad.append(f"n must be positive, got {n}")
        if not eta or len(eta) != s + 1:
            bad.append(f"eta must have s+1 = {s + 1} entries")
        else:
            bad += eta_violations(eta)
            if (eta[0] * n) % 2 == 1:
                bad.append(f"eta_0 * n must be even, got {eta[0]}*{n}")
    else:
        bad.append(f"unknown family {family!r}")
    return bad


@frozen
class Profile:
    family: str
    s: int
    n: int
    eta: tuple[int, ...] | None = None

    def __post_init__(self):
        bad = profile_violations(self.family, self.s, self.n, self.eta)
        if bad:
            raise ProfileError("; ".join(bad))

    # -- the family's arithmetic ----------------------------------------------

    @property
    def is_section2(self) -> bool:
        return self.family == "section2"

    @property
    def phi_lower_sq(self) -> int:
        """Primes p <= d_index enter the cancellation factor iff p*p > this."""
        return 4 * self.n if self.is_section2 else 2 * self.h0

    # -- the construction, shared by both families ------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """The eta tuple the rational function and the carry function are
        built from: section2 is the general construction at
        eta = (3, 1, ..., 1)."""
        return (3,) + (1,) * self.s if self.is_section2 else self.eta

    @property
    def mu(self) -> Fraction:
        """Growth index of the lcm: lim d^(1/n) = e**mu."""
        return Fraction(self.d_index, self.n)

    @property
    def d_index(self) -> int:
        """The lcm index M: d_M clears all coefficient denominators; also
        the top of the cancellation factor's prime window."""
        e0, e1 = self.shape[:2]
        return self.n * max(e0 - 2 * min(self.shape[1:]), e1)

    @property
    def h0(self) -> int:
        """The function vanishes at t = -1, ..., -(h_0 - 1)."""
        return self.shape[0] * self.n + 1

    @property
    def N(self) -> int:
        return self.n * min(self.shape[1:])

    @cached_property
    def gamma(self) -> Fraction:
        """Normalizing factor of the rational function (exact)."""
        e0, e1 = self.shape[:2]
        num = 4 ** (e0 * self.n)
        for ej in self.shape[2:]:
            num *= math.factorial((e0 - 2 * ej) * self.n)
        return Fraction(num, math.factorial(e1 * self.n) ** 2)

    @property
    def pole_ks(self) -> range:
        """Pole indices k: poles sit at t = -(k + 1/2)."""
        return range(self.N, self.h0 - self.N)

    def label(self) -> str:
        if self.is_section2:
            return f"section2(s={self.s}, n={self.n})"
        return f"general(eta={self.eta}, n={self.n})"


THEOREM1_ETA = (31, 10, 10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12)


def section2(s: int, n: int) -> Profile:
    return Profile("section2", s, n)


def general(eta, n: int) -> Profile:
    eta = tuple(int(e) for e in eta)
    return Profile("general", len(eta) - 1, n, eta)


# The shipped presets, in the shape of a profile JSON object (less the
# run options); ``n`` lists the orders a full run covers.
PRESETS = {
    "section2-s17": {"family": "section2", "s": 17, "n": (2,)},
    "theorem1": {"family": "general", "s": 13, "eta": THEOREM1_ETA,
                 "n": (2, 4)},
}


def profile_from_spec(spec: dict, n: int) -> Profile:
    """The profile at order n of a ``PRESETS`` value or a checked profile
    JSON object."""
    eta = spec.get("eta")
    return Profile(spec["family"], spec["s"], n, tuple(eta) if eta else None)


def preset(name: str, n: int = 2) -> Profile:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    return profile_from_spec(PRESETS[name], n)
