"""Construction profiles: family, integer parameters, and derived data.

A profile pins down one instance of the linear-form construction:

* ``section2`` -- odd s >= 3, even n > 0; poles at the negative integers
  0..n, lcm index n, prime window 2*sqrt(n) < p <= n.
* ``general`` -- odd s >= 5 and a tuple eta = (eta_0, ..., eta_s) of
  positive integers with 0 < eta_j < eta_0/2 and
  sum eta_j <= (s-1) eta_0 / 2; half-integer shift data h_j, pole window
  [N, h_0-N-1], lcm index M, prime window sqrt(2 h_0) < p <= M.

Everything derived (h, N, M, the normalizing factor, pole and summation
conventions) lives here, each fact derived once, so that downstream
modules never re-derive it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._records import frozen
from .numtheory import CarrySpec, eta_violations


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

    # -- shared derived data --------------------------------------------------

    @property
    def is_section2(self) -> bool:
        return self.family == "section2"

    @cached_property
    def carry_spec(self) -> CarrySpec:
        if self.is_section2:
            return CarrySpec("section2")
        return CarrySpec("general", self.eta)

    @property
    def mu(self) -> Fraction:
        """Growth index of the lcm: lim d^(1/n) = e**mu."""
        return Fraction(self.d_index, self.n)

    @property
    def d_index(self) -> int:
        """m such that d_m clears all coefficient denominators; also the
        top of the cancellation factor's prime window."""
        return self.n if self.is_section2 else self.M

    @property
    def phi_lower_sq(self) -> int:
        """Primes p <= d_index enter the cancellation factor iff p*p > this."""
        return 4 * self.n if self.is_section2 else 2 * self.h0

    # -- general-family shift data --------------------------------------------

    @property
    def h0(self) -> int:
        self._general_only()
        return self.eta[0] * self.n + 1

    @property
    def h(self) -> tuple[Fraction, ...]:
        """(h_0, h_1, ..., h_s); h_j = eta_j n + 1/2 for j >= 1."""
        self._general_only()
        return (Fraction(self.h0),) + tuple(
            Fraction(2 * ej * self.n + 1, 2) for ej in self.eta[1:])

    @property
    def N(self) -> int:
        self._general_only()
        return self.n * min(self.eta[1:])

    @property
    def M(self) -> int:
        self._general_only()
        e0 = self.eta[0]
        return self.n * max(e0 - 2 * min(self.eta[1:]), self.eta[1])

    @cached_property
    def gamma(self) -> Fraction:
        """Normalizing factor of the general rational function (exact)."""
        self._general_only()
        e0, n = self.eta[0], self.n
        num = 4 ** (e0 * n)
        for ej in self.eta[2:]:
            num *= math.factorial((e0 - 2 * ej) * n)
        return Fraction(num, math.factorial(self.eta[1] * n) ** 2)

    # -- decomposition conventions ---------------------------------------------

    @property
    def pole_ks(self) -> range:
        """Pole indices k: poles sit at t = -(k + pole_offset)."""
        if self.is_section2:
            return range(0, self.n + 1)
        return range(self.N, self.h0 - self.N)

    @property
    def pole_offset(self) -> Fraction:
        return Fraction(0) if self.is_section2 else Fraction(1, 2)

    @property
    def reflection_constant(self) -> int:
        """c with a_{i,k} = (-1)^(i+gap) a_{i, c-k}, gap the degree gap of
        the rational function (``rationalfn.partial_fractions``).  Both
        families have an even gap, so the sign is (-1)^i: for section2 the
        gap is (n+1)s - (3n+1), even for odd s and even n; for the general
        family it is (s-1)(eta_0 n + 1) - 2n sum_{j>=1} eta_j, even for odd s.
        """
        return self.n if self.is_section2 else self.h0 - 1

    def ell_origin(self, k: int) -> int:
        """Start index of the shifted inner sum attached to pole k."""
        return k - self.reflection_constant // 2

    @property
    def series_start(self) -> int:
        """First summation index at which the rational function can be nonzero."""
        return self.n + 1 if self.is_section2 else 0

    @property
    def series_argument_shift(self) -> Fraction:
        """The series term at index nu evaluates the function at nu + shift."""
        return Fraction(-1, 2) if self.is_section2 else Fraction(0)

    @property
    def series_sign(self) -> int:
        """Sign of r_n against the plain sum of (-1)**nu times the terms:
        (-1)**j, j = shift + pole_offset - 1/2 (see ``_assemble``)."""
        j = self.series_argument_shift + self.pole_offset - Fraction(1, 2)
        return -1 if j % 2 else 1

    @property
    def asymptotic_eta(self) -> tuple[int, ...]:
        """eta tuple feeding the growth-rate maximization."""
        if self.is_section2:
            return (3,) + (1,) * self.s
        return self.eta

    def _general_only(self):
        if self.is_section2:
            raise AttributeError("shift data exists only for the general family")

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
