"""Crystal lattice: direct and reciprocal metric."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["Lattice"]


@dataclass(frozen=True)
class Lattice:
    """A Bravais lattice defined by its cell parameters.

    Parameters
    ----------
    a, b, c:
        Cell edge lengths in Ångström.
    alpha, beta, gamma:
        Cell angles in degrees.
    centering:
        Lattice centering symbol used by the extinction rules:
        ``"P"``, ``"I"``, ``"F"`` or ``"diamond"``.
    """

    a: float
    b: float
    c: float
    alpha: float = 90.0
    beta: float = 90.0
    gamma: float = 90.0
    centering: str = "P"

    _direct: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _reciprocal: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("a", "b", "c"):
            ensure_positive(getattr(self, name), name)
        for name in ("alpha", "beta", "gamma"):
            angle = getattr(self, name)
            if not (0.0 < angle < 180.0):
                raise ValidationError(f"{name} must lie in (0, 180) degrees, got {angle}")
        if self.centering not in ("P", "I", "F", "diamond"):
            raise ValidationError(f"unsupported centering {self.centering!r}")

        alpha, beta, gamma = np.radians([self.alpha, self.beta, self.gamma])
        ca, cb, cg = np.cos([alpha, beta, gamma])
        sg = np.sin(gamma)
        # volume factor
        v = np.sqrt(max(1e-18, 1 - ca * ca - cb * cb - cg * cg + 2 * ca * cb * cg))
        # direct lattice vectors as rows (standard crystallographic convention)
        a_vec = np.array([self.a, 0.0, 0.0])
        b_vec = np.array([self.b * cg, self.b * sg, 0.0])
        c_vec = np.array(
            [
                self.c * cb,
                self.c * (ca - cb * cg) / sg,
                self.c * v / sg,
            ]
        )
        direct = np.vstack([a_vec, b_vec, c_vec])
        reciprocal = 2.0 * np.pi * np.linalg.inv(direct).T
        object.__setattr__(self, "_direct", direct)
        object.__setattr__(self, "_reciprocal", reciprocal)

    # ------------------------------------------------------------------ #
    @classmethod
    def cubic(cls, a: float, centering: str = "P") -> "Lattice":
        """Cubic lattice with edge *a* Å."""
        return cls(a=a, b=a, c=a, centering=centering)

    # ------------------------------------------------------------------ #
    @property
    def volume(self) -> float:
        """Unit-cell volume in Å³."""
        return float(abs(np.linalg.det(self._direct)))

    # ------------------------------------------------------------------ #
    def g_vector(self, hkl) -> np.ndarray:
        """Reciprocal lattice vector(s) for Miller indices *hkl* (crystal frame).

        ``hkl`` may be a single triple or an ``(n, 3)`` array; the result has
        matching shape.
        """
        hkl = np.asarray(hkl, dtype=np.float64)
        return hkl @ self._reciprocal
