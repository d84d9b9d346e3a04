"""Submodel indexing: bit-mask subsets of the covariates."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SweepTooLargeError

_SWEEP_CAP = 20


@dataclass(frozen=True, order=True)
class SubmodelId:
    """A subset S of the p covariate indices, encoded as a p-bit mask."""

    mask: int
    p: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.p):
            raise ValueError(f"mask {self.mask} out of range for p={self.p}")

    @classmethod
    def from_indices(cls, indices, p: int) -> "SubmodelId":
        mask = 0
        for j in indices:
            if not 0 <= j < p:
                raise ValueError(f"covariate index {j} out of range for p={p}")
            mask |= 1 << j
        return cls(mask, p)

    @classmethod
    def narrow(cls, p: int) -> "SubmodelId":
        return cls(0, p)

    @classmethod
    def wide(cls, p: int) -> "SubmodelId":
        return cls((1 << p) - 1, p)

    def indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.p) if self.mask >> j & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_wide(self) -> bool:
        return self.mask == (1 << self.p) - 1

    def label(self) -> str:
        """Submodel label S1..S{2^p}: narrow is S1, wide is S{2^p}."""
        return f"S{self.mask + 1}"

    def variable_names(self, names=None) -> tuple[str, ...]:
        if not names:
            names = tuple(f"x{j + 1}" for j in range(self.p))
        return tuple(names[j] for j in self.indices())


def enumerate_submodels(p: int) -> list[SubmodelId]:
    """All 2^p candidate subsets in ascending mask order (narrow first)."""
    if p > _SWEEP_CAP:
        raise SweepTooLargeError(
            f"exhaustive sweep over 2^{p} submodels refused (cap p={_SWEEP_CAP})"
        )
    return [SubmodelId(mask, p) for mask in range(1 << p)]

