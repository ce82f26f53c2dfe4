"""Equal-width binning of continuous columns for the contingency-table scorers."""

import warnings
from dataclasses import dataclass

import numpy as np

from .tabular import ConstantColumnError, Table


class DiscretizeError(ValueError):
    pass


@dataclass(frozen=True)
class BinEdges:
    """k equal-width bins over a column: k-1 strictly increasing interior cut points.

    The bin index function is total: values below the first edge land in bin 0,
    values at or above the last edge in bin k-1, and a value equal to an
    interior edge goes to the higher bin.
    """

    feature: str
    bin_count: int
    edges: tuple[float, ...]

    def __post_init__(self):
        if self.bin_count < 2:
            raise DiscretizeError(f"bin count must be >= 2, got {self.bin_count}")
        if len(self.edges) != self.bin_count - 1:
            raise DiscretizeError(
                f"{self.bin_count} bins need {self.bin_count - 1} edges, got {len(self.edges)}")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise DiscretizeError("edges must be strictly increasing")

    def to_json(self) -> dict:
        return {"feature": self.feature, "bin_count": self.bin_count,
                "edges": list(self.edges)}

    @classmethod
    def from_json(cls, obj: dict) -> "BinEdges":
        return cls(obj["feature"], int(obj["bin_count"]), tuple(obj["edges"]))


def equal_width_bins(column, k: int, feature: str = "") -> BinEdges:
    """Interior edges at min + i*(max-min)/k for i in 1..k-1."""
    if k < 2:
        raise DiscretizeError(f"bin count must be >= 2, got {k}")
    col = np.asarray(column, dtype=np.float64)
    if col.size == 0:
        raise DiscretizeError("cannot bin an empty column")
    lo = float(col.min())
    hi = float(col.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DiscretizeError("column has non-finite values; clean rows first")
    if hi == lo:
        raise ConstantColumnError(
            f"column {feature or '<anonymous>'!r} is single-valued; cannot bin")
    edges = lo + (np.arange(1, k) * (hi - lo)) / k
    return BinEdges(feature, k, tuple(float(e) for e in edges))


def apply_bins(column, e: BinEdges) -> np.ndarray:
    """Map values to bin indices; a value equal to an edge goes to the higher bin."""
    col = np.asarray(column, dtype=np.float64)
    return np.searchsorted(np.asarray(e.edges), col, side="right")


def bin_matrix(t: Table, bins: dict[str, BinEdges]) -> np.ndarray:
    """(rows, features) bin indices of every non-label column, in feature
    order; a feature without edges (constant) is all bin 0."""
    names = t.feature_names
    out = np.zeros((t.row_count, len(names)), dtype=np.intp)
    for j, name in enumerate(names):
        if name in bins:
            out[:, j] = apply_bins(t.column(name), bins[name])
    return out


def table_bin_edges(t: Table, k: int) -> dict[str, BinEdges]:
    """Equal-width edges for every non-label column; constant columns are skipped."""
    out = {}
    for name, column in zip(t.feature_names, t.feature_matrix().T):
        try:
            out[name] = equal_width_bins(column, k, feature=name)
        except ConstantColumnError:
            warnings.warn(f"column {name!r} is constant, left unbinned", stacklevel=2)
    return out
