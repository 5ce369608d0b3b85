"""Per-channel coverage maps and quality statistics.

This is the reconstruction of the paper's FCC / TVFool data product: for
every channel ``r`` and every cell ``(m, n)``,

* the received PU signal strength ``RSS_r(m, n)`` in dBm,
* binary *availability* (the cell lies in ``C_r``, the complement of the
  PU's protected coverage: ``RSS <= threshold``), and
* the *quality statistic* ``q*_r(m, n)`` in ``[0, 1]`` on available cells.

Quality is the normalised protection margin ``(threshold - RSS) / scale``:
the further the PU signal sits below the interference threshold, the cleaner
the white-space channel.  BPM only ever uses per-cell quality *ratios*, so
any monotone map of the margin produces the same attack behaviour; the
normalisation just keeps bids in a convenient integer range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Set

import numpy as np

from repro.geo.grid import Cell, GridSpec
from repro.geo.propagation import PRACTICAL_THRESHOLD_DBM, PropagationModel
from repro.geo.terrain import shadowing_field
from repro.geo.transmitters import Transmitter

__all__ = ["ChannelCoverage", "CoverageMap", "build_channel_coverage"]

#: dB of protection margin that maps to quality 1.0.
QUALITY_SCALE_DB = 40.0


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ChannelCoverage:
    """Coverage data for a single channel over the whole grid.

    The derived grids (:attr:`available`, :attr:`covered`, :attr:`quality`)
    are computed once per channel and are read-only.
    """

    channel: int
    rss_dbm: np.ndarray
    threshold_dbm: float

    def __post_init__(self) -> None:
        if self.rss_dbm.ndim != 2:
            raise ValueError("rss_dbm must be a 2-D (rows x cols) array")

    @cached_property
    def available(self) -> np.ndarray:
        """Boolean mask of ``C_r``: cells where an SU may transmit."""
        return _frozen(self.rss_dbm <= self.threshold_dbm)

    @cached_property
    def covered(self) -> np.ndarray:
        """Boolean mask of the PU's protected coverage (unavailable cells)."""
        return _frozen(~self.available)

    @cached_property
    def quality(self) -> np.ndarray:
        """``q*_r(m, n)``: normalised protection margin, 0 on covered cells."""
        margin = np.clip(self.threshold_dbm - self.rss_dbm, 0.0, QUALITY_SCALE_DB)
        return _frozen(margin / QUALITY_SCALE_DB)

    def is_available(self, cell: Cell) -> bool:
        """True when an SU at ``cell`` may use this channel."""
        return bool(self.available[cell])

    def quality_at(self, cell: Cell) -> float:
        """The quality statistic ``q*_r`` at one cell."""
        return float(self.quality[cell])

    def availability_fraction(self) -> float:
        """Fraction of the area where this channel is usable."""
        return float(self.available.mean())


def build_channel_coverage(
    grid: GridSpec,
    transmitters: Sequence[Transmitter],
    model: PropagationModel,
    *,
    shadow_rng: np.random.Generator,
    sigma_db: float,
    correlation_km: float,
    threshold_dbm: float = PRACTICAL_THRESHOLD_DBM,
) -> ChannelCoverage:
    """Compute one channel's RSS grid from its towers.

    Multiple towers combine by power addition in the linear (milliwatt)
    domain; each tower shares the channel's shadowing field (the terrain is
    the terrain, regardless of which tower the signal comes from).
    """
    if not transmitters:
        raise ValueError("a channel needs at least one transmitter")
    channels = {t.channel for t in transmitters}
    if len(channels) != 1:
        raise ValueError("all transmitters must share one channel index")

    yy, xx = grid.centers_km()
    shadow = shadowing_field(
        grid, shadow_rng, sigma_db=sigma_db, correlation_km=correlation_km
    )
    total_mw = np.zeros((grid.rows, grid.cols))
    for tx in transmitters:
        dist = np.hypot(yy - tx.y_km, xx - tx.x_km)
        rss = model.received_dbm(tx.power_dbm, dist, shadow)
        total_mw += 10.0 ** (rss / 10.0)
    rss_dbm = 10.0 * np.log10(np.maximum(total_mw, 1e-30))
    return ChannelCoverage(
        channel=channels.pop(), rss_dbm=rss_dbm, threshold_dbm=threshold_dbm
    )


@dataclass(frozen=True)
class CoverageMap:
    """All channels' coverage over one study area."""

    grid: GridSpec
    channels: List[ChannelCoverage] = field(default_factory=list)

    def __post_init__(self) -> None:
        for idx, cov in enumerate(self.channels):
            if cov.channel != idx:
                raise ValueError(
                    f"channel list must be dense: slot {idx} holds {cov.channel}"
                )
            if cov.rss_dbm.shape != (self.grid.rows, self.grid.cols):
                raise ValueError("coverage grid shape mismatch")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def available_set(self, cell: Cell) -> Set[int]:
        """``AS(cell)``: channels an SU at this cell may bid on."""
        self.grid.require(cell)
        return {cov.channel for cov in self.channels if cov.available[cell]}

    def quality_vector(self, cell: Cell) -> np.ndarray:
        """Per-channel quality at one cell (0 where unavailable)."""
        self.grid.require(cell)
        return np.array([cov.quality[cell] for cov in self.channels])

    def availability_stack(self) -> np.ndarray:
        """(k x rows x cols) boolean availability tensor — the attacker's C_r."""
        return np.stack([cov.available for cov in self.channels])

    def quality_stack(self) -> np.ndarray:
        """(k x rows x cols) quality tensor — the attacker's q*_r(m, n)."""
        return np.stack([cov.quality for cov in self.channels])

    def subset(self, n_channels: int) -> "CoverageMap":
        """The first ``n_channels`` channels (used by the Fig. 4 sweeps)."""
        if not 1 <= n_channels <= self.n_channels:
            raise ValueError(
                f"n_channels must be in 1..{self.n_channels}, got {n_channels}"
            )
        return CoverageMap(grid=self.grid, channels=self.channels[:n_channels])

    def ascii_map(self, channel: int, *, covered_char: str = "#",
                  available_char: str = ".") -> str:
        """Text rendering of one channel's coverage (our Fig. 1(b))."""
        cov = self.channels[channel]
        rows = []
        for m in range(self.grid.rows):
            rows.append(
                "".join(
                    covered_char if cov.covered[m, n] else available_char
                    for n in range(self.grid.cols)
                )
            )
        return "\n".join(rows)
