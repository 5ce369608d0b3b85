"""Channel coverage and the coverage map."""

import numpy as np
import pytest

from repro.geo.coverage import (
    ChannelCoverage,
    CoverageMap,
    QUALITY_SCALE_DB,
    build_channel_coverage,
)
from repro.geo.grid import GridSpec
from repro.geo.propagation import PropagationModel
from repro.geo.transmitters import Transmitter
from repro.utils.rng import numpy_rng

GRID = GridSpec(rows=30, cols=30, cell_km=2.0)
MODEL = PropagationModel()


def _coverage(power=70.0, sigma=0.0, channel=0, towers=None):
    if towers is None:
        towers = [Transmitter(y_km=30.0, x_km=30.0, power_dbm=power, channel=channel)]
    return build_channel_coverage(
        GRID,
        towers,
        MODEL,
        shadow_rng=numpy_rng("cov", str(channel)),
        sigma_db=sigma,
        correlation_km=10.0,
    )


def test_availability_is_threshold_complement():
    cov = _coverage()
    assert np.array_equal(cov.available, cov.rss_dbm <= cov.threshold_dbm)
    assert np.array_equal(cov.covered, ~cov.available)


@pytest.mark.parametrize("name", ["available", "covered", "quality"])
def test_derived_grids_are_computed_once_and_read_only(name):
    """Per-cell lookups reuse one grid per channel, so nobody may write it."""
    cov = _coverage()
    grid = getattr(cov, name)
    assert getattr(cov, name) is grid
    with pytest.raises(ValueError):
        grid[0, 0] = grid[0, 0]


def test_coverage_shrinks_with_distance():
    """Cells near the tower are covered; far corners become available."""
    cov = _coverage(power=55.0)
    near = (15, 15)  # tower cell
    far = (0, 0)
    assert not cov.is_available(near)
    assert cov.is_available(far) or cov.rss_dbm[far] > cov.rss_dbm[near] - 1e9


def test_quality_zero_on_covered_cells():
    cov = _coverage()
    assert np.all(cov.quality[cov.covered] == 0.0)


def test_quality_monotone_in_margin():
    cov = _coverage(power=50.0, sigma=0.0)
    quality = cov.quality
    rss = cov.rss_dbm
    available = cov.available
    cells = np.argwhere(available)
    if len(cells) >= 2:
        ordered = sorted(map(tuple, cells), key=lambda c: rss[c])
        weakest, strongest = ordered[0], ordered[-1]
        assert quality[weakest] >= quality[strongest]


def test_quality_clamped_to_unit_interval():
    cov = _coverage(power=10.0)  # everything available with huge margins
    assert np.all((0.0 <= cov.quality) & (cov.quality <= 1.0))


def test_two_towers_add_power():
    one = _coverage(power=65.0)
    two = _coverage(
        towers=[
            Transmitter(y_km=30.0, x_km=30.0, power_dbm=65.0, channel=0),
            Transmitter(y_km=30.0, x_km=30.0, power_dbm=65.0, channel=0),
        ]
    )
    # Doubling power in mW adds ~3 dB everywhere.
    assert np.allclose(two.rss_dbm - one.rss_dbm, 10 * np.log10(2), atol=1e-9)


def test_builder_validates_towers():
    with pytest.raises(ValueError):
        build_channel_coverage(
            GRID, [], MODEL, shadow_rng=numpy_rng("x"), sigma_db=0, correlation_km=5
        )
    mixed = [
        Transmitter(y_km=0, x_km=0, power_dbm=60, channel=0),
        Transmitter(y_km=0, x_km=0, power_dbm=60, channel=1),
    ]
    with pytest.raises(ValueError):
        build_channel_coverage(
            GRID, mixed, MODEL, shadow_rng=numpy_rng("x"), sigma_db=0, correlation_km=5
        )


def test_coverage_map_available_set_and_quality_vector():
    channels = [_coverage(power=80.0, channel=0), _coverage(power=20.0, channel=1)]
    cmap = CoverageMap(grid=GRID, channels=channels)
    cell = (0, 0)
    available = cmap.available_set(cell)
    qualities = cmap.quality_vector(cell)
    assert qualities.shape == (2,)
    for ch in range(2):
        assert (ch in available) == channels[ch].is_available(cell)
        if ch not in available:
            assert qualities[ch] == 0.0


def test_coverage_map_requires_dense_channels():
    with pytest.raises(ValueError):
        CoverageMap(grid=GRID, channels=[_coverage(channel=1)])


def test_subset():
    cmap = CoverageMap(
        grid=GRID, channels=[_coverage(channel=i) for i in range(4)]
    )
    sub = cmap.subset(2)
    assert sub.n_channels == 2
    with pytest.raises(ValueError):
        cmap.subset(0)
    with pytest.raises(ValueError):
        cmap.subset(5)


def test_stacks_shapes():
    cmap = CoverageMap(
        grid=GRID, channels=[_coverage(channel=i) for i in range(3)]
    )
    assert cmap.availability_stack().shape == (3, 30, 30)
    assert cmap.quality_stack().shape == (3, 30, 30)


def test_ascii_map():
    cmap = CoverageMap(grid=GRID, channels=[_coverage(channel=0)])
    art = cmap.ascii_map(0)
    lines = art.split("\n")
    assert len(lines) == 30 and all(len(line) == 30 for line in lines)
    assert set(art) <= {"#", ".", "\n"}
