"""Unit tests for reporting and shape checks."""

import pytest

from repro.bench.microbench import size_sweep
from repro.bench.report import (
    ShapeCheck,
    assert_checks,
    check,
    format_size,
    microbench_shape_checks,
    ratio_check,
    series_table,
)
from repro.core.hierarchy import Hierarchy
from repro.topology.machines import hydra

H = Hierarchy((4, 2, 2, 8))


class TestChecks:
    def test_check_str(self):
        c = check("thing holds", True, "detail")
        assert str(c) == "[PASS] thing holds: detail"
        assert "[FAIL]" in str(check("x", False, "d"))

    def test_ratio_check(self):
        assert ratio_check("r", 4.0, 2.0, 1.5).passed
        assert not ratio_check("r", 2.0, 4.0, 1.5).passed

    def test_assert_checks_raises_on_failure(self):
        with pytest.raises(AssertionError, match="shape checks failed"):
            assert_checks([check("bad", False, "nope")])

    def test_assert_checks_passes(self):
        assert_checks([check("good", True, "yes")])


class TestFormatting:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [(512, "512 B"), (16e3, "16 KB"), (4e6, "4 MB"), (1e9, "1 GB")],
    )
    def test_format_size(self, nbytes, expected):
        assert format_size(nbytes) == expected

    def test_series_table(self):
        topo = hydra(4)
        series = size_sweep(
            topo, H, [(0, 1, 2, 3), (3, 2, 1, 0)], 16, "alltoall", [1e6, 1e7]
        )
        table = series_table(series)
        lines = table.splitlines()
        assert len(lines) == 3  # header + 2 sizes
        assert "0-1-2-3 x1" in lines[0]
        assert "3-2-1-0 xN" in lines[0]

    def test_series_table_empty(self):
        assert series_table([]) == "(no series)"

    def test_scenario_filter(self):
        topo = hydra(4)
        series = size_sweep(topo, H, [(0, 1, 2, 3)], 16, "alltoall", [1e6])
        only_single = series_table(series, scenario="single")
        assert "xN" not in only_single


def test_microbench_shape_checks_on_small_machine():
    topo = hydra(8)
    h8 = Hierarchy((8, 2, 2, 8))
    series = size_sweep(
        topo, h8, [(0, 1, 2, 3), (3, 2, 1, 0)], 16, "alltoall", [1e6, 64e6]
    )
    checks = microbench_shape_checks(
        series, spread_order=(0, 1, 2, 3), packed_order=(3, 2, 1, 0),
        contention_factor=1.5,
    )
    assert all(isinstance(c, ShapeCheck) for c in checks)
    assert_checks(checks)
