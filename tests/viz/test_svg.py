"""Tests for the SVG chart writer and the figure glue."""

import xml.etree.ElementTree as ET

import pytest

from repro.viz import LineChart, Series


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("a", [1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series("a", [], [])


class TestLineChart:
    def chart(self, **kw):
        c = LineChart(title="t", **kw)
        c.add(Series("s1", [0, 1, 2], [0.0, 0.5, 1.0]))
        return c

    def test_renders_valid_xml(self):
        root = parse(self.chart().render())
        assert root.tag.endswith("svg")

    def test_no_series_rejected(self):
        with pytest.raises(ValueError):
            LineChart(title="empty").render()

    def test_coordinates_monotone(self):
        c = self.chart()
        assert c.x_to_px(0) < c.x_to_px(1) < c.x_to_px(2)
        # SVG y grows downward: larger data y -> smaller pixel y.
        assert c.y_to_px(1.0) < c.y_to_px(0.0)

    def test_points_inside_plot_box(self):
        c = self.chart()
        x0, y0, x1, y1 = c._plot_box()
        for x, y in [(0, 0.0), (2, 1.0), (1, 0.5)]:
            assert x0 - 0.5 <= c.x_to_px(x) <= x1 + 0.5
            assert y0 - 0.5 <= c.y_to_px(y) <= y1 + 0.5

    def test_log_scale_positions(self):
        c = LineChart(title="log", log_y=True, y_min=1e-4, y_max=1.0)
        c.add(Series("s", [0, 1], [1e-4, 1.0]))
        mid = c.y_to_px(1e-2)  # geometric midpoint
        assert mid == pytest.approx(
            (c.y_to_px(1e-4) + c.y_to_px(1.0)) / 2, abs=0.5
        )

    def test_log_scale_rejects_nonpositive_bound(self):
        c = LineChart(title="log", log_y=True, y_min=0.0)
        c.add(Series("s", [0, 1], [0.5, 1.0]))
        with pytest.raises(ValueError):
            c.render()

    def test_series_drawn_and_legend_present(self):
        svg = self.chart().render()
        assert "polyline" in svg
        assert "s1" in svg

    def test_dashed_reference_line(self):
        c = self.chart()
        c.add(Series("ref", [0, 2], [0.2, 0.2], dashed=True))
        assert "stroke-dasharray" in c.render()

    def test_title_escaped(self):
        c = LineChart(title="a < b & c")
        c.add(Series("s", [0, 1], [0, 1]))
        svg = c.render()
        assert "a &lt; b &amp; c" in svg

    def test_save(self, tmp_path):
        path = tmp_path / "chart.svg"
        self.chart().save(path)
        assert path.read_text().startswith("<svg")

    def test_degenerate_flat_series(self):
        c = LineChart(title="flat")
        c.add(Series("s", [1, 1], [3.0, 3.0]))
        parse(c.render())  # must not divide by zero


class TestFigureGlue:
    def test_fig2_svg(self, tmp_path):
        from repro.experiments import fig2
        from repro.viz import fig2_svg

        result = fig2.run(cache_blocks=256, accesses=4_000)
        paths = fig2_svg(tmp_path, result)
        assert len(paths) == 2
        for p in paths:
            parse(p.read_text())

    def test_fig3_svg(self, tmp_path):
        from repro.experiments import fig3
        from repro.experiments.runner import ExperimentScale
        from repro.viz import fig3_svg

        cells = fig3.run(
            scale=ExperimentScale(instructions_per_core=3000, seed=2),
            workloads=("canneal",),
        )
        paths = fig3_svg(tmp_path, cells)
        assert len(paths) == 4  # one per panel
        for p in paths:
            parse(p.read_text())

    def test_fig4_svg(self, tmp_path):
        from repro.experiments import fig4
        from repro.experiments.runner import ExperimentScale
        from repro.viz import fig4_svg

        result = fig4.run(
            scale=ExperimentScale(
                instructions_per_core=800, workloads=("gcc", "canneal")
            ),
            policies=("lru",),
        )
        paths = fig4_svg(tmp_path, result, policy="lru")
        assert len(paths) == 2
        for p in paths:
            parse(p.read_text())


class TestBarChart:
    from repro.viz import BarChart

    def make(self):
        from repro.viz import BarChart

        c = BarChart(title="bars", groups=["a", "b"], reference=1.0)
        c.add("s1", [1.0, 1.2])
        c.add("s2", [0.9, 1.4])
        return c

    def test_renders_valid_xml(self):
        parse(self.make().render())

    def test_value_count_validated(self):
        from repro.viz import BarChart

        c = BarChart(title="bars", groups=["a", "b"])
        with pytest.raises(ValueError):
            c.add("s", [1.0])

    def test_empty_rejected(self):
        from repro.viz import BarChart

        with pytest.raises(ValueError):
            BarChart(title="bars", groups=["a"]).render()
        c = BarChart(title="bars", groups=[])
        c.series.append(("s", []))
        with pytest.raises(ValueError):
            c.render()

    def test_bars_and_reference_drawn(self):
        svg = self.make().render()
        assert svg.count("<rect") >= 5  # frame + bg + 4 bars
        assert "stroke-dasharray" in svg  # reference line

    def test_fig5_svg(self, tmp_path):
        from repro.experiments import fig5
        from repro.experiments.runner import ExperimentScale
        from repro.viz import fig5_svg

        cells = fig5.run(
            scale=ExperimentScale(
                instructions_per_core=600, workloads=("gcc", "canneal")
            ),
            policies=("lru",),
        )
        paths = fig5_svg(tmp_path, cells, policy="lru")
        assert len(paths) == 2
        for p in paths:
            parse(p.read_text())
