"""The Prometheus text renderer behind ``GET /metrics``."""

import pytest

from repro.obs import render_prometheus, sanitize_metric_name


class TestSanitize:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("memo.universe-routes.hits") == (
            "memo_universe_routes_hits"
        )

    def test_leading_digit_gets_guard(self):
        assert sanitize_metric_name("9lives")[0] != "9"

    def test_valid_names_pass_through(self):
        assert sanitize_metric_name("repro_uptime_seconds") == (
            "repro_uptime_seconds"
        )


class TestRender:
    def test_type_header_and_sample_lines(self):
        text = render_prometheus([
            ("repro_scenarios_total", None, 7, "counter"),
            ("repro_uptime_seconds", None, 1.5, "gauge"),
        ])
        lines = text.splitlines()
        assert "# TYPE repro_scenarios_total counter" in lines
        assert "repro_scenarios_total 7" in lines
        assert "# TYPE repro_uptime_seconds gauge" in lines
        assert "repro_uptime_seconds 1.5" in lines
        assert text.endswith("\n")

    def test_labeled_samples_share_one_family_header(self):
        text = render_prometheus([
            ("repro_worker_alive", {"slot": "0"}, 1, "gauge"),
            ("repro_worker_alive", {"slot": "1"}, 0, "gauge"),
        ])
        assert text.count("# TYPE repro_worker_alive gauge") == 1
        assert 'repro_worker_alive{slot="0"} 1' in text
        assert 'repro_worker_alive{slot="1"} 0' in text

    def test_label_values_escaped(self):
        text = render_prometheus([
            ("repro_thing", {"k": 'a"b\\c\nd'}, 1, "counter"),
        ])
        assert '{k="a\\"b\\\\c\\nd"}' in text

    def test_conflicting_family_types_raise(self):
        with pytest.raises(ValueError):
            render_prometheus([
                ("repro_x", None, 1, "counter"),
                ("repro_x", None, 2, "gauge"),
            ])

    def test_unsanitized_input_names_merge_into_one_family(self):
        text = render_prometheus([
            ("repro_route.routes_built", None, 3, "counter"),
        ])
        assert "repro_route_routes_built 3" in text
