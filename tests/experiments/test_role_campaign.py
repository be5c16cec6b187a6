"""Role/topology axes in the campaign grid.

A roled scenario must travel the whole distance: grid cell → worker →
journal row → summary row → offline report, carrying its role spec,
its knobs, and the per-role no-transit verdict counts.
"""

import json

import pytest

from repro.experiments.campaign import (
    Scenario,
    build_grid,
    fold_journal,
    run_campaign,
    scenario_seed,
    summary_from_journals,
    topology_seed,
)

ROLED_GRID = dict(
    families=["random"], sizes=[7], seeds=1, roles=("c2i2h1",),
    topos=("p=0.5",),
)


class TestGridAxes:
    def test_axes_multiply_the_grid(self):
        grid = build_grid(
            ["random"], [6, 8], seeds=2,
            roles=("default", "c2i2h1"), topos=("default", "p=0.5"),
        )
        assert len(grid) == 2 * 2 * 2 * 2
        keys = [scenario.key() for scenario in grid]
        assert len(keys) == len(set(keys))
        assert any(key.endswith(":c2i2h1:p=0.5:default") for key in keys)

    def test_axes_are_part_of_the_seed(self):
        base = Scenario(family="random", size=6, seed=0)
        roled = Scenario(family="random", size=6, seed=0, roles="c2i2h1")
        assert scenario_seed(base) != scenario_seed(roled)
        assert topology_seed(base) != topology_seed(roled)

    def test_topology_seed_ignores_profile_and_iips(self):
        """All profile/ablation cells of one grid point share a graph,
        so warm per-topology simulation states keep paying off."""
        a = Scenario(family="waxman", size=6, seed=1, profile="sloppy")
        b = Scenario(family="waxman", size=6, seed=1, iips=False)
        assert topology_seed(a) == topology_seed(b)
        assert scenario_seed(a) != scenario_seed(b)

    def test_roles_require_seeded_families(self):
        with pytest.raises(ValueError, match="requires seeded families"):
            build_grid(["random", "chain"], [6], seeds=1, roles=("c2i2h1",))

    def test_knobs_require_matching_family(self):
        with pytest.raises(ValueError, match="unknown waxman knob"):
            build_grid(["waxman"], [6], seeds=1, topos=("p=0.5",))

    def test_oversized_role_spec_rejected_at_grid_build(self):
        with pytest.raises(ValueError, match="border routers"):
            build_grid(["random"], [4], seeds=1, roles=("c2i3h2",))

    def test_invalid_role_spec_rejected_at_grid_build(self):
        with pytest.raises(ValueError, match="invalid role spec"):
            build_grid(["random"], [6], seeds=1, roles=("3isps",))


class TestRoledCampaign:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("roled")
        journal = tmp_path / "roled.jsonl"
        summary = run_campaign(
            build_grid(**ROLED_GRID), workers=1, journal_path=journal
        )
        return tmp_path, journal, summary

    def test_rows_carry_roles_and_verdict_counts(self, outcome):
        _tmp, _journal, summary = outcome
        assert len(summary.rows) == 1
        (row,) = summary.rows
        assert row.error is None
        assert (row.roles, row.topo) == ("c2i2h1", "p=0.5")
        # 2 customers + 2 single-homed ISPs = 4 roles, all verified
        assert (row.roles_ok, row.roles_total) == (4, 4)
        assert row.verified and row.global_ok

    def test_journal_round_trips_the_axes(self, outcome):
        _tmp, journal, summary = outcome
        folded = fold_journal(journal)
        (record,) = folded.values()
        assert record.row == summary.rows[0]
        report = summary_from_journals([journal])
        assert report.rows == summary.rows

    def test_artifacts_carry_the_axes(self, outcome):
        tmp_path, _journal, summary = outcome
        data = json.loads(summary.write_json(tmp_path / "s.json").read_text())
        (row,) = data["rows"]
        assert row["roles"] == "c2i2h1"
        assert row["roles_total"] == 4
        assert data["families"]["random"]["roles_ok"] == 4
        csv_text = summary.write_csv(tmp_path / "s.csv").read_text()
        header, line = csv_text.strip().splitlines()
        assert "roles" in header.split(",") and "roles_total" in header.split(",")
        assert "c2i2h1" in line and "p=0.5" in line

    def test_same_grid_reruns_identically(self, outcome):
        """Deterministic fields only — wall clock is journal-only."""
        from repro.experiments.campaign import CampaignSummary

        tmp_path, _journal, summary = outcome
        again = run_campaign(build_grid(**ROLED_GRID), workers=1)
        assert [CampaignSummary._row_dict(row) for row in again.rows] == [
            CampaignSummary._row_dict(row) for row in summary.rows
        ]


class TestHubRowsHaveNoRoleVerdicts:
    def test_star_rejects_role_axes(self):
        """The star is the CLI default: a role spec or knob aimed at it
        must error loudly, never silently run a plain star."""
        from repro.experiments.no_transit import run_no_transit_experiment

        with pytest.raises(ValueError, match="fixed role layout"):
            run_no_transit_experiment(5, family="star", roles="c2i2h2")
        with pytest.raises(ValueError, match="no topology knobs"):
            run_no_transit_experiment(5, family="star", topo="p=0.9")

    def test_star_rows_report_zero_roles(self):
        summary = run_campaign(build_grid(["star"], [4], seeds=1))
        (row,) = summary.rows
        assert (row.roles, row.topo) == ("default", "default")
        assert (row.roles_ok, row.roles_total) == (0, 0)
        assert row.verified
