"""Every family at its smallest sizes runs without an error row, and the
grid rejects a size no family can build before anything runs."""

import pytest

from repro.cli import main
from repro.experiments.campaign import build_grid, run_campaign, topology_seed
from repro.llm import fault_assignment, fault_designations
from repro.topology.families import FAMILIES, generate_network

SWEEP_PROFILES = ("default", "sloppy")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_smallest_sizes_run_without_errors(family):
    # 7 families x sizes 4, 5 x seeds 0-2 x 2 profiles x IIPs on/off:
    # 168 scenarios.
    grid = build_grid(
        [family], [4, 5], seeds=3, profiles=SWEEP_PROFILES, iip_ablation=True
    )
    summary = run_campaign(grid, workers=1)
    assert len(summary.rows) == 24
    assert [row.error for row in summary.errors] == []


def test_hub_shaped_random_graph_drops_targetless_faults():
    # The random-4 seed-0 cell is hub-shaped, but its R2 announces no
    # link subnet: the star layout must not hand R2 missing_network.
    (scenario,) = build_grid(["random"], [4], seeds=1)
    topology = generate_network(
        "random", 4, seed=topology_seed(scenario)
    ).topology
    assignment = fault_assignment(topology)
    assert "missing_network" not in assignment["R2"]
    assert "missing_network" not in fault_designations(topology)


@pytest.mark.parametrize(
    "family, size", [("star", 3), ("chain", 3), ("mesh", 23), ("random", 2)]
)
def test_build_grid_rejects_out_of_range_sizes(family, size):
    with pytest.raises(ValueError, match=f"{family} size must be in"):
        build_grid([family], [size], seeds=1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_apply_the_grid_bound(family):
    with pytest.raises(ValueError, match=f"{family} size must be in"):
        generate_network(family, 3)


def test_cli_rejects_size_3_before_running(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    summary = tmp_path / "summary.json"
    code = main([
        "campaign", "--sizes", "3", "--json", str(summary),
        "--journal", str(journal),
    ])
    assert code == 2
    assert "size must be in [4, 50], got 3" in capsys.readouterr().err
    assert not journal.exists() and not summary.exists()
