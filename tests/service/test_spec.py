"""CampaignSpec: the submission contract and the sharding math."""

import pytest

from repro.experiments.campaign import build_grid
from repro.service import DEFAULT_SHARD_SIZE, CampaignSpec
from repro.service.spec import shard_scenarios, spec_fingerprint


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = CampaignSpec(
            families=["star", "chain"],
            sizes=[4, 6],
            seeds=3,
            profiles=["default", "sloppy"],
            iip_ablation=True,
            roles=["c2i2h2"],
            shard_size=5,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="familes"):
            CampaignSpec.from_dict({"familes": ["star"]})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"seeds": "2"}, "seeds"),
            ({"seeds": True}, "seeds"),
            ({"seeds": 0}, "seeds"),
            ({"sizes": 4}, "sizes"),
            ({"sizes": [4, "6"]}, "sizes"),
            ({"sizes": [True]}, "sizes"),
            ({"families": "star"}, "families"),
            ({"profiles": [None]}, "profiles"),
            ({"roles": "c2i2h2"}, "roles"),
            ({"topos": [0.4]}, "topos"),
            ({"places": None}, "places"),
            ({"iip_ablation": 1}, "iip_ablation"),
            ({"chaos_always": "yes"}, "chaos_always"),
            ({"shard_size": "2"}, "shard_size"),
            ({"shard_size": 2.0}, "shard_size"),
            ({"chaos_kill_key": 3}, "chaos_kill_key"),
        ],
    )
    def test_rejects_mistyped_fields(self, payload, field):
        """Outside input: a wrong type is a ValueError naming the field
        (HTTP 400), not a TypeError deep inside grid enumeration."""
        with pytest.raises(ValueError, match=repr(field)):
            CampaignSpec.from_dict(payload)

    def test_accepts_nulls_where_optional(self):
        spec = CampaignSpec.from_dict(
            {"shard_size": None, "chaos_kill_key": None, "seeds": 2}
        )
        assert spec == CampaignSpec(seeds=2)

    def test_rejects_non_object_payload(self):
        with pytest.raises(ValueError, match="JSON object"):
            CampaignSpec.from_dict(["star"])

    def test_build_matches_batch_grid(self):
        """The service precondition: a spec enumerates exactly the grid
        the batch CLI would, in the same order."""
        spec = CampaignSpec(families=["chain", "star"], sizes=[4], seeds=2)
        batch = build_grid(["chain", "star"], [4], seeds=2)
        assert spec.build() == batch

    def test_build_validates_like_the_batch_cli(self):
        with pytest.raises(ValueError):
            CampaignSpec(families=["no-such-family"]).build()

    def test_fingerprint_is_stable_and_spec_sensitive(self):
        a = CampaignSpec(families=["star"])
        b = CampaignSpec(families=["chain"])
        assert spec_fingerprint(a) == spec_fingerprint(CampaignSpec(families=["star"]))
        assert spec_fingerprint(a) != spec_fingerprint(b)


class TestSharding:
    def test_contiguous_deterministic_slices(self):
        grid = build_grid(["chain", "star"], [4], seeds=3)
        shards = shard_scenarios(grid, 4)
        assert [s for shard in shards for s in shard] == grid
        assert shard_scenarios(grid, 4) == shards  # restart re-shards identically
        assert all(len(shard) == 4 for shard in shards[:-1])

    def test_rejects_non_positive_shard_size(self):
        with pytest.raises(ValueError, match="shard_size"):
            shard_scenarios([], 0)

    def test_explicit_shard_size_wins(self):
        spec = CampaignSpec(shard_size=7)
        assert spec.resolve_shard_size(100, workers=2) == 7

    def test_explicit_shard_size_validated(self):
        with pytest.raises(ValueError, match="shard_size"):
            CampaignSpec(shard_size=0).resolve_shard_size(10, workers=2)

    def test_default_caps_at_default_shard_size(self):
        spec = CampaignSpec()
        assert spec.resolve_shard_size(10_000, workers=2) == DEFAULT_SHARD_SIZE

    def test_default_shrinks_for_small_grids(self):
        """A tiny grid still spreads across the pool instead of landing
        in one oversized unit."""
        spec = CampaignSpec()
        assert spec.resolve_shard_size(4, workers=4) == 1
        assert spec.resolve_shard_size(1, workers=8) == 1
