"""Round-trip regression: parse ∘ generate is a fixed point.

For every bundled sample config (and the generated reference configs),
rendering the parsed IR back to text and re-parsing it must be stable:
``generate(parse(generate(parse(text)))) == generate(parse(text))``.
This pins the parser/generator pair against silent drift — a config
must not change meaning (or shape) just by passing through the tools.
"""

import pytest

from repro.cisco import generate_cisco, parse_cisco
from repro.juniper import generate_juniper, parse_juniper, translate_cisco_to_juniper
from repro.sampleconfigs import (
    BATFISH_EXAMPLE_CISCO,
    BATFISH_EXAMPLE_CISCO_2,
)
from repro.topology import generate_network, generate_star_network
from repro.topology.reference import build_reference_configs

CISCO_SAMPLES = {
    "batfish_example": BATFISH_EXAMPLE_CISCO,
    "batfish_example_2": BATFISH_EXAMPLE_CISCO_2,
}


def _cisco_canonical(text):
    result = parse_cisco(text, filename="roundtrip.cfg")
    assert not result.warnings, [w.render() for w in result.warnings]
    return generate_cisco(result.config)


def _juniper_canonical(text):
    result = parse_juniper(text, filename="roundtrip.conf")
    assert not result.warnings, [w.render() for w in result.warnings]
    return generate_juniper(result.config)


class TestCiscoRoundTrip:
    @pytest.mark.parametrize("name", sorted(CISCO_SAMPLES))
    def test_bundled_samples_are_fixed_points(self, name):
        canonical = _cisco_canonical(CISCO_SAMPLES[name])
        assert _cisco_canonical(canonical) == canonical

    def test_star_reference_configs_are_fixed_points(self):
        topology = generate_star_network(7).topology
        for config in build_reference_configs(topology).values():
            canonical = generate_cisco(config)
            assert _cisco_canonical(canonical) == canonical

    @pytest.mark.parametrize(
        "family", ["chain", "ring", "mesh", "dumbbell"]
    )
    def test_family_reference_configs_are_fixed_points(self, family):
        topology = generate_network(family, 5).topology
        for config in build_reference_configs(topology).values():
            canonical = generate_cisco(config)
            assert _cisco_canonical(canonical) == canonical


class TestJuniperRoundTrip:
    @pytest.mark.parametrize(
        "source", [BATFISH_EXAMPLE_CISCO, BATFISH_EXAMPLE_CISCO_2],
        ids=["first_source", "second_source"],
    )
    def test_translated_samples_are_fixed_points(self, source):
        translated, _ = translate_cisco_to_juniper(parse_cisco(source).config)
        canonical = generate_juniper(translated)
        assert _juniper_canonical(canonical) == canonical
