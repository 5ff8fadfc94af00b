"""Byte-identity of the study fan-out against the serial study.

The whole point of ``repro.parallel`` is that ``workers=N`` is purely a
wall-clock knob: the two chains' halves of the study computed on a pool
must be **bitwise** equal to the halves computed in-process, for every
attribution policy the study accepts.  These tests prove that on real
(truncated) datasets — ``.tobytes()`` comparisons, not ``allclose``.
"""

import pytest

from repro.analysis.study import DecentralizationStudy

from tests.conftest import assert_chain_studies_identical

#: The policies a study runs without a pool registry.
POLICIES = ("per-address", "first-address", "fractional")


class TestStudyFanOutEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fan_out_halves_are_bitwise_serial(self, short_chains, policy, workers):
        serial = DecentralizationStudy(**short_chains, policy=policy, workers=1)
        parallel = DecentralizationStudy(**short_chains, policy=policy, workers=workers)
        expected = serial.chain_results()
        for which, half in parallel.chain_results().items():
            assert_chain_studies_identical(half, expected[which])
