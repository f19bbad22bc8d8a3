"""The cheaper oracle cross-check suites, run in full; the closure suites are
exercised by the acceptance module."""

import pytest

from stabcat import checks


@pytest.mark.parametrize("suite", [
    "tube-socle",
    "tube-hom",
    "tube-hom-sided",
    "interval-hom",
    "interval-middle",
    "embedding",
    "field-independence",
    "ar-duality",
    "kronecker-hom",
])
def test_suite_passes(suite):
    result = checks.run_suite(suite)
    assert result.ok, result.summary()
    assert result.total > 0


def test_decompose_roundtrip_suite():
    result = checks.check_decompose_roundtrip(samples=500)
    assert result.ok, result.summary()


def test_tube_middle_suite_gf2():
    result = checks.check_tube_middle_terms(p=2)
    assert result.ok, result.summary()


def test_decompose_roundtrip_suite_gf3():
    result = checks.check_decompose_roundtrip(samples=200, p=3)
    assert result.ok, result.summary()
    assert result.total == 800
