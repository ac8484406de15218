"""The package's public surface."""

import fuzzyvault


def test_every_exported_name_resolves():
    assert [name for name in fuzzyvault.__all__ if not hasattr(fuzzyvault, name)] == []
