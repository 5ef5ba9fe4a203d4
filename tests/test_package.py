"""The package's public namespace."""

import fstirling


def test_every_exported_name_resolves():
    assert [name for name in fstirling.__all__ if not hasattr(fstirling, name)] == []
