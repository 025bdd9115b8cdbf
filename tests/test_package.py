import polekit


def test_every_exported_name_resolves():
    """Each name in polekit.__all__ is an attribute of the package, so a
    removed object cannot stay listed as an export."""
    missing = [name for name in polekit.__all__ if not hasattr(polekit, name)]
    assert missing == []
    assert len(set(polekit.__all__)) == len(polekit.__all__)
