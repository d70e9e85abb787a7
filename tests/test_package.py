"""The package's public namespace."""

import crowdscore


def test_every_exported_name_resolves():
    missing = [name for name in crowdscore.__all__ if not hasattr(crowdscore, name)]
    assert missing == []
    assert len(set(crowdscore.__all__)) == len(crowdscore.__all__)
