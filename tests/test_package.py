"""The package's public surface."""

import rsa_metaphor


def test_every_name_in_all_resolves():
    names = rsa_metaphor.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(rsa_metaphor, name)] == []
    namespace = {}
    exec("from rsa_metaphor import *", namespace)
    assert set(names) <= set(namespace)
