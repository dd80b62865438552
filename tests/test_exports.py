"""The package's public names."""

import linremoval


def test_every_public_name_resolves():
    # a name deleted from its module but left in __all__ breaks only
    # `from linremoval import *`, which no other test runs
    namespace = {}
    exec("from linremoval import *", namespace)
    assert len(set(linremoval.__all__)) == len(linremoval.__all__)
    assert [name for name in linremoval.__all__ if name not in namespace] == []
