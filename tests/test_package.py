"""The package's public surface: ``from cartanbundle import *`` binds exactly ``__all__``."""

import inspect

import cartanbundle


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cartanbundle import *", namespace)
    del namespace["__builtins__"]
    names = cartanbundle.__all__
    assert len(set(names)) == len(names)
    assert set(namespace) == set(names)
    assert not any(name.startswith("_") or inspect.ismodule(namespace[name]) for name in names)

