"""The package's public name list: `permbound.__all__` against its imports."""

import types

import permbound


def test_all_names_resolve_and_are_unique():
    assert len(permbound.__all__) == len(set(permbound.__all__))
    for name in permbound.__all__:
        assert hasattr(permbound, name), name


def test_every_public_import_is_listed():
    public = {
        name
        for name, value in vars(permbound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(permbound.__all__), sorted(public - set(permbound.__all__))
