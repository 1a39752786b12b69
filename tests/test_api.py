"""The package's public name list: `permbound.__all__` against its imports."""

import types

import permbound
from permbound import matcore, psd


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


def test_oracles_and_negative_input_are_not_in_the_package():
    # the n! sum, row-pivoted elimination, the minus-variant and the exact PSD
    # test live in tests/oracles.py; a negative entry raises NegativeEntry everywhere
    for name in ("permanent_naive", "determinant", "NAIVE_MAX", "NegativeInput", "is_psd_exact",
                 "run_gaussian_variant"):
        assert not hasattr(permbound, name), name
        assert not hasattr(matcore, name), name
        assert not hasattr(psd, name), name
