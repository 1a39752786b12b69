"""The package's public name list: `permbound.__all__` against its imports."""

import types

import permbound
from permbound import (
    bounds, cli, errors, matcore, matio, perminv, permschur, process, psd, scalars,
)


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
    # the n! sum, row-pivoted elimination, the minus-variant, the exact PSD
    # test and the lemma helpers only tests call live in tests/oracles.py;
    # solve_majorant and the fixed-denominator closed_recursion are gone; a
    # negative entry raises NegativeEntry everywhere
    modules = (permbound, bounds, cli, errors, matcore, matio, perminv, permschur, process, psd,
               scalars)
    for name in ("permanent_naive", "determinant", "NAIVE_MAX", "NegativeInput", "is_psd_exact",
                 "run_gaussian_variant", "solve_majorant", "exp_family_closed_form",
                 "pivot_lower_bound_check", "minor_ratio_inequality", "identity",
                 "closed_recursion"):
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
