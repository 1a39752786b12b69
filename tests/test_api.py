"""The package's public name list: `permbound.__all__` against its imports."""

import re
import types
from pathlib import Path

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


def test_readme_library_example_runs_and_reads_as_its_comments():
    # each line "expr  # value, ..." whose comment opens with a value must evaluate to it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    namespace = {}
    exec(block, namespace)
    shown = {}
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        value = re.match(r"\(.*?\)|[\d/]+", comment)
        if value:
            shown[code.strip()] = value.group(0)
    assert shown == {"trace.pivots": "(1, 5/4, 11/8)", "trace.bound": "55/32",
                     "permanent_ryser(a)": "27/16"}
    for code, value in shown.items():
        got = eval(code, namespace)
        assert (f"({', '.join(map(str, got))})" if isinstance(got, tuple) else str(got)) == value
