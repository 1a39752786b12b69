"""The package's public name list: `permbound.__all__` against its imports,
and the one integer rule every index, size and step argument follows."""

import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import permbound
from permbound import (
    BlockSplit, BoundedInput, BoundFunction, DimensionMismatch, IndexOutOfRange,
    ParameterOutOfRange, ParseError, cycle_sum_ratio, delete, exp_family, ones, parse_json_text,
    perm_ratio_check, row_uncrossing_sides, run_process, select,
)
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


X = BoundedInput(ones(3), 2)

# (argument, its error class, an int it accepts, a call that passes v as that argument)
INT_ARGUMENTS = [
    ("Matrix.entry i", IndexOutOfRange, 1, lambda v: ones(2).entry(v, 1)),
    ("Matrix.entry j", IndexOutOfRange, 2, lambda v: ones(2).entry(1, v)),
    ("Matrix.row i", IndexOutOfRange, 1, lambda v: ones(2).row(v)),
    ("Matrix.col j", IndexOutOfRange, 1, lambda v: ones(2).col(v)),
    ("select rows", IndexOutOfRange, 1, lambda v: select(ones(2), (v,), (1,))),
    ("delete cols", IndexOutOfRange, 2, lambda v: delete(ones(2), (), (v,))),
    ("run_process ordering", ParameterOutOfRange, 1, lambda v: run_process(ones(2), (2, v))),
    ("ProcessTrace.snapshot t", ParameterOutOfRange, 1, lambda v: run_process(ones(2)).snapshot(v)),
    ("BlockSplit d", DimensionMismatch, 1, lambda v: BlockSplit(ones(3), v)),
    ("row_uncrossing_sides i_star", DimensionMismatch, 1,
     lambda v: row_uncrossing_sides(BlockSplit(ones(3), 1), v)),
    ("BoundFunction n", ParameterOutOfRange, 1, lambda v: BoundFunction(v, 2)),
    ("BoundFunction k", ParameterOutOfRange, 1, lambda v: BoundFunction(3, 2)(v, 1)),
    ("BoundFunction t", ParameterOutOfRange, 1, lambda v: BoundFunction(3, 2)(1, v)),
    ("BoundFunction.gamma m", ParameterOutOfRange, 1, lambda v: BoundFunction(3, 2).gamma(v)),
    ("cycle_sum_ratio t", ParameterOutOfRange, 1, lambda v: cycle_sum_ratio(X, v, (2, 3), 2)),
    ("cycle_sum_ratio i0", ParameterOutOfRange, 2, lambda v: cycle_sum_ratio(X, 1, (2, 3), v)),
    ("cycle_sum_ratio S", ParameterOutOfRange, 3, lambda v: cycle_sum_ratio(X, 1, (2, v), 2)),
    ("perm_ratio_check i", ParameterOutOfRange, 1, lambda v: perm_ratio_check(X, (), v, 2)),
    ("perm_ratio_check j", ParameterOutOfRange, 1, lambda v: perm_ratio_check(X, (), 2, v)),
    ("perm_ratio_check S", ParameterOutOfRange, 1, lambda v: perm_ratio_check(X, (v,), 2, 3)),
    ("exp_family n", ParameterOutOfRange, 1, lambda v: exp_family(v, 2)),
    ("ones n", ParameterOutOfRange, 1, ones),
    # json has no numpy int: default=str writes one as the string "1"
    ("parse_json_text n", ParseError, 1,
     lambda v: parse_json_text(json.dumps({"n": v, "entries": [[1]]}, default=str))),
]


@pytest.mark.parametrize("error, good, call", [a[1:] for a in INT_ARGUMENTS],
                         ids=[a[0] for a in INT_ARGUMENTS])
def test_every_integer_argument_is_an_int_and_not_a_bool(error, good, call):
    # the accepted int as a bool, a float, a numpy int and a str, and None, each fail as
    # an out-of-range value of the argument does, naming the value (a json file's
    # message names the field its literal sits in)
    call(good)
    for bad in (True, float(good), np.int64(good), str(good), None):
        shown = "integer 'n'" if error is ParseError else str(bad)
        with pytest.raises(error, match=re.escape(shown)):
            call(bad)


def test_ones_refuses_a_negative_size():
    with pytest.raises(ParameterOutOfRange, match=re.escape("n = -1 must be >= 0")):
        ones(-1)
    assert ones(0).nrows == 0
