"""Every optional parameter of the public API has a caller outside the tests.

A parameter with a default is a setting.  Settings that no program sets are
deleted, so this lists every defaulted parameter of the functions in
fsdim.__all__, of the certificate constructor and of the block table's
constructor, and compares the list with the allowlist below, which names
for each entry the caller that sets it.  A new option fails here until it
has such a caller.
"""

import inspect

import fsdim

# (function, parameter) -> the caller outside the tests that sets it
ALLOWED = {
    ("gen_champernowne", "order"): "fsdim gen --order",
    ("integer_multiple_certificate", "product_digits"): "perfbench/workloads.py:148",
    ("verify_dilution_counterexample", "max_block_len"): "fsdim verify dilution --max-block-len",
    ("verify_pseudometric_suite", "sample_count"): "fsdim verify pseudometric --samples",
    ("verify_pseudometric_suite", "n_max"): "fsdim verify pseudometric --n-max",
    ("verify_pseudometric_suite", "seed"): "fsdim verify pseudometric --seed",
    ("verify_contractivity_suite", "sample_count"): "fsdim verify contractivity --samples",
    ("verify_contractivity_suite", "n_max"): "fsdim verify contractivity --n-max",
    ("verify_contractivity_suite", "seed"): "fsdim verify contractivity --seed",
}


def public_callables():
    functions = {name: getattr(fsdim, name) for name in fsdim.__all__
                 if inspect.isfunction(getattr(fsdim, name))}
    functions["SparseStochasticCertificate.__init__"] = fsdim.SparseStochasticCertificate.__init__
    functions["BlockCoupling.__init__"] = fsdim.BlockCoupling.__init__
    return functions


def test_every_optional_parameter_has_a_caller():
    defaulted = {(name, parameter.name)
                 for name, fn in public_callables().items()
                 for parameter in inspect.signature(fn).parameters.values()
                 if parameter.default is not inspect.Parameter.empty}
    assert sorted(defaulted) == sorted(ALLOWED)
