"""`qstacker verify` and the acceptance suite run one battery.

verify runs every entry of `qstacker.checks.CRITERIA`, and
`tests/test_acceptance.py` reports each entry through the same table. These
tests keep the table, the suite and the module's criterion functions in step,
so neither caller can drift from the other.
"""

import ast
import inspect
import re
from pathlib import Path

from qstacker import checks

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
SUITE_ONLY = {12, 13}  # the training benchmarks


def table_keys() -> list[int]:
    """The keys of the CRITERIA literal as written, duplicates included."""
    for node in ast.parse(inspect.getsource(checks)).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CRITERIA"]:
            return [key.value for key in node.value.keys]
    raise AssertionError("checks defines no CRITERIA literal")


def test_the_table_lists_criteria_1_to_11_and_14_once_each():
    assert table_keys() == [*range(1, 12), 14]
    functions = [function for _, function in checks.CRITERIA.values()]
    assert len(set(functions)) == len(functions)


def test_the_suite_has_one_test_per_criterion():
    tree = ast.parse(ACCEPTANCE.read_text())
    numbers = [int(match.group(1)) for node in tree.body if isinstance(node, ast.FunctionDef)
               if (match := re.fullmatch(r"test_criterion_(\d\d)_\w+", node.name))]
    assert sorted(numbers) == sorted({*checks.CRITERIA, *SUITE_ONLY})
    assert len(numbers) == len(set(numbers))


def test_every_verdict_function_is_in_the_table():
    # a verdict function takes the master seed first
    verdicts = {name for name, f in vars(checks).items()
                if inspect.isfunction(f) and f.__module__ == checks.__name__
                and next(iter(inspect.signature(f).parameters), None) == "master"}
    assert verdicts == {function for _, function in checks.CRITERIA.values()}
