"""The mutation gate's list (`tests/mutants.py`) still fits the code: every
old text occurs exactly once in its module, the mutated module still parses,
and every node id names a test file, class and function that exist. The
mutants themselves run outside tier-1, as `python -m tests.mutants`."""

import ast

import pytest

from tests.mutants import MUTANTS, ROOT, SRC, module_path


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_the_mutant_parses(mutant):
    text = module_path(SRC, mutant).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    ast.parse(text.replace(mutant.old, mutant.new))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_node_ids_name_existing_tests(mutant):
    assert mutant.kills
    for node_id in mutant.kills:
        path, *parts = node_id.split("::")
        scope = ast.parse((ROOT / path).read_text()).body
        for part in parts:
            name = part.split("[")[0]
            found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name]
            assert found, f"{node_id}: no {name}"
            scope = found[0].body
