"""The package's public names are exactly the union of its modules' `__all__` lists."""

import types

import infodyn
from infodyn import bounds, cli, convexity, errors, io, markov, measures, monotonicity

REEXPORTED = (errors, markov, convexity, measures, monotonicity, bounds)


def test_the_package_exports_each_modules_public_list_and_nothing_else():
    declared = [name for module in REEXPORTED for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    public = {
        name
        for name, value in vars(infodyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(declared)
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(infodyn, name) is getattr(module, name), name


def test_every_name_in_the_io_and_cli_public_lists_exists():
    for module in (io, cli):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
