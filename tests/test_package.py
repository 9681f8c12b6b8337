"""The package namespace is the union of the modules' public names."""

import icufunnel
from icufunnel import analysis, constants, controller, model, simulator

MODULES = (model, constants, controller, simulator, analysis)


def test_exports_are_the_module_lists():
    assert icufunnel.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    assert len(set(icufunnel.__all__)) == len(icufunnel.__all__)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(icufunnel, name) is getattr(m, name), name


def test_module_lists_name_every_public_definition():
    # a public class or function defined in a module but left out of its
    # __all__ would be missing from the package
    for m in MODULES:
        defined = {
            name for name, value in vars(m).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == m.__name__
        }
        assert defined <= set(m.__all__), m.__name__
