"""The packages' lazy re-exports (:mod:`repro.common.lazy`): every name in
a package's ``__all__`` resolves to the object its defining module
holds, ``dir()`` lists it, and an unknown name is a plain
``AttributeError``."""

import importlib

import pytest

LAZY_PACKAGES = ("repro", "repro.locks", "repro.locks.baselines",
                 "repro.locks.extensions", "repro.workload", "repro.schedcheck")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_module(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert name in dir(pkg)
        if hasattr(value, "__qualname__"):  # a class or a function
            home = importlib.import_module(value.__module__)
            assert getattr(home, value.__qualname__) is value, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        pkg.nope  # noqa: B018


def test_star_import_binds_the_public_names():
    scope: dict = {}
    exec("from repro import *", scope)
    from repro import ALock, WorkloadSpec, run_workload

    assert scope["ALock"] is ALock
    assert scope["WorkloadSpec"] is WorkloadSpec
    assert scope["run_workload"] is run_workload
