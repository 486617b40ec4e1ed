"""The package's export list: every documented name resolves."""

import pkgutil
import subprocess
import sys

import amvlab


def test_every_exported_name_resolves():
    assert len(set(amvlab.__all__)) == len(amvlab.__all__)
    for name in amvlab.__all__:
        assert getattr(amvlab, name) is not None, name


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from amvlab import *", namespace)
    assert set(amvlab.__all__) <= set(namespace)


def test_no_module_imports_scipy_integrate(cli_env):
    # every closed form the package uses comes from scipy.special; importing
    # each module, in a fresh interpreter, leaves scipy.integrate unloaded
    names = sorted(f"amvlab.{m.name}" for m in pkgutil.iter_modules(amvlab.__path__))
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=cli_env, capture_output=True, text=True, check=True)
    assert len(names) > 5
    assert out.stdout.strip() == "[]"
