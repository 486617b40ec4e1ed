"""The package's export list: every documented name resolves."""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


def test_every_dotted_name_the_readme_quotes_resolves():
    # a dotted name in backticks is an amvlab module, or a name one of them
    # defines, and each attribute after it exists; numpy and scipy names
    # (np., scipy., sparse.) are not amvlab's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", readme)))
    modules = {m.name: importlib.import_module(f"amvlab.{m.name}") for m in pkgutil.iter_modules(amvlab.__path__)}
    ours = [n for n in names if n.split(".")[0] not in ("np", "scipy", "sparse")]
    assert "amvlab.mmspace.save_space" in ours and "ModelSpace.distance" in ours
    for name in ours:
        root, *attrs = name.removeprefix("amvlab.").split(".")
        obj = modules.get(root) or next((getattr(m, root) for m in (amvlab, *modules.values()) if hasattr(m, root)), None)
        assert obj is not None, f"README quotes `{name}`, but no amvlab module defines {root}"
        for attr in attrs:
            assert hasattr(obj, attr), f"README quotes `{name}`, which has no {attr}"
            obj = getattr(obj, attr)
