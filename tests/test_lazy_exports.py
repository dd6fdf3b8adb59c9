"""Package roots that resolve their exports on first use (PEP 562).

A process-backend rank imports its program's package, so these roots
load a submodule only when one of its names is asked for.  Their public
surface must stay what it was when they imported everything eagerly.
"""

import importlib
import pkgutil
import sys

import pytest

from tests.runtime.test_process_backend import _fresh_python

LAZY_PACKAGES = ("repro.obs", "repro.apps.lbmhd", "repro.apps.cactus",
                 "repro.apps.gtc", "repro.apps.paratec", "repro.resilience",
                 "repro.machine", "repro.perf")


def _submodules(package) -> list:
    """Every submodule of ``package``, imported."""
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestSurface:
    def test_every_export_is_its_submodules_object(self, name):
        package = importlib.import_module(name)
        subs = {s.__name__.rpartition(".")[2]: s
                for s in _submodules(package)}
        for export in package.__all__:
            value = getattr(package, export)
            if export in subs:
                assert value is subs[export], export
                continue
            home = getattr(value, "__module__", None)
            if home and callable(value):
                # a class or function: the module that defines it
                owners = [sys.modules[home]]
            else:
                owners = list(subs.values())
            assert any(vars(m).get(export) is value for m in owners), \
                f"{name}.{export}"

    def test_dir_and_star_import_list_every_export(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        assert listed == sorted(listed)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for export in package.__all__:
            assert export in listed, export
            assert namespace[export] is getattr(package, export)

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_name
        with pytest.raises(AttributeError, match=repr(name)):
            package.__no_such_dunder__
        assert not hasattr(package, "no_such_name")
        with pytest.raises(ImportError, match="no_such_name"):
            exec(f"from {name} import no_such_name", {})


def test_names_and_submodules_load_on_first_use():
    code = """if True:
        import sys
        import repro.apps.lbmhd as lbmhd
        import repro.obs as obs
        assert "repro.apps.lbmhd.profile" not in sys.modules
        assert "repro.obs.profile" not in sys.modules
        assert "repro.machine" not in sys.modules
        assert obs.profile is sys.modules["repro.obs.profile"]
        assert obs.replay is sys.modules["repro.obs.replay"]
        from repro.apps.lbmhd import LBMHDConfig, fused
        profile = sys.modules["repro.apps.lbmhd.profile"]
        assert LBMHDConfig is profile.LBMHDConfig
        assert fused is sys.modules["repro.apps.lbmhd.fused"]
        assert lbmhd.instrumentation is (
            sys.modules["repro.apps.lbmhd.instrumentation"])
        import repro.resilience as res
        assert "repro.resilience.checkpoint" not in sys.modules
        assert res.checkpoint.Checkpointer is res.Checkpointer
        assert "repro.resilience.health" not in sys.modules
        print("ok")
    """
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok"]


def test_a_missing_dependency_is_not_hidden(tmp_path, monkeypatch):
    pkg = tmp_path / "lazy_probe_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro._compat import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, "
        "{'broken': ('thing',)})\n")
    (pkg / "broken.py").write_text("import lazy_probe_missing_dep\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    package = importlib.import_module("lazy_probe_pkg")
    try:
        for attr in ("thing", "broken"):
            with pytest.raises(ModuleNotFoundError,
                               match="lazy_probe_missing_dep"):
                getattr(package, attr)
    finally:
        for mod in ("lazy_probe_pkg", "lazy_probe_pkg.broken"):
            sys.modules.pop(mod, None)


def test_sdc_error_is_one_class_on_every_path():
    from repro.resilience import SDCDetectedError as from_package
    from repro.resilience.failures import SDCDetectedError as defined
    from repro.resilience.health import SDCDetectedError as from_health
    assert from_package is defined is from_health
    assert defined.__module__ == "repro.resilience.failures"
