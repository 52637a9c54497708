"""Start-up cost: lazy package namespaces and what each entry imports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)

#: Modules only a subcommand handler (or a worker) needs.
NOT_ON_THE_CLI_PATH = (
    "repro.fleet",
    "repro.exp.runner",
    "repro.lang",
    "repro.analysis.profiler",
    "repro.obs.summary",
    "repro.obs.fleetstats",
    "repro.obs.history",
)


def _fresh_modules(statement):
    """``repro`` modules loaded by ``statement`` in a fresh interpreter."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_cli_import_skips_subcommand_only_modules():
    loaded = _fresh_modules("import repro.cli")
    assert "repro.system.simulator" in loaded  # the simulate path stays
    assert not loaded & set(NOT_ON_THE_CLI_PATH), sorted(
        loaded & set(NOT_ON_THE_CLI_PATH)
    )


def test_runner_import_loads_the_point_stack_for_forked_workers():
    loaded = _fresh_modules("import repro.exp.runner")
    assert {"repro.system.simulator", "repro.system.presets"} <= loaded


def test_package_import_is_lazy():
    assert _fresh_modules("import repro") == {"repro", "repro._lazy"}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, type(repro)), (
            f"{name}.{export} resolved to a module"
        )
    assert set(dir(package)) >= set(package.__all__)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
