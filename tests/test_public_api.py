"""Tests of the top-level package surface (imports, __all__, doctest examples)."""

import doctest
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES_WITH_DOCTESTS = [
    "repro.utils.bits",
]

PUBLIC_MODULES = [
    "repro",
    "repro.circuit",
    "repro.core",
    "repro.dd",
    "repro.service",
    "repro.simulators",
    "repro.algorithms",
    "repro.compilation",
    "repro.utils",
]


#: Modules of the HTTP stack that an in-process verification must not import.
HTTP_STACK_MODULES = (
    "asyncio",
    "email",
    "http.server",
    "ssl",
    "repro.service.client",
    "repro.service.server",
)


class TestPackageSurface:
    @pytest.mark.parametrize("options", ["seed=0", "seed=0, verdict_cache=True"])
    def test_manager_run_does_not_import_the_http_stack(self, options):
        # Regression: merging one attempt's DD statistics imported
        # repro.service.metrics, whose package eagerly imported both servers
        # and the client (+5 MB RSS for a plain in-process run).
        script = (
            "import sys\n"
            "from repro import EquivalenceCheckingManager\n"
            "from repro.algorithms import ghz_ladder\n"
            f"manager = EquivalenceCheckingManager({options})\n"
            "result = manager.run(ghz_ladder(3), ghz_ladder(3))\n"
            "assert result.equivalent and result.decided_by == 'alternating'\n"
            f"print(sorted(set({HTTP_STACK_MODULES!r}) & set(sys.modules)))\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_version(self):
        assert repro.__version__ == "1.1.0"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_has_no_duplicates(self, module_name):
        module = importlib.import_module(module_name)
        assert len(module.__all__) == len(set(module.__all__))

    def test_readme_quickstart_flow(self):
        """The flow shown in the README must work verbatim."""
        from repro import QuantumCircuit, check_behavioural_equivalence, check_equivalence

        dynamic = QuantumCircuit(1, 2)
        dynamic.h(0)
        dynamic.measure(0, 0)
        dynamic.reset(0)
        dynamic.x(0, condition=(0, 1))
        dynamic.measure(0, 1)

        static = QuantumCircuit(2, 2)
        static.h(0)
        static.cx(0, 1)
        static.measure(0, 0)
        static.measure(1, 1)

        assert check_equivalence(static, dynamic).equivalent
        assert check_behavioural_equivalence(static, dynamic).equivalent

    def test_package_docstring_example(self):
        from repro import QuantumCircuit, check_equivalence

        a = QuantumCircuit(2)
        a.h(0)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.h(0)
        b.cx(0, 1)
        assert check_equivalence(a, b).equivalent


class TestDoctests:
    @pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
    def test_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0
