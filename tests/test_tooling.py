"""Tooling gates that mirror the CI lint job locally.

The CI workflow type-checks the control-plane core (wire encoding, typed
message schema, RPC loop, the negotiation cache and its digests) with
mypy.  When mypy is installed locally this
test runs the same check; in environments without it, it skips rather
than fails — the contract is enforced in CI either way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

TYPED_MODULES = [
    "src/repro/core/wire.py",
    "src/repro/core/messages.py",
    "src/repro/core/rpc.py",
    "src/repro/core/negcache.py",
]


class TestMypyControlPlaneCore:
    def test_typed_core_passes_mypy(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--ignore-missing-imports",
                "--follow-imports=silent",
                *TYPED_MODULES,
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_typed_modules_exist(self):
        # Guards the CI file list: renaming a module must update the gate.
        for module in TYPED_MODULES:
            assert (REPO_ROOT / module).is_file(), module


class TestStdlibOnlyImport:
    """The library runs on the standard library alone: importing it (and
    the experiments CLI) loads no third-party module."""

    def test_import_loads_no_third_party_module(self):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro, repro.experiments\n"
            "allowed = set(sys.stdlib_module_names) | {'repro'}\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(' '.join(sorted(loaded - allowed)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []
