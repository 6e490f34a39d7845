"""Tier-1 hook for the static gate: the CI checks also run locally.

Runs the ``cli lint`` gate over the paper families (text and JSON), the
repository conventions lint (``python -m repro.check.codelint``), and — when the tools are installed —
``ruff check`` and ``mypy --strict``, exactly as ``.github/workflows/ci.yml``
does.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def run(*argv):
    env_path = str(SRC)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


class TestCliLintGate:
    def test_all_families_pass_check(self):
        proc = run("-m", "repro.cli", "lint", "--all", "--check", "--no-warnings")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 with errors" in proc.stdout

    def test_json_report_parses_and_is_ok(self):
        proc = run("-m", "repro.cli", "lint", "--family", "grid:16",
                   "--family", "random:24", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert {r["spec"] for r in doc["reports"]} == {"grid:16", "random:24"}
        for report in doc["reports"]:
            assert report["errors"] == 0
            assert all("rule" in d for d in report["diagnostics"])

    def test_check_fails_on_broken_algorithm(self):
        # the store-forward ablation deliberately breaks the model; the
        # gate must catch it and exit non-zero
        proc = run("-m", "repro.cli", "lint", "--family", "grid:16",
                   "--algorithm", "store-forward-updown", "--check",
                   "--no-warnings")
        if "invalid choice" in proc.stderr:
            pytest.skip("ablation algorithm not registered")
        assert proc.returncode in (0, 1)


class TestConventionsScript:
    def test_src_repro_is_clean(self):
        proc = run("-m", "repro.check.codelint")
        assert proc.returncode == 0, proc.stdout

    def test_detects_builtin_raise(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('nope')\n")
        proc = run("-m", "repro.check.codelint", str(bad))
        assert proc.returncode == 1
        assert "builtin ValueError" in proc.stdout

    def test_detects_bin_count(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = bin(7).count('1')\n")
        proc = run("-m", "repro.check.codelint", str(bad))
        assert proc.returncode == 1
        assert "bit_count" in proc.stdout

    def test_detects_positional_api_call(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("gossip(g, 'simple')\nplan.execute(True)\n")
        proc = run("-m", "repro.check.codelint", str(bad))
        assert proc.returncode == 1
        assert "keyword-only" in proc.stdout

    def test_detects_hot_path_loop(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        bad = core / "concurrent_updown.py"
        bad.write_text("def f(events):\n    for e in events:\n        pass\n")
        proc = run("-m", "repro.check.codelint", str(bad))
        assert proc.returncode == 1
        assert "hot path" in proc.stdout

    def test_detects_process_machinery_in_runtime(self, tmp_path):
        runtime = tmp_path / "runtime"
        runtime.mkdir()
        bad = runtime / "peer.py"
        bad.write_text(
            "import multiprocessing\n"
            "from signal import SIGKILL\n"
            "import os\n"
            "def f(pid):\n"
            "    os.kill(pid, SIGKILL)\n"
        )
        proc = run("-m", "repro.check.codelint", str(bad))
        assert proc.returncode == 1
        assert proc.stdout.count("supervision tree") == 3

    def test_supervision_modules_are_exempt(self, tmp_path):
        runtime = tmp_path / "runtime"
        runtime.mkdir()
        ok = runtime / "supervisor.py"
        ok.write_text("import multiprocessing\nimport signal\n")
        proc = run("-m", "repro.check.codelint", str(ok))
        assert proc.returncode == 0, proc.stdout

    def test_hot_path_loop_exemptions(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        ok = core / "propagate_down.py"
        ok.write_text(
            "def emit_builder(events):\n"
            "    for e in events:\n"
            "        pass\n"
            "def levels(tree):\n"
            "    'hot-loop-ok: iterates tree levels, not transmissions'\n"
            "    for lvl in tree:\n"
            "        pass\n"
        )
        proc = run("-m", "repro.check.codelint", str(ok))
        assert proc.returncode == 0, proc.stdout


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
class TestRuff:
    def test_ruff_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src/repro"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
class TestMypy:
    def test_mypy_strict_clean(self):
        proc = subprocess.run(
            ["mypy", "--strict", "src/repro"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
