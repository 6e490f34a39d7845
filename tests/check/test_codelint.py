"""Fixture tests for the promoted conventions lint (repro.check.codelint).

Each new concurrency rule gets a firing fixture and a clean fixture; the
legacy rules keep their behaviour (the full legacy matrix lives in
``tests/analysis/test_lint_check.py``, which drives
``python -m repro.check.codelint``); and the whole source tree must lint
clean.
"""

import pathlib
import subprocess
import textwrap

import pytest

from repro.check.codelint import (
    check_file,
    collect_violations,
    main,
    tracked_artifact_violations,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def lint(tmp_path, parent, name, source):
    d = tmp_path / parent
    d.mkdir(exist_ok=True)
    f = d / name
    f.write_text(textwrap.dedent(source))
    return [message for _, _, message in check_file(f)]


class TestLockGuardRule:
    def test_unlocked_access_to_guarded_attr_fires(self, tmp_path):
        messages = lint(tmp_path, "service", "service.py", """\
            class Service:
                def __init__(self):
                    self._lock = object()
                    self._inflight = {}
                def submit(self, key):
                    with self._lock:
                        self._inflight[key] = 1
                def peek(self, key):
                    return self._inflight.get(key)
            """)
        assert len(messages) == 1
        assert "lock-guarded" in messages[0]
        assert "_inflight" in messages[0]

    def test_mutating_call_marks_attr_guarded(self, tmp_path):
        messages = lint(tmp_path, "service", "stats.py", """\
            class Stats:
                def record(self, x):
                    with self._lock:
                        self._samples.append(x)
                def drain(self):
                    return list(self._samples)
            """)
        assert len(messages) == 1 and "_samples" in messages[0]

    def test_all_access_under_lock_is_clean(self, tmp_path):
        messages = lint(tmp_path, "service", "cache.py", """\
            class Cache:
                def __init__(self):
                    self._lock = object()
                    self._entries = {}
                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v
                def get(self, k):
                    with self._lock:
                        return self._entries.get(k)
            """)
        assert messages == []

    def test_init_and_unguarded_attrs_exempt(self, tmp_path):
        messages = lint(tmp_path, "service", "plain.py", """\
            class Plain:
                def __init__(self):
                    self._n = 0
                def bump(self):
                    self._n += 1
            """)
        assert messages == []

    def test_rule_only_applies_to_service_layer(self, tmp_path):
        messages = lint(tmp_path, "core", "thing.py", """\
            class Thing:
                def submit(self, key):
                    with self._lock:
                        self._pending[key] = 1
                def peek(self, key):
                    return self._pending.get(key)
            """)
        assert messages == []


class TestAwaitUnderLockRule:
    def test_await_inside_lock_fires(self, tmp_path):
        messages = lint(tmp_path, "runtime", "flow.py", """\
            class Flow:
                async def push(self, item):
                    async with self._lock:
                        await self._channel.put(item)
            """)
        assert any("await while holding a lock" in m for m in messages)

    def test_await_after_lock_released_is_clean(self, tmp_path):
        messages = lint(tmp_path, "runtime", "flow.py", """\
            class Flow:
                async def push(self, item):
                    with self._lock:
                        staged = self.prepare(item)
                    await self.channel_put(staged)
            """)
        assert messages == []


class TestPipeOrderRule:
    def test_start_before_addrs_fires(self, tmp_path):
        messages = lint(tmp_path, "runtime", "supervisor.py", """\
            def rendezvous(pipes, book):
                for pipe in pipes:
                    pipe.send((START, None))
                for pipe in pipes:
                    pipe.send((ADDRS, book))
            """)
        assert len(messages) == 1
        assert "ADDRS after START" in messages[0]
        assert "HELLO" in messages[0]

    def test_protocol_order_is_clean(self, tmp_path):
        messages = lint(tmp_path, "runtime", "proc.py", """\
            def child(pipe, book):
                pipe.send((HELLO, 0))
                pipe.send((ADDRS, book))
                pipe.send((START, None))
            """)
        assert messages == []

    def test_real_supervisor_and_proc_obey_the_protocol(self):
        for name in ("supervisor.py", "proc.py"):
            path = REPO / "src" / "repro" / "runtime" / name
            assert not [
                m for _, _, m in check_file(path) if "control-pipe" in m
            ]


class TestBlockingAsyncRule:
    def test_blocking_recv_in_async_fires(self, tmp_path):
        messages = lint(tmp_path, "runtime", "bad.py", """\
            async def pump(conn):
                while True:
                    msg = conn.recv()
                    handle(msg)
            """)
        assert any("blocking call" in m and ".recv" in m for m in messages)

    def test_time_sleep_in_async_fires(self, tmp_path):
        messages = lint(tmp_path, "runtime", "bad.py", """\
            import time
            async def backoff():
                time.sleep(1.0)
            """)
        assert any("time.sleep" in m for m in messages)

    def test_sync_function_is_exempt(self, tmp_path):
        messages = lint(tmp_path, "runtime", "ok.py", """\
            def pump(conn):
                return conn.recv()
            """)
        assert messages == []


class TestTrackedArtifacts:
    def test_non_git_dir_is_silent(self, tmp_path):
        assert tracked_artifact_violations(tmp_path) == []

    def test_tracked_pyc_fires(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        bad = tmp_path / "__pycache__"
        bad.mkdir()
        (bad / "mod.cpython-311.pyc").write_bytes(b"\x00")
        subprocess.run(
            ["git", "-C", str(tmp_path), "add", "-f", "."], check=True
        )
        violations = tracked_artifact_violations(tmp_path)
        assert len(violations) == 1
        assert "compiled artifact" in violations[0][2]

    def test_this_repository_tracks_no_artifacts(self):
        assert tracked_artifact_violations(REPO) == []


class TestWholeTreeIsClean:
    def test_src_repro_lints_clean(self):
        assert collect_violations([REPO / "src" / "repro"]) == []

    def test_main_reports_ok(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main([]) == 0
        assert "conventions: OK" in capsys.readouterr().out

    def test_main_counts_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "builtin ValueError" in out
        assert "1 convention violation(s)" in out
