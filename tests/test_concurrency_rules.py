"""Tests for the concurrency lint rules: ``thread-escape``,
``lock-discipline`` and the interprocedural ``kernel-determinism`` sweep.

Each rule gets tripping and passing fixtures on synthetic packages, the
planted-race fixture (``tests/fixtures/racepkg``) proves the end-to-end
story the README documents, and suppression comments are verified to
waive project-scope findings at the site they anchor to.
"""

import textwrap
from pathlib import Path

from repro.staticcheck import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
RACEPKG = REPO_ROOT / "tests" / "fixtures" / "racepkg"


def _write_pkg(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path)


def _rules_fired(report):
    return {finding.rule for finding in report.gating}


# --------------------------------------------------------------------------- #
class TestLockDiscipline:
    RULE = ["lock-discipline"]

    def test_unguarded_write_to_inferred_guarded_field_flagged(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n

                def sneak(self):
                    self.total += 1
        """})], rule_ids=self.RULE)
        assert _rules_fired(report) == {"lock-discipline"}
        (finding,) = report.gating
        assert "sneak" in finding.message and "self.total" in finding.message

    def test_all_writes_guarded_passes(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n
        """})], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_init_writes_exempt(self, tmp_path):
        # construction precedes sharing: __init__ may write bare
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            import threading

            class Counter:
                def __init__(self, start):
                    self._lock = threading.Lock()
                    self.total = start

                def reset(self):
                    with self._lock:
                        self.total = 0
        """})], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_class_without_lock_not_governed(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            class Plain:
                def __init__(self):
                    self.total = 0

                def add(self, n):
                    self.total += n
        """})], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_lock_acquire_try_finally_counts_as_guarded(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n

                def add_timeout(self, n):
                    self._lock.acquire(timeout=1.0)
                    try:
                        self.total += n
                    finally:
                        self._lock.release()
        """})], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_suppression_waives_but_records(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {"mod.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n

                def sneak(self):
                    self.total += 1  # repro-lint: ignore[lock-discipline]
        """})], rule_ids=self.RULE)
        assert report.exit_code() == 0
        assert [f.rule for f in report.suppressed] == ["lock-discipline"]


# --------------------------------------------------------------------------- #
class TestThreadEscape:
    RULE = ["thread-escape"]

    def test_planted_race_fixture_flagged(self):
        report = lint_paths([str(RACEPKG)], rule_ids=self.RULE)
        (finding,) = report.gating
        assert finding.rule == "thread-escape"
        assert finding.path.endswith("board.py")
        assert "bump_miss" in finding.message
        # the finding tells the whole story: the submission site that
        # makes the function thread-reachable is named with its location
        assert "runner.py" in finding.message and "Thread" in finding.message

    def test_locked_write_in_submitted_callable_passes(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import threading

                class Shared:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                def drive(shared: Shared, pool):
                    pool.submit(shared.bump)
            """,
        })], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_module_global_rebind_from_thread_flagged(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import threading

                _TICKS = 0

                def tick():
                    global _TICKS
                    _TICKS += 1

                def run():
                    worker = threading.Thread(target=tick)
                    worker.start()
            """,
        })], rule_ids=self.RULE)
        assert _rules_fired(report) == {"thread-escape"}
        assert "_TICKS" in report.gating[0].message

    def test_global_rebind_in_mapped_callable_flagged(self, tmp_path):
        """``Executor.map`` hands its first argument to pool threads, passed
        directly or forwarded through a parameter."""
        for name, mapped in (("direct", "tick"), ("forwarded", "work")):
            report = lint_paths([_write_pkg(tmp_path / name, {
                "pkg/__init__.py": "",
                "pkg/mod.py": """
                    from concurrent.futures import ThreadPoolExecutor

                    _TICKS = 0

                    def tick(item):
                        global _TICKS
                        _TICKS += item

                    def run_all(work, items):
                        with ThreadPoolExecutor(max_workers=2) as threads:
                            return list(threads.map(%s, items))

                    def run():
                        return run_all(tick, [1, 2, 3])
                """ % mapped,
            })], rule_ids=self.RULE)
            assert _rules_fired(report) == {"thread-escape"}, name
            (finding,) = report.gating
            assert "_TICKS" in finding.message and "map" in finding.message, name

    def test_unsubmitted_function_not_governed(self, tmp_path):
        # the same unlocked global rebind is fine when nothing threads it
        report = lint_paths([_write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                _TICKS = 0

                def tick():
                    global _TICKS
                    _TICKS += 1
            """,
        })], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_suppression_waives_project_scope_finding_at_site(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import threading

                _TICKS = 0

                def tick():
                    global _TICKS
                    # single writer thread; readers tolerate staleness
                    # repro-lint: ignore[thread-escape]
                    _TICKS += 1

                def run():
                    worker = threading.Thread(target=tick)
                    worker.start()
            """,
        })], rule_ids=self.RULE)
        assert report.exit_code() == 0
        assert [f.rule for f in report.suppressed] == ["thread-escape"]


# --------------------------------------------------------------------------- #
class TestInterproceduralKernelDeterminism:
    RULE = ["kernel-determinism"]

    def test_env_read_in_reachable_helper_flagged(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "core/kernels/k.py": """
                from helper import ambient_threads

                def kernel(values):
                    return ambient_threads() * len(values)
            """,
            "util/helper.py": """
                import os

                def ambient_threads():
                    return int(os.getenv("OMP_NUM_THREADS", "1"))
            """,
        })], rule_ids=self.RULE)
        assert _rules_fired(report) == {"kernel-determinism"}
        (finding,) = report.gating
        assert finding.path.endswith("helper.py")
        assert "reachable from kernel entry" in finding.message
        assert "kernel" in finding.message

    def test_unreachable_helper_not_governed(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "core/kernels/k.py": """
                def kernel(values):
                    return sum(values)
            """,
            "util/helper.py": """
                import os

                def ambient_threads():
                    return int(os.getenv("OMP_NUM_THREADS", "1"))
            """,
        })], rule_ids=self.RULE)
        assert report.exit_code() == 0

    def test_clock_read_two_hops_out_flagged(self, tmp_path):
        report = lint_paths([_write_pkg(tmp_path, {
            "core/kernels/k.py": """
                from helper import stamp

                def kernel(values):
                    return stamp(values)
            """,
            "util/helper.py": """
                import time

                def stamp(values):
                    return now() + len(values)

                def now():
                    return time.perf_counter()
            """,
        })], rule_ids=self.RULE)
        messages = [f.message for f in report.gating]
        assert any("clock read" in m for m in messages)

    def test_set_iteration_stays_module_local(self, tmp_path):
        # the set-order check governs kernel modules, not reachable helpers
        report = lint_paths([_write_pkg(tmp_path, {
            "core/kernels/k.py": """
                from helper import total

                def kernel(values):
                    return total(values)
            """,
            "util/helper.py": """
                def total(values):
                    acc = 0.0
                    for value in set(values):
                        acc += value
                    return acc
            """,
        })], rule_ids=self.RULE)
        assert report.exit_code() == 0
