"""Kill-and-resume matrix against the chaos driver (``tests/chaos.py``).

Each scenario runs the driver as a real subprocess, kills it at a
chosen or randomized instant (SIGKILL — no cleanup, no atexit), then
re-invokes it with ``--resume`` on the same result cache and asserts:

* the resumed campaign's final table is **bitwise-identical** to an
  uninterrupted run's, and
* **no stored point runs again**: ``served`` is the number of result
  keys with a ``.json`` envelope or a ``.dur`` sidecar under
  ``cache/replays/`` when the driver died; in the resumed session
  ``cache.replay.hits`` equals ``served``, and ``replay.runs`` and
  ``engine.points_executed`` both equal the grid size minus ``served``.

Also covers the graceful-drain contract (SIGTERM → exit code 5,
resumable) and the run-sequence numbers of killed sessions.  Every
kill is made by the driver or by this file; the program under test
has no fault hooks.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

DRIVER = Path(__file__).resolve().parent / "chaos.py"
TOTAL_POINTS = 8  # len(chaos.campaign_points())
SIGKILLED = -signal.SIGKILL


def scrubbed_env(extra: dict | None = None) -> dict:
    """Inherited env minus any driver kill request a caller left set."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_TEST_")}
    env.update(extra or {})
    return env


class DriverRun:
    """Outcome of one chaos-driver invocation."""

    def __init__(self, returncode: int, stdout: str, stderr: str):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def driver_cmd(workdir: Path, *, resume: str | None = None, jobs: int = 1,
               store_delay: float = 0.0) -> list[str]:
    cmd = [
        sys.executable, str(DRIVER),
        "--obs-dir", str(workdir / "obs"),
        "--cache-dir", str(workdir / "cache"),
        "--out", str(workdir / "table.txt"),
        "--metrics-json", str(workdir / "metrics.json"),
        "--jobs", str(jobs),
    ]
    if resume:
        cmd += ["--resume", resume]
    if store_delay:
        cmd += ["--store-delay", str(store_delay)]
    return cmd


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the driver's process group (orphaned pool workers too).

    A SIGKILLed process never returns to user space, so once the driver
    is reaped and its workers' last system calls have settled, nothing
    more lands in the cache.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait(timeout=60)
    time.sleep(0.1)


def invoke(workdir: Path, *, resume: str | None = None,
           env: dict | None = None, jobs: int = 1):
    """Run the chaos driver to completion; return (run, run_id).

    Output goes to files, not pipes: a SIGKILLed driver can leave
    orphaned pool workers holding inherited pipe ends, which would
    stall a ``communicate()``-style wait for EOF indefinitely.
    """
    out_path = workdir / "driver-stdout.log"
    err_path = workdir / "driver-stderr.log"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(driver_cmd(workdir, resume=resume, jobs=jobs),
                                stdout=out, stderr=err,
                                env=scrubbed_env(env),
                                start_new_session=True)
        try:
            proc.wait(timeout=120)
        finally:
            # Reap any orphaned pool workers a SIGKILLed driver left
            # behind — they must not keep storing points while the
            # resumed campaign runs.
            kill_group(proc)
    run = DriverRun(proc.returncode, out_path.read_text(),
                    err_path.read_text())
    return run, run_id_of(run.stdout)


def run_id_of(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("run-id: "):
            return line.removeprefix("run-id: ").strip()
    return None


def stored_points(workdir: Path) -> int:
    """Result keys a resumed session can serve from the cache."""
    replays = workdir / "cache" / "replays"
    if not replays.is_dir():
        return 0
    return len({p.stem for p in replays.iterdir()
                if p.suffix in (".json", ".dur")})


def final_metrics(workdir: Path) -> dict:
    return json.loads((workdir / "metrics.json").read_text())


def assert_resumed_clean(workdir: Path, baseline: str, served: int) -> None:
    """The post-resume invariants every scenario shares."""
    assert (workdir / "table.txt").read_text() == baseline
    metrics = final_metrics(workdir)
    assert metrics.get("cache.replay.hits", 0) == served
    assert metrics.get("replay.runs", 0) == TOTAL_POINTS - served
    assert metrics.get("engine.points_executed", 0) == TOTAL_POINTS - served


def resume_clean(workdir: Path, run_id: str, baseline: str,
                 jobs: int = 1) -> None:
    """Resume a killed or drained run and check it (served = what the
    cache holds now)."""
    served = stored_points(workdir)
    proc, _ = invoke(workdir, resume=run_id, jobs=jobs)
    assert proc.returncode == 0, proc.stderr
    assert_resumed_clean(workdir, baseline, served)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> str:
    """Final table of an uninterrupted campaign (the bitwise oracle)."""
    workdir = tmp_path_factory.mktemp("chaos-baseline")
    proc, run_id = invoke(workdir)
    assert proc.returncode == 0, proc.stderr
    assert_resumed_clean(workdir, (workdir / "table.txt").read_text(),
                         served=0)
    assert stored_points(workdir) == TOTAL_POINTS
    return (workdir / "table.txt").read_text()


class TestKillAndResume:
    def test_sigkill_pre_dispatch(self, tmp_path, baseline):
        proc, run_id = invoke(
            tmp_path, env={"REPRO_TEST_SELFKILL_BEFORE_DISPATCH": "1"})
        assert proc.returncode == SIGKILLED
        assert run_id is not None
        assert stored_points(tmp_path) == 0
        resume_clean(tmp_path, run_id, baseline)

    @pytest.mark.parametrize("after", [1, 3, 7, TOTAL_POINTS])
    def test_sigkill_after_nth_stored_point(self, tmp_path, baseline, after):
        """Killed right after a stored point; after the last one the
        resumed session executes nothing."""
        proc, run_id = invoke(
            tmp_path, env={"REPRO_TEST_SELFKILL_AFTER_STORE": str(after)})
        assert proc.returncode == SIGKILLED
        assert stored_points(tmp_path) == after
        resume_clean(tmp_path, run_id, baseline)

    def test_sigkill_at_randomized_instant(self, tmp_path, baseline):
        """The acceptance scenario: SIGKILL at a random instant, resume,
        bitwise-identical table, no stored point executed again."""
        rng = random.Random(0xC4A05)
        for trial in range(3):
            workdir = tmp_path / f"trial{trial}"
            workdir.mkdir()
            proc = subprocess.Popen(
                driver_cmd(workdir), stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, env=scrubbed_env(),
                start_new_session=True)
            run_id = run_id_of(proc.stdout.readline())
            assert run_id is not None
            time.sleep(rng.uniform(0.0, 0.4))
            kill_group(proc)
            proc.stdout.close()

            if proc.returncode == 0:
                # Outran the kill: already a complete, identical table.
                assert (workdir / "table.txt").read_text() == baseline
                continue
            assert proc.returncode == SIGKILLED
            resume_clean(workdir, run_id, baseline)

    def test_sigkill_and_resume_with_worker_pool(self, tmp_path, baseline):
        """Two workers; the process group dies once two points are
        stored (each stored point is followed by a pause, so the kill
        lands mid-grid)."""
        proc = subprocess.Popen(
            driver_cmd(tmp_path, jobs=2, store_delay=0.2),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=scrubbed_env(), start_new_session=True)
        run_id = run_id_of(proc.stdout.readline())
        deadline = time.monotonic() + 60.0
        while (proc.poll() is None and stored_points(tmp_path) < 2
               and time.monotonic() < deadline):
            time.sleep(0.005)
        kill_group(proc)
        proc.stdout.close()
        assert proc.returncode == SIGKILLED
        assert 2 <= stored_points(tmp_path) < TOTAL_POINTS
        resume_clean(tmp_path, run_id, baseline, jobs=2)

    def test_run_seq_counts_killed_sessions(self, tmp_path, baseline):
        """Start, kill, resume, kill, resume: sessions 1, 2, 3, although
        the killed sessions never wrote a manifest."""
        kill_after = {"REPRO_TEST_SELFKILL_AFTER_STORE": "2"}
        proc, run_id = invoke(tmp_path, env=kill_after)
        assert proc.returncode == SIGKILLED
        proc, _ = invoke(tmp_path, resume=run_id, env=kill_after)
        assert proc.returncode == SIGKILLED
        assert stored_points(tmp_path) == 4
        resume_clean(tmp_path, run_id, baseline)

        run_dir = tmp_path / "obs" / run_id
        events = [json.loads(line) for line in
                  (run_dir / "events.jsonl").read_text().splitlines()]
        assert [e["run_seq"] for e in events
                if e["kind"] == "run_start"] == [1, 2, 3]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run_seq"] == 3
        assert manifest["status"] == "ok"


class TestGracefulDrain:
    def test_sigterm_drains_to_exit_5_then_resume(self, tmp_path, baseline):
        proc, run_id = invoke(
            tmp_path, env={"REPRO_TEST_CHAOS_SELF_SIGTERM": "3"})
        assert proc.returncode == 5, (proc.stdout, proc.stderr)
        assert "interrupted" in proc.stderr
        # The drain stopped right after the third stored point.
        assert stored_points(tmp_path) == 3
        resume_clean(tmp_path, run_id, baseline)

    def test_interrupted_run_is_listed_as_resumable(self, tmp_path):
        proc, run_id = invoke(
            tmp_path, env={"REPRO_TEST_CHAOS_SELF_SIGTERM": "0"})
        assert proc.returncode == 5
        from repro.experiments import list_runs
        runs = {r["run_id"]: r for r in list_runs(tmp_path / "obs")}
        assert runs[run_id]["resumable"]
        assert runs[run_id]["status"] == "interrupted"
        assert runs[run_id]["run_seq"] == 1
