"""``polekit run`` computes the hatted side of verify jobs in one forked
worker when a second CPU is usable.  Its reports must be the bytes of
the in-process run, also when a side raises or the worker dies, and no
child process may outlive ``run``."""

import ctypes
import os
import resource
from contextlib import contextmanager
from pathlib import Path

import pytest

from polekit import cli
from polekit import transport as tp
from polekit.cli import run
from polekit.errors import DomainError
from polekit.scene import parse_scene

SCENES = Path(__file__).parent.parent / "scenes"

needs_worker = pytest.mark.skipif(
    not cli._can_fork(), reason="the worker needs a second usable CPU")


@contextmanager
def one_cpu():
    """Run the block with one usable CPU, as under ``taskset -c 0``."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_scene(name, out_dir):
    run(parse_scene((SCENES / f"{name}.scene").read_text()), out_dir=out_dir)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", ["worked_example", "invariance_example",
                                  "classify_example", "potentials_example"])
def test_worker_and_in_process_reports_are_byte_identical(tmp_path, name):
    with one_cpu():
        serial = run_scene(name, tmp_path / "serial")
    assert run_scene(name, tmp_path / "worker") == serial
    assert "report.txt" in serial and "report.json" in serial


@needs_worker
def test_worker_computes_the_hatted_side(tmp_path, monkeypatch):
    """Every hatted side of a run with two CPUs is computed in another
    process, one job after the other."""
    log = tmp_path / "pids"
    hatted_side = cli._hatted_side

    def logged(scene, job):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {job['name']}\n")
        return hatted_side(scene, job)

    monkeypatch.setattr(cli, "_hatted_side", logged)
    run_scene("invariance_example", tmp_path / "out")
    scene = parse_scene((SCENES / "invariance_example.scene").read_text())
    rows = [line.split() for line in log.read_text().splitlines()]
    assert [name for _, name in rows] == [
        j["name"] for j in scene.jobs if j["command"] == "verify"]
    assert {pid for pid, _ in rows} != {str(os.getpid())}
    assert len({pid for pid, _ in rows}) == 1


@needs_worker
@pytest.mark.parametrize("where", ["worker", "everywhere"])
def test_hatted_side_that_raises_gives_the_serial_report(tmp_path,
                                                         monkeypatch, where):
    """A transport that raises in the worker alone is redone here; one
    that raises everywhere fails the job with the serial run's error."""
    with one_cpu():
        clean = run_scene("worked_example", tmp_path / "clean")
    parent = os.getpid()
    transform = tp.transform_quadrupole

    def failing(*args, **kwargs):
        if where == "everywhere" or os.getpid() != parent:
            raise DomainError("transport refused")
        return transform(*args, **kwargs)

    monkeypatch.setattr(tp, "transform_quadrupole", failing)
    with one_cpu():
        serial = run_scene("worked_example", tmp_path / "serial")
    assert (serial == clean) == (where == "worker")
    assert run_scene("worked_example", tmp_path / "worker") == serial


@needs_worker
def test_worker_that_dies_gives_the_serial_report(tmp_path, monkeypatch):
    with one_cpu():
        serial = run_scene("invariance_example", tmp_path / "serial")
    monkeypatch.setattr(cli, "_hatted_side", lambda scene, job: os._exit(3))
    assert run_scene("invariance_example", tmp_path / "worker") == serial


@needs_worker
def test_failed_fork_runs_verify_here(tmp_path, monkeypatch):
    with one_cpu():
        serial = run_scene("worked_example", tmp_path / "serial")

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_scene("worked_example", tmp_path / "no-fork") == serial


@needs_worker
def test_run_that_raises_leaves_no_worker(tmp_path, monkeypatch):
    """A run that raises kills and reaps the worker, even mid-job."""
    def stuck(scene, job):
        while True:
            pass

    def crash(scene, job, out_dir):
        raise RuntimeError("transform crashed")

    monkeypatch.setattr(cli, "_hatted_side", stuck)
    monkeypatch.setattr(cli, "_RUNNERS", dict(cli._RUNNERS, transform=crash))
    scene = parse_scene((SCENES / "worked_example.scene").read_text())
    with pytest.raises(RuntimeError, match="transform crashed"):
        run(scene, out_dir=tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_run_keeps_its_heap(tmp_path):
    """A second one-CPU run of the worked example faults in almost no
    memory: run has malloc keep what it frees (without that, a run takes
    about 17,000 minor faults)."""
    text = (SCENES / "worked_example.scene").read_text()
    with one_cpu():
        run(parse_scene(text), out_dir=tmp_path / "first")
        scene = parse_scene(text)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(scene, out_dir=tmp_path / "second")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000
