"""`lifts.map_on_cpus`: the serial list comprehension's results, in order,
from the parent and forked workers, with every worker reaped."""

import os
import time

import pytest

from suspvdp.lifts import cpu_blocks, map_on_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def job(j):
    return {"j": j, "value": complex(j, -j) / 3, "odd": j % 2 == 1,
            "parts": [j / 7, str(j)]}


@pytest.mark.parametrize("count", [0, 1, 2, 5, 20])
def test_results_equal_the_serial_comprehension_in_order(count):
    jobs = list(range(count))
    assert map_on_cpus(job, jobs) == [job(j) for j in jobs]
    assert_no_child_left()


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 20])
def test_blocks_cover_the_jobs_with_the_longer_ones_first(count):
    blocks = cpu_blocks(count)
    assert sum(blocks) == count
    assert 1 <= len(blocks) <= max(1, count)
    assert blocks == sorted(blocks, reverse=True)
    assert blocks[0] - blocks[-1] <= 1


def test_each_block_runs_in_its_own_process():
    jobs = list(range(7))
    pids = map_on_cpus(lambda j: os.getpid(), jobs)
    blocks = cpu_blocks(len(jobs))
    assert pids[:blocks[0]] == [os.getpid()] * blocks[0]
    assert len(set(pids)) == len(blocks)
    assert_no_child_left()


def test_a_job_raising_in_a_worker_raises_here():
    def fails_last(j):
        if j == 5:
            raise ValueError("job 5 failed")
        return j

    with pytest.raises(ValueError, match="^job 5 failed$") as info:
        map_on_cpus(fails_last, list(range(6)))
    # raised by the parent's own run of the block, with its traceback
    assert info.traceback[-1].name == "fails_last"
    assert_no_child_left()


def test_a_job_raising_in_the_parent_reaps_the_workers():
    def fails_first(j):
        if j == 0:
            raise KeyError("first")
        return j

    with pytest.raises(KeyError, match="first"):
        map_on_cpus(fails_first, list(range(6)))
    assert_no_child_left()


def test_a_job_raising_in_the_parent_does_not_wait_for_the_workers():
    def fails_at_once(j):
        if j == 0:
            raise KeyError("first")
        time.sleep(1)
        return j

    start = time.perf_counter()
    with pytest.raises(KeyError, match="first"):
        map_on_cpus(fails_at_once, [0, 1])     # two jobs: one worker at most
    assert time.perf_counter() - start < 0.5
    assert_no_child_left()


def test_a_dead_worker_has_its_block_run_by_the_parent():
    parent = os.getpid()

    def dies_in_a_worker(j):
        if os.getpid() != parent:
            os._exit(3)
        return j * j

    assert map_on_cpus(dies_in_a_worker, list(range(6))) == \
        [j * j for j in range(6)]
    assert_no_child_left()


def test_results_marshal_cannot_send_are_computed_by_the_parent():
    got = map_on_cpus(lambda j: (j, object()), list(range(4)))
    assert [j for j, _ in got] == list(range(4))
    assert_no_child_left()


def test_the_parents_block_comes_back_as_the_objects_it_computed():
    made = []

    def job(j):
        # a worker's result must cross the pipe; the parent's never does
        if os.getpid() != parent:
            return j
        made.append(object())
        return made[-1]

    parent = os.getpid()
    got = map_on_cpus(job, [0, 1])
    assert got[0] is made[0]
    assert got[1:] == ([1] if len(cpu_blocks(2)) > 1 else [made[1]])
    assert_no_child_left()


def test_a_map_inside_a_worker_runs_serially():
    got = map_on_cpus(lambda j: cpu_blocks(4), list(range(4)))
    blocks = cpu_blocks(4)
    assert got[:blocks[0]] == [blocks] * blocks[0]
    assert got[blocks[0]:] == [[4]] * (4 - blocks[0])


def refuse_fork():
    raise AssertionError("forked")


def test_one_cpu_in_the_affinity_mask_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert cpu_blocks(20) == [20]
    assert map_on_cpus(job, list(range(20))) == [job(j) for j in range(20)]


def test_no_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert cpu_blocks(20) == [20]
    assert map_on_cpus(job, list(range(5))) == [job(j) for j in range(5)]


def test_a_failed_fork_leaves_the_block_to_the_parent(monkeypatch):
    def no_process():
        raise BlockingIOError("no process")

    monkeypatch.setattr(os, "fork", no_process)
    assert map_on_cpus(job, list(range(5))) == [job(j) for j in range(5)]
