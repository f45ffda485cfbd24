"""Keyspace, thread pool and reader-writer lock unit tests."""

import threading
import time

import pytest

from repro.errors import WrongTypeError
from repro.graph.rwlock import RWLock
from repro.rediskv.keyspace import Keyspace
from repro.rediskv.threadpool import ThreadPool


class TestKeyspace:
    def test_string_roundtrip(self):
        ks = Keyspace()
        ks.set_string("a", "1")
        assert ks.get_string("a") == "1"
        assert ks.get_string("missing") is None

    def test_type_tags(self):
        ks = Keyspace()
        ks.set_string("s", "x")
        ks.set_graph("g", object())
        assert ks.type_of("s") == "string"
        assert ks.type_of("g") == "graph"
        assert ks.type_of("none") == "none"

    def test_wrongtype(self):
        ks = Keyspace()
        ks.set_string("k", "x")
        with pytest.raises(WrongTypeError):
            ks.get_graph("k")
        with pytest.raises(WrongTypeError):
            ks.set_graph("k", object())

    def test_delete_and_exists(self):
        ks = Keyspace()
        ks.set_string("a", "1")
        ks.set_string("b", "2")
        assert ks.exists("a", "b", "c") == 2
        assert ks.delete("a", "c") == 1
        assert ks.exists("a") == 0

    def test_keys_pattern(self):
        ks = Keyspace()
        for k in ("user:1", "user:2", "cfg"):
            ks.set_string(k, "x")
        assert ks.keys("user:*") == ["user:1", "user:2"]
        assert ks.keys() == ["cfg", "user:1", "user:2"]

    def test_graph_keys(self):
        ks = Keyspace()
        ks.set_string("s", "x")
        ks.set_graph("g1", object())
        assert ks.graph_keys() == ["g1"]

    def test_flush(self):
        ks = Keyspace()
        ks.set_string("a", "1")
        ks.flush()
        assert len(ks) == 0


class TestThreadPool:
    def test_submit_and_result(self):
        pool = ThreadPool(2)
        try:
            job = pool.submit(lambda a, b: a + b, 2, 3)
            assert job.result(timeout=5) == 5
            assert job.done
        finally:
            pool.shutdown()

    def test_error_propagates(self):
        pool = ThreadPool(1)
        try:
            job = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                job.result(timeout=5)
        finally:
            pool.shutdown()

    def test_callback_fires(self):
        pool = ThreadPool(1)
        fired = threading.Event()
        try:
            pool.submit(lambda: 42, callback=lambda job: fired.set())
            assert fired.wait(timeout=5)
        finally:
            pool.shutdown()

    def test_jobs_distribute_across_workers(self):
        pool = ThreadPool(4)
        names = set()
        barrier = threading.Barrier(4, timeout=5)

        def work():
            barrier.wait()
            names.add(threading.current_thread().name)

        try:
            jobs = [pool.submit(work) for _ in range(4)]
            for j in jobs:
                j.result(timeout=5)
            assert len(names) == 4
        finally:
            pool.shutdown()

    def test_shutdown_drains_queued_jobs(self):
        pool = ThreadPool(1)
        release = threading.Event()
        done = []
        blocker = pool.submit(release.wait, 5)
        queued = pool.submit(lambda: done.append(1))
        release.set()
        pool.shutdown()
        assert blocker.done and queued.done
        assert done == [1]

    def test_submit_after_shutdown(self):
        pool = ThreadPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadPool(0)

    def test_size_reports_thread_count(self):
        pool = ThreadPool(3)
        try:
            assert pool.size == 3
        finally:
            pool.shutdown()

    def test_single_worker_runs_jobs_in_submission_order(self):
        pool = ThreadPool(1)
        order = []
        try:
            jobs = [pool.submit(order.append, i) for i in range(20)]
            for j in jobs:
                j.result(timeout=5)
            assert order == list(range(20))
        finally:
            pool.shutdown()

    def test_callback_runs_on_worker_after_completion(self):
        """The server's reply path relies on this: the callback sees a
        finished job and runs on the pool thread, not the submitter."""
        pool = ThreadPool(1, name="cb-pool")
        seen = []
        fired = threading.Event()

        def callback(job):
            seen.append((job.done, job.result(), threading.current_thread().name))
            fired.set()

        try:
            pool.submit(lambda: 7, callback=callback)
            assert fired.wait(timeout=5)
            assert seen == [(True, 7, "cb-pool-0")]
        finally:
            pool.shutdown()

    def test_callback_fires_for_failed_job(self):
        pool = ThreadPool(1)
        got = []
        fired = threading.Event()

        def callback(job):
            got.append(job)
            fired.set()

        try:
            job = pool.submit(lambda: 1 / 0, callback=callback)
            assert fired.wait(timeout=5)
            assert got == [job] and job.done
            with pytest.raises(ZeroDivisionError):
                job.result()
        finally:
            pool.shutdown()

    def test_result_times_out_while_job_runs(self):
        pool = ThreadPool(1)
        release = threading.Event()
        try:
            job = pool.submit(lambda: release.wait(5) and "ok")
            with pytest.raises(TimeoutError):
                job.result(timeout=0.05)
            assert not job.done
            release.set()
            assert job.result(timeout=5) == "ok"
        finally:
            release.set()
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = ThreadPool(2)
        job = pool.submit(lambda: 1)
        pool.shutdown()
        pool.shutdown()
        assert job.result(timeout=0) == 1

    def test_get_or_create_graph_is_atomic(self):
        ks = Keyspace()
        made = []

        def factory():
            made.append(1)
            return object()

        barrier = threading.Barrier(4, timeout=5)
        got = []

        def racer():
            barrier.wait()
            got.append(ks.get_or_create_graph("g", factory))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(made) == 1  # exactly one instance built
        assert all(g is got[0] for g in got)


class TestRWLock:
    def test_multiple_readers(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                barrier.wait()  # all three readers inside simultaneously
                inside.append(1)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(inside) == 3

    def test_writer_exclusive(self):
        lock = RWLock()
        order = []

        def writer(tag):
            with lock.write():
                order.append(f"{tag}-in")
                time.sleep(0.02)
                order.append(f"{tag}-out")

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # never interleaved: each -in is immediately followed by its -out
        for i in range(0, 6, 2):
            assert order[i].split("-")[0] == order[i + 1].split("-")[0]

    def test_writer_blocks_reader(self):
        lock = RWLock()
        log = []
        lock.acquire_write()

        def reader():
            with lock.read():
                log.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert log == []  # reader parked while writer holds
        lock.release_write()
        t.join(timeout=5)
        assert log == ["read"]

    def test_writer_preference(self):
        lock = RWLock()
        log = []
        lock.acquire_read()

        def writer():
            with lock.write():
                log.append("write")

        def late_reader():
            with lock.read():
                log.append("late-read")

        wt = threading.Thread(target=writer)
        wt.start()
        time.sleep(0.05)  # writer now waiting
        rt = threading.Thread(target=late_reader)
        rt.start()
        time.sleep(0.05)
        assert log == []  # late reader must wait behind the waiting writer
        lock.release_read()
        wt.join(timeout=5)
        rt.join(timeout=5)
        assert log[0] == "write"
