"""The full-table kernels on several CPUs: ``boolfn._in_parallel`` passes a
worker's error to its caller after every worker is joined, and every output
of the butterfly, of the leaf analysis of its spectra and of the Monte-Carlo
estimator keeps its bits, and the butterfly and the estimator their memory,
whatever the number of workers.  The worker count, the size threshold and
the block size are patched, so that the butterfly's shares run on tables of
n <= 12; no test starts more than two threads at once."""

import contextlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolreg import (REAL, BooleanFunction, all_noisy_influences, boolfn, random_pm_one,
                     stability_mc_detail)
from boolreg.noise import _MC_CHUNK, _MC_ROWS, _analyzer
from oracles import int_mask_stability_mc

WORKER_COUNTS = (1, 2, 3)


@contextlib.contextmanager
def workers(k: int, threshold: int = 1, block_bits: int = 4):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boolfn, "_WORKERS", k)
        mp.setattr(boolfn, "_PARALLEL_ENTRIES", threshold)
        mp.setattr(boolfn, "_BLOCK_BITS", block_bits)
        yield


def under_each_count(fn) -> None:
    """fn()'s arrays under 1, 2 and 3 workers must have the same bytes."""
    outs = []
    for k in WORKER_COUNTS:
        with workers(k):
            outs.append([np.ascontiguousarray(a).tobytes() for a in fn()])
    assert outs[1] == outs[0] and outs[2] == outs[0]


# --- the helper ---------------------------------------------------------------

def test_a_worker_error_reaches_the_caller_after_every_join():
    done = []

    def task(w, start, stop):
        if w == 1:
            raise MemoryError("share 1")
        time.sleep(0.05)
        done.append(w)

    before = threading.active_count()
    with pytest.raises(MemoryError, match="share 1"):
        boolfn._in_parallel(task, 3, 3)
    assert sorted(done) == [0, 2]
    assert threading.active_count() == before


def test_the_first_share_error_wins_and_the_caller_waits_for_the_rest():
    done = []

    def task(w, start, stop):
        if w < 2:
            raise ValueError(f"share {w}")
        time.sleep(0.05)
        done.append(w)

    before = threading.active_count()
    with pytest.raises(ValueError, match="share 0"):
        boolfn._in_parallel(task, 3, 3)
    assert done == [2]
    assert threading.active_count() == before


def test_a_share_whose_thread_cannot_start_runs_in_the_caller(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ran = []
    boolfn._in_parallel(lambda w, start, stop: ran.append((w, start, stop, threading.get_ident())), 7, 3)
    assert sorted(ran) == [(0, 0, 2, threading.get_ident()), (1, 2, 4, threading.get_ident()),
                           (2, 4, 7, threading.get_ident())]
    values = np.random.default_rng(2).normal(size=1 << 10)
    with workers(1):
        want = boolfn._butterfly(values)
    with workers(3):
        assert boolfn._butterfly(values).tobytes() == want.tobytes()


def test_the_blocks_and_the_strips_are_shared_under_the_patches(monkeypatch):
    # with 2^4-entry blocks, a table of 2^12 entries has 2^8 blocks and 2^8
    # rows of strips, both shared among three workers: two threads each.
    # The caller runs a share of the strips and gets its buffer size back
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    bufsize = np.getbufsize()
    with workers(3):
        boolfn._butterfly(np.ones(1 << 12))
    assert len(started) == 4
    assert np.getbufsize() == bufsize


def test_shares_are_contiguous_and_cover_every_part():
    for parts in range(0, 9):
        for k in WORKER_COUNTS:
            seen = []
            boolfn._in_parallel(lambda w, start, stop: seen.append((w, start, stop)), parts, k)
            seen.sort()
            assert [w for w, _, _ in seen] == list(range(len(seen)))
            assert len(seen) == max(min(k, parts), 1)
            assert seen[0][1] == 0 and seen[-1][2] == parts
            assert all(a[2] == b[1] for a, b in zip(seen, seen[1:]))


WORKER_SCRIPT = """\
import sys, threading
from boolreg import boolfn
from boolreg.cli import main
boolfn._WORKERS, boolfn._PARALLEL_ENTRIES, boolfn._BLOCK_BITS = 2, 1, 3
stages = boolfn._stages
def stages_in_a_worker(x, buf):
    if threading.current_thread() is not threading.main_thread():
        {worker}
    stages(x, buf)
boolfn._stages = stages_in_a_worker
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("worker, code, message", [
    ("raise MemoryError('no room')", 4, "error: out of memory: no room\n"),
    # numpy's error state is the caller's in the workers: an overflow there
    # raises, as it does in a single-worker run
    ("pass", 3, "error: out of float64 range: overflow encountered in add\n"),
], ids=["memory_error", "overflow"])
def test_a_worker_error_ends_the_cli_with_one_line(worker, code, message, tmp_path):
    # 16 values in two blocks of 2^3, one per worker: the overflowing pair
    # is in the second worker's block
    path = tmp_path / "table.txt"
    values = ["0.5"] * 8 + ["1e308", "1e308"] + ["0.25"] * 6
    path.write_text("n=4\n" + "".join(v + "\n" for v in values), encoding="ascii")
    result = subprocess.run([sys.executable, "-c", WORKER_SCRIPT.format(worker=worker), "analyze",
                             "--fn", f"file:{path}"], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", message)


# --- bit identity across worker counts ----------------------------------------

@st.composite
def float_tables(draw, max_n=12):
    """2^n doubles: reals of magnitudes 1e-5 to 1e5, with -0.0 and
    subnormals among them."""
    n = draw(st.integers(0, max_n))
    mantissas = draw(arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0, allow_nan=False)))
    exponents = draw(arrays(np.int64, 1 << n, elements=st.integers(-5, 5)))
    values = mantissas * 10.0 ** exponents
    odd = draw(arrays(np.int64, 1 << n, elements=st.sampled_from([0, 0, 0, 1, 2])))
    values[odd == 1] = -0.0
    values[odd == 2] = np.ldexp(values[odd == 2], -1040)  # subnormal
    return values


@settings(max_examples=60, deadline=None)
@given(float_tables(), st.integers(1, 4), st.data())
def test_butterfly_keeps_its_bits_for_any_worker_count(values, tables, data):
    under_each_count(lambda: [boolfn._butterfly(values)])
    counts = np.sign(values).astype(np.int32)
    under_each_count(lambda: [boolfn._butterfly(counts, np.int32)])
    n = data.draw(st.integers(0, 9))
    batch = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(size=(1 << n, tables))
    under_each_count(lambda: [boolfn._butterfly(batch, tables=tables)])


@st.composite
def tables(draw):
    """A table over n <= 12 variables, to be transformed as Boolean int32
    counts or float64 coefficients and cut into 2^d rows over d fewer
    (ascending) variables."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["pm_one", "real", "zero_one"]))
    values = {"pm_one": lambda: rng.choice([-1.0, 1.0], 1 << n),
              "real": lambda: rng.normal(size=1 << n),
              "zero_one": lambda: rng.random(1 << n)}[kind]()
    dtype = np.int32 if kind == "pm_one" else np.float64
    d = draw(st.integers(0, n - 1))
    free = np.sort(rng.choice(n, n - d, replace=False))
    return n, values, dtype, np.tile(free, (1 << d, 1))


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([0.0, 0.1, 0.3, 1.0]), st.sampled_from([0.01, 0.1, np.inf]))
def test_the_analysis_of_a_spectrum_keeps_its_bits_for_any_worker_count(case, delta, eps):
    n, values, dtype, frees = case
    js = frees[np.arange(len(frees)), np.arange(len(frees)) % frees.shape[1]]

    def analyses():
        rows = boolfn._butterfly(values, dtype).reshape(len(frees), -1)
        analyze = _analyzer(n, delta, eps)
        return [rows, *analyze(frees, rows), analyze.influences(rows), *analyze.split(frees, rows, js),
                all_noisy_influences(BooleanFunction(n, values, REAL), delta)]

    under_each_count(analyses)


def test_shares_keep_their_bits_under_frequent_thread_switches():
    # the workers write disjoint parts of one output and one scratch array,
    # and the estimator's workers their own slots of its buffers and their
    # own chunks' sums: an overlap would show as lost or mixed entries
    values = np.random.default_rng(6).normal(size=1 << 14)
    f = BooleanFunction(14, values, REAL)
    with workers(1):
        want = boolfn._butterfly(values).tobytes(), stability_mc_detail(f, 0.2, 5 * 2 ** 16, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(3):
            for _ in range(20):
                assert boolfn._butterfly(values).tobytes() == want[0]
            for _ in range(3):
                assert stability_mc_detail(f, 0.2, 5 * 2 ** 16, 6) == want[1]
    finally:
        sys.setswitchinterval(interval)


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_butterfly_scratch_does_not_grow_with_workers():
    # three workers share the one scratch array of one: the strips narrow
    # instead; the threads' own objects are a few KiB
    values = np.random.default_rng(4).normal(size=1 << 20)
    peaks = []
    for k in (1, 3):
        with workers(k, threshold=1 << 17, block_bits=16):
            peaks.append(peak_bytes(lambda: boolfn._butterfly(values)))
    assert peaks[1] <= peaks[0] + (16 << 10), peaks


# --- the Monte-Carlo estimator ------------------------------------------------

@pytest.mark.parametrize("n", [1, 8, 22])
def test_stability_mc_keeps_its_bits_for_any_worker_count(n):
    # one sample, a row block and a chunk each side of full, and three full
    # chunks and a partial one, which three workers share 1, 1, 2
    f = random_pm_one(n, n)
    for samples in (1, 2 ** 12 - 1, 2 ** 12, 2 ** 12 + 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                    3 * 2 ** 16 + 5):
        want = [v.hex() for v in int_mask_stability_mc(f, 0.3, samples, samples)]
        for k in WORKER_COUNTS:
            with workers(k):
                got = stability_mc_detail(f, 0.3, samples, samples)
            assert [v.hex() for v in got] == want, (samples, k)


def test_stability_mc_of_a_real_table_adds_its_chunks_in_order():
    # real products of magnitudes 1e-10 to 1e10 round: each chunk's sums
    # must be numpy's sums over the whole chunk, added in chunk order
    rng = np.random.default_rng(3)
    f = BooleanFunction(10, rng.normal(size=1 << 10) * 10.0 ** rng.integers(-5, 6, size=1 << 10), REAL)
    want = [v.hex() for v in int_mask_stability_mc(f, 0.6, 5 * 2 ** 16 + 3, 8)]
    for k in WORKER_COUNTS:
        with workers(k):
            assert [v.hex() for v in stability_mc_detail(f, 0.6, 5 * 2 ** 16 + 3, 8)] == want, k


@pytest.mark.parametrize("n", [1, 8, 22, 24])
def test_a_chunk_takes_the_outputs_that_the_workers_jump(n):
    # a worker's generator is the seeded one advanced by 2^15 + 2^16 n per
    # chunk before its share: x's 2^16 draws in [0, 2^n) take the two 32-bit
    # halves of 2^15 outputs (Lemire's rule never rejects on a power of
    # two), the flips one output each.  A numpy that draws otherwise fails
    # here.  The buffered half (``uinteger``) is stale unless has_uint32 is set
    rng = np.random.default_rng(11)
    rng.integers(0, 1 << n, size=_MC_CHUNK, dtype=np.int64)
    rng.random((_MC_CHUNK, n))
    jumped = np.random.PCG64(11).advance((_MC_CHUNK >> 1) + _MC_CHUNK * n).state
    drawn = rng.bit_generator.state
    assert (drawn["state"], drawn["has_uint32"]) == (jumped["state"], jumped["has_uint32"])


def test_the_estimator_holds_its_buffers_and_no_chunk_of_draws():
    # per worker: a row block of draws (2^12 samples of n doubles), its masks
    # and flips, a row block of x as the generator returns it, and a chunk's
    # x and products; one chunk's 2^16 x n draws would be 8 MiB at n = 16
    n = 16
    f = random_pm_one(n, 5)
    for k in (1, 3):
        with workers(k):
            peak = peak_bytes(lambda: stability_mc_detail(f, 0.5, 2 ** 18, 2))
        buffers = k * 8 * (_MC_ROWS * (n + 3) + 2 * _MC_CHUNK)
        assert peak <= buffers + (64 << 10), (k, peak, buffers)
