"""The repo benchmark: four closed-loop workloads against the engine's
own socket server, measured from outside.

Driver form (one workload, one pass; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Full form (every workload, both passes, one result file for compare.py)::

    python3 benchmarks/e2e/run.py --seed 1 --out A.json [--repeat 3] [--smoke]

``--trace 0`` is the end-to-end pass: a server process with the default
configuration, one closed-loop connection from this process that spins
a little after every op (see ``spin``: every end-to-end time is read on
the benchmark's own clock, which ticks in units of that spin), a
warm-up, a measured window cut into short slices, then SIGKILL under
load, restart on the same data directory and the workload's correctness
checks against the recovered server.  No benchmark span is recorded in
it.  ``--trace 1`` is the layers run: a one-caller phase, a two-caller
phase with counter snapshots around it, a SIGKILL and a timed restart,
then the in-process layers pass (``layers.py``); its times are plain
wall-clock times.  See README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no engine to measure: {SRC}/repro is missing")
sys.path[:0] = [HERE, SRC]

from repro.server import Client, ProtocolError, ServerError  # noqa: E402

from workloads import FULL, SMOKE, WORKLOADS, shape  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
#: closed-loop connections of the end-to-end pass.  One: the caller and
#: the server's thread then take turns, so the pass never asks for more
#: than one of this VM's two cores, which is what a spin asks for too
#: (see ``spin``); what a second caller changes is the layers run's to tell
CALLERS = 1
SLICE_S = 0.25
WARMUP_SHARE = 0.15
#: set-ups per end-to-end run (``setup_s`` is their median): as many as
#: their length affords.  A set-up can only be clocked from its two ends
#: (see ``Server``), so the shorter it is the more of them it takes; the
#: wholesale load takes ~12 s, so ``analytic`` can afford only one
SETUPS = {"point_read": 4, "mixed_oltp": 4, "txn_commit": 7, "analytic": 1}
COMMIT_KINDS = ("insert", "update", "delete", "txn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


# -- the benchmark's clock ---------------------------------------------------------

#: what one spin() takes on the VM the first numbers came from while its
#: host is quiet; a machine on which it takes this long has speed 1.0
REFERENCE_SPIN_S = 30e-6
#: a caller spins for this share of the time its ops take
SPIN_SHARE = 0.10
#: spins before a server process starts and after it is ready
SERVER_SPINS = 3000

SPIN_ROWS, SPIN_PROBES = 1000, 100
_ROWS = [(i, str(i), float(i)) for i in range(SPIN_ROWS)]
_INDEX = {i: (i, str(i)) for i in range(SPIN_ROWS)}
_PROBES = random.Random(0).choices(range(SPIN_ROWS), k=SPIN_PROBES)


class _Cell:
    __slots__ = ("key", "entry")

    def __init__(self, key: int, entry: Tuple[int, str]):
        self.key, self.entry = key, entry


def spin() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    The engine is CPU-bound Python, and the processor this VM gets is
    not steady: for seconds or for minutes the same code takes a fifth
    to a half longer, with no steal time on the books (its CPU time
    grows with its wall time), so it is the host's other tenants on the
    cores' shared parts.  So the end-to-end pass spins next to what it
    measures — a caller spins after every op until it has spun a tenth
    as long as its ops took — and reads every time on a clock that
    ticks in spins: seconds x (REFERENCE_SPIN_S / mean spin seconds
    then).  A slowdown of the host stretches both alike and drops out;
    a change in the engine stretches only one.  The work is a hundred
    list and dict lookups, a little arithmetic and a small object each:
    the interpreter's staple, in a footprint that stays in the core's
    own cache."""
    start = time.perf_counter()
    rows, index = _ROWS, _INDEX
    total = 0
    cells = []
    for j in _PROBES:
        row, entry = rows[j], index[j]
        total += row[0] + len(entry[1])
        cells.append(_Cell(row[0], entry))
    return time.perf_counter() - start


def speed(spins: Sequence[float]) -> float:
    return REFERENCE_SPIN_S / statistics.fmean(spins)


def settled_speed(spins: Sequence[float]) -> float:
    """The speed a run of back-to-back spins shows once the hiccups in
    it (this thread off the core for a few milliseconds) are set aside:
    the median of the means of its twentieths."""
    step = max(1, len(spins) // 20)
    return speed([
        statistics.median(
            statistics.fmean(spins[i : i + step]) for i in range(0, len(spins), step)
        )
    ])


# -- server process and callers ----------------------------------------------------


class Server:
    """One ``server_main.py`` process; ``ready_s`` is process start to
    first request answered, ``ready_ref_s`` the same on the spin clock."""

    def __init__(self, workload, seed: int, data_dir: str, smoke: bool, extra=()):
        self.out = data_dir + ".server.json"
        cmd = [
            sys.executable, os.path.join(HERE, "server_main.py"),
            "--workload", workload.name, "--seed", str(seed),
            "--data-dir", data_dir, "--out", self.out, *extra,
        ]
        if smoke:
            cmd.append("--smoke")
        spins = [spin() for _ in range(SERVER_SPINS)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server process exited before serving")
            self.hello = json.loads(line)
            self.port = self.hello["port"]
            with self.client() as c:
                c.execute(
                    f"SELECT {workload.probe_column} FROM {workload.probe_table} "
                    f"WHERE {workload.probe_column} = 0"
                )
            self.ready_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise
        spins += [spin() for _ in range(SERVER_SPINS)]
        self.ready_ref_s = self.ready_s * settled_speed(spins)

    def client(self) -> Client:
        return Client("127.0.0.1", self.port, timeout=120.0)

    def snapshot(self) -> Dict[str, Any]:
        """The engine's public counters as of now."""
        self.proc.stdin.write("snapshot\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process did not take a snapshot")
        return json.loads(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        self.proc.kill()
        self._reap()

    def finish(self) -> Dict[str, Any]:
        """stdin-EOF: the server dumps its counters, runs the layers
        pass if it was asked to, closes the database and exits.  The
        caller still calls kill(), which reaps whatever is left."""
        self.proc.stdin.close()
        if self.proc.wait(timeout=150) != 0:
            raise RuntimeError("server process failed at shutdown")
        with open(self.out) as f:
            return json.load(f)

    def _reap(self) -> None:
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


# one op as a caller saw it: (slice, start, end, kind, ok, rows)
Op = Tuple[int, float, float, str, bool, int]


class Caller(threading.Thread):
    """One closed-loop connection: the next op goes out only when the
    previous one's reply has been decoded and checked and, with
    *spinning*, the caller has spun its share.  Its ops fall into slices
    of SLICE_S seconds by the time they start; on ``analytic`` a slice
    is one round instead, so every slice holds the same queries."""

    def __init__(self, server: Server, stream, spinning: bool):
        super().__init__(daemon=True)
        self.server, self.stream, self.spinning = server, stream, spinning
        self.ready = threading.Event()
        self.go = threading.Event()
        self.stop = threading.Event()
        self.t0 = 0.0
        self.ops: List[Op] = []
        self.statements: List[Tuple[int, float, float, str]] = []  # slice, start, end, sql
        self.spins: Dict[int, List[float]] = {}  # by slice
        self.prepared = False

    def run(self) -> None:
        client = self.server.client()
        whole = getattr(self.stream, "round_size", 0)
        index = 0

        def execute(sql: str):
            start = time.perf_counter()
            rows = client.execute(sql).rows
            self.statements.append((index, start, time.perf_counter(), sql))
            return rows

        try:
            self.prepared = self.stream.prepare(lambda sql: client.execute(sql).rows)
            self.ready.set()
            self.go.wait()
            owed = 0.0  # seconds of spinning
            while not self.stop.is_set():
                start = time.perf_counter()
                index = len(self.ops) // whole if whole else int((start - self.t0) / SLICE_S)
                try:
                    kind, ok, rows = self.stream.run_one(execute)
                except ServerError:
                    kind, ok, rows = "error", False, 0
                end = time.perf_counter()
                self.ops.append((index, start, end, kind, ok, rows))
                if self.spinning:
                    owed += (end - start) * SPIN_SHARE
                    spins = self.spins.setdefault(index, [])
                    while owed > 0:
                        spins.append(spin())
                        # a spin that sat out a hiccup pays for itself only
                        owed -= min(spins[-1], 2 * REFERENCE_SPIN_S)
        except (OSError, ProtocolError):
            pass  # the server was killed under us: the op on the wire is unacknowledged
        finally:
            self.ready.set()
            client.close()


class Window:
    """What ``drive`` hands back: the callers with all they recorded,
    and which of their slices lie inside the measured window."""

    def __init__(self, callers: List[Caller], begin: float, end: float, rss: float):
        self.callers = callers
        self.peak_rss_mb = rss
        inside: Dict[int, bool] = {}
        for c in callers:
            for op in c.ops:
                inside[op[0]] = inside.get(op[0], True) and begin <= op[1] < end
        #: the slices every op of which started in the window (and, where
        #: the callers spin, that have a spin to be clocked by)
        self.measured = sorted(
            i for i, ok in inside.items()
            if ok and all(c.spins.get(i) for c in callers if c.spinning)
        )

    def speed(self, i: int) -> float:
        return speed([s for c in self.callers for s in c.spins.get(i, ())])

    def busy(self, items) -> float:
        """Seconds the ops or statements of the measured slices took."""
        measured = set(self.measured)
        return sum(item[2] - item[1] for item in items if item[0] in measured)


def drive(
    server: Server, streams, seconds: float, kill: bool = False, spinning: bool = True
) -> Window:
    """Run one caller per stream: a warm-up, then *seconds* of measured
    window, then the server's peak RSS is read.  With *kill* the server
    dies under the running callers."""
    callers = [Caller(server, s, spinning) for s in streams]
    for c in callers:
        c.start()
    for c in callers:
        c.ready.wait()
    if not all(c.is_alive() for c in callers):
        raise RuntimeError("a caller stopped before the window opened")
    t0 = time.perf_counter()
    for c in callers:
        c.t0 = t0
        c.go.set()
    begin = t0 + round(seconds * WARMUP_SHARE / SLICE_S) * SLICE_S
    end = begin + seconds
    # ops that straddle the end belong to slices the window leaves out
    time.sleep(end + SLICE_S - time.perf_counter())
    rss = server.peak_rss_mb()
    if kill:
        server.kill()
    for c in callers:
        c.stop.set()
    for c in callers:
        c.join(timeout=60)
        if c.is_alive():
            raise RuntimeError("a caller did not stop")
    return Window(callers, begin, end, rss)


# -- figures -----------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end_figures(window: Window, spin_clock: bool = True):
    """Each measured slice's own figures, its times on the spin clock
    of the spins inside it, then the median slice of each figure: a
    slice another tenant of the host disturbed more than its spins show
    moves a mean or a pooled percentile, and leaves the median slice
    where it was.  Throughput is ops per second of the time the caller's
    ops took (its spins are not the engine's time); with more callers,
    the sum of their rates.  Without *spin_clock*, the same in plain
    seconds."""
    per_slice: Dict[str, List[float]] = {}
    counts = []
    for i in window.measured:
        speed_ = window.speed(i) if spin_clock else 1.0
        lat: List[float] = []
        ops_s = rows_s = 0.0
        for c in window.callers:
            ops = [op for op in c.ops if op[0] == i]
            done = [op for op in ops if op[3] != "checkpoint" and op[4]]
            if not done:
                raise RuntimeError("a caller completed no op in a slice of the window")
            seconds = sum(op[2] - op[1] for op in ops) * speed_
            ops_s += len(done) / seconds
            rows_s += sum(op[5] for op in done) / seconds
            lat.extend((op[2] - op[1]) * 1000.0 * speed_ for op in done)
        lat.sort()
        counts.append(len(lat))
        for name, value in (
            ("throughput_ops_s", ops_s),
            ("rows_per_s", rows_s),
            ("latency_p50_ms", percentile(lat, 0.50)),
        ):
            per_slice.setdefault(name, []).append(value)
    figures = {k: statistics.median(v) for k, v in per_slice.items()}
    return figures, {"slices": len(counts), "ops_per_slice": int(statistics.median(counts))}


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool, tmp: str):
    scale = SMOKE if smoke else FULL
    setups: List[float] = []
    setup_wall: List[float] = []
    server = None
    try:
        for i in range(1 if smoke else SETUPS[workload.name]):
            if server is not None:
                server.kill()
            data_dir = os.path.join(tmp, f"data{i}")
            server = Server(workload, seed, data_dir, smoke)
            setups.append(server.ready_ref_s)
            setup_wall.append(server.ready_s)
        streams = [workload(seed, i, scale) for i in range(CALLERS)]
        window = drive(server, streams, seconds, kill=workload.crash)
        if workload.crash:
            # restart on what the killed process left and check that
            server = Server(workload, seed, data_dir, smoke)
        with server.client() as client:
            checked = streams[0].final_check(
                lambda sql: client.execute(sql).rows, streams
            )
        server.finish()
    finally:
        if server is not None:
            server.kill()
    figures, samples = end_to_end_figures(window)
    wall, _ = end_to_end_figures(window, spin_clock=False)
    wall.update(setup_s=statistics.median(setup_wall))
    figures.update(setup_s=statistics.median(setups), peak_rss_mb=window.peak_rss_mb)
    measured = set(window.measured)
    ops = [op for c in window.callers for op in c.ops if op[0] in measured]
    if not ops:
        raise RuntimeError("no slice of the window was measured")
    prepared = all(c.prepared for c in window.callers)
    bad = sum(not op[4] for op in ops)
    speeds = [window.speed(i) for i in window.measured]
    return {
        **({"recovery": {"seconds": server.ready_s}} if workload.crash else {}),
        "metrics": figures,
        "attempted": len(ops),
        "failed": bad + (not checked) + (not prepared),
        "samples": {**samples, "setups": len(setups)},
        "speed": {"min": min(speeds), "median": statistics.median(speeds), "max": max(speeds)},
        "wall_clock": wall,
        "checks": {
            "replies": not bad, "prepared": prepared,
            "recovered" if workload.crash else "final": checked,
        },
    }


def run_layers(workload, seed: int, seconds: float, smoke: bool, tmp: str):
    scale = SMOKE if smoke else FULL
    phase = seconds / 4.0
    trace_out = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    data_dir = os.path.join(tmp, "data")
    server = Server(workload, seed, data_dir, smoke)
    try:
        setup = server.hello["setup"]
        spins = [spin() for _ in range(SERVER_SPINS)]
        streams = [workload(seed, i, scale) for i in range(3)]
        w1 = drive(server, streams[2:], phase, spinning=False)
        before = server.snapshot()
        w2 = drive(server, streams[:2], phase, spinning=False)
        after = server.snapshot()
        spins += [spin() for _ in range(SERVER_SPINS)]
        # crash it idle, and time the restart on what it left: everything
        # the set-up and the two phases wrote is in the log, none of it
        # in a checkpoint
        server.kill()
        server = Server(
            workload, seed, data_dir, smoke,
            extra=("--layers", "--trace-out", trace_out),
        )
        with server.client() as client:
            recovered = streams[0].final_check(
                lambda sql: client.execute(sql).rows, streams
            )
            rows = sum(
                client.execute(f"SELECT COUNT(*) FROM {t}").rows[0][0]
                for t in workload.tables
            )
            start = time.perf_counter()
            client.execute("CHECKPOINT")
            checkpoints = [time.perf_counter() - start]
        dump = server.finish()
    finally:
        server.kill()

    def statements(window: Window) -> Tuple[List[Tuple[float, str]], float]:
        """The measured slices' statements, and statements per second
        of the time the ops took, summed over the callers."""
        measured = set(window.measured)
        found, rate = [], 0.0
        for c in window.callers:
            own = [s for s in c.statements if s[0] in measured]
            found += [(s[2] - s[1], s[3]) for s in own]
            rate += len(own) / window.busy(c.ops)
        return found, rate

    (one,), many = w1.callers, w2.callers
    c1, c1_rate = statements(w1)
    c1_ops = sorted(
        (op[2] - op[1]) * 1000.0
        for op in one.ops
        if op[0] in set(w1.measured) and op[3] != "checkpoint"
    )
    c2, c2_rate = statements(w2)
    ops = [op for c in many for op in c.ops]
    checkpoints += [op[2] - op[1] for op in ops + one.ops if op[3] == "checkpoint"]
    commits = sum(op[3] in COMMIT_KINDS for op in ops)
    busy = sum(op[2] - op[1] for op in ops)  # caller-seconds between the snapshots

    def delta(*path) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layers = dump["layers"]
    # client-observed minus in-process, statement shape by shape (the
    # difference of two medians over a mix of shapes would be the mix's)
    by_shape: Dict[str, List[float]] = {}
    for seconds_, sql in c1:
        by_shape.setdefault(shape(sql), []).append(seconds_)
    inproc = layers["execute_s_by_shape"]
    shared = [k for k in by_shape if k in inproc]
    roundtrip_s = sum(
        len(by_shape[k]) * (statistics.median(by_shape[k]) - inproc[k]) for k in shared
    ) / sum(len(by_shape[k]) for k in shared)
    metrics = dict(layers["metrics"])
    metrics.update(
        {
            "server.c1_stmts_per_s": c1_rate,
            "server.c2_over_c1": share(c2_rate, c1_rate),
            "server.roundtrip_overhead_us": roundtrip_s * 1e6,
            "server.latency_p95_ms": percentile(c1_ops, 0.95),
            "server.latency_p99_ms": percentile(c1_ops, 0.99),
            "host.spin_us": REFERENCE_SPIN_S / settled_speed(spins) * 1e6,
            "engine.plan_cache_hit_rate": share(
                delta("plan_cache", "hits"),
                delta("plan_cache", "hits") + delta("plan_cache", "misses"),
            ),
            "storage.buffer_hit_rate": share(
                delta("pool", "hits"), delta("pool", "hits") + delta("pool", "misses")
            ),
            "storage.disk_reads_per_op": share(delta("disk", "reads"), len(ops)),
            "storage.bulk_load_rows_s": share(setup["rows"], setup["load"]),
            "storage.bytes_per_user_byte": share(
                setup["stored_bytes"], setup["user_bytes"]
            ),
            "index.build_s": setup["index"],
            "catalog.analyze_s": setup["analyze"],
            "wal.fsyncs_per_commit": share(delta("wal", "fsyncs"), commits),
            "wal.checkpoint_ms": statistics.median(checkpoints) * 1000.0,
            # per 1000 rows, so that more rows written in the phases do
            # not read as a slower restart
            "wal.recovery_s_per_krow": server.ready_s / (rows / 1000.0),
            "wal.lock_wait_share": share(delta("waits", "lock.table", "seconds"), busy),
            "wal.fsync_wait_share": share(delta("waits", "wal.fsync", "seconds"), busy),
        }
    )
    bad = [op for c in [one, *many] for op in c.ops if not op[4]]
    prepared = all(c.prepared for c in [one, *many])
    failed = len(bad) + (not layers["ok"]) + (not prepared) + (not recovered)
    return {
        "metrics": metrics,
        "attempted": len(ops) + len(one.ops) + layers["replayed_ops"],
        "failed": failed,
        "samples": {
            "c1_statements": len(c1),
            "c1_ops": len(c1_ops),
            "c2_statements": len(c2),
            "replayed_statements": layers["replayed_statements"],
            "spans": layers["spans"],
            "checkpoints": len(checkpoints),
        },
        "recovery": {"seconds": server.ready_s, "rows": rows},
        "checks": {
            "replies": not bad, "prepared": prepared, "replay": layers["ok"],
            "recovered": recovered,
        },
        "trace_file": os.path.relpath(trace_out, ROOT),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One pass of one workload in a scratch directory of its own."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        run = run_layers if trace else run_end_to_end
        result = run(WORKLOADS[name], seed, seconds, smoke, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    result["correct"] = result["failed"] == 0
    return result


def report(name: str, result: Dict[str, Any]) -> None:
    print(f"# {name}: " + " ".join(
        f"{k} {result[k]}"
        for k in ("samples", "speed", "recovery", "checks")
        if k in result
    ))
    wall = result.get("wall_clock", {})
    for metric, m in result["metrics"].items():
        beside = f"   (wall clock {wall[metric]:.4f})" if metric in wall else ""
        print(f"{name:<11} {metric:<32} {m['value']:>14.4f} {m['unit']}{beside}")


# -- the full form -------------------------------------------------------------------


def fsync_p50_us(directory: str, pairs: int = 200) -> float:
    """Raw append+fsync on the benchmark's own directory: what one WAL
    flush costs on this machine before the engine adds anything."""
    path = os.path.join(directory, "fsync-probe")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        times = []
        for _ in range(pairs):
            start = time.perf_counter()
            os.write(fd, b"x" * 128)
            os.fsync(fd)
            times.append(time.perf_counter() - start)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(times) * 1e6


def environment(args, seconds: float) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "window_s": seconds,
        "warmup_s": seconds * WARMUP_SHARE,
        "slice_s": SLICE_S,
        "reference_spin_s": REFERENCE_SPIN_S,
        "spin_s": REFERENCE_SPIN_S / settled_speed([spin() for _ in range(SERVER_SPINS)]),
        "clients": CALLERS,
        "fsync_p50_us": fsync_p50_us(OUT_DIR),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="2 s windows, tiny data sets")
    ap.add_argument("--out", help="full form: write every workload's result here")
    ap.add_argument("--repeat", type=int, default=1, help="full form: runs, seed+i each")
    args = ap.parse_args()
    seconds = args.seconds or (2.0 if args.smoke else float(SPEC["run_seconds"]))

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        report(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1
    if not args.out:
        ap.error("give --workload (one pass) or --out (every workload, both passes)")

    doc = {"env": environment(args, seconds), "runs": []}
    correct = True
    for i in range(args.repeat):
        run: Dict[str, Any] = {"seed": args.seed + i, "workloads": {}}
        for name in WORKLOADS:
            passes = {}
            for key, trace in (("end_to_end", False), ("per_layer", True)):
                passes[key] = run_workload(name, args.seed + i, seconds, trace, args.smoke)
                report(name, passes[key])
                correct &= passes[key]["correct"]
            attempted = passes["end_to_end"]["attempted"]
            passes["failed_ops_share"] = passes["end_to_end"]["failed"] / attempted
            run["workloads"][name] = passes
        doc["runs"].append(run)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print(f"wrote {args.out}; every check passed: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
