#!/usr/bin/env python3
"""Black-box benchmark of the focus_served deviation-monitoring daemon.

Run it from the repository root:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first run builds focus_served and perfbench_replay (replay.cc) into
.bench_build/ with CMake, as a Release build. A run generates every Quest
input from --seed before timing starts. It starts focus_served as a child
process (--port 0 --port-file, a generated --reference, monitor flags left
at their defaults) and drives it only through its command line, its HTTP
API, its --events log and /metrics. It checks the answers, prints a
report, and prints one JSON object as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A --trace 1 run drives the same workload, then replays its inputs in
process through perfbench_replay, which records a span around every
library call. METRICS.md defines each metric and names the end-to-end
metric it should move.

Exit code: 0 when every check passed; 1 when a check failed (the JSON line
then reads "correct": false); 2 when the benchmark could not run at all
(no JSON line).
"""

import argparse
import asyncio
import collections
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

# Sizing. The reference and every snapshot have the same size: calibration
# resamples at the reference's size, so smaller snapshots would pass the
# delta* screen from sampling noise alone.
SIZES = {
    "transactions": 2000,
    "quest": (2000, 10, 2000),  # items, mean transaction length, patterns
    "pool_factor": 8,  # a stream's pool holds this many snapshots' worth
    "setups": 9,  # daemon start-ups per run; setup_s is their median
    "pool_snapshots": 4,  # query mixes: cache-resident snapshots per stream
}
SELF_CHECK_SIZES = dict(SIZES, setups=1)
PROCESS = 7  # Quest pattern seed of the reference's process
DRIFT_PROCESS = 99  # pattern seed of the drifted process
TIMEOUT_S = 60.0  # one request, or one snapshot's processing
SUBWINDOWS = 10  # the window's slices that throughput takes the median of
FUNCTIONS = [("abs", "sum"), ("abs", "max"), ("scaled", "sum"),
             ("scaled", "max")]
# Query mixes: the weight of each request kind on every connection. The
# repo holds no record of real dashboard traffic, so every read route gets
# the same share (19.6%), and each net.route.* p50 rests on about as many
# samples as the others. Ingests are 2% of requests, so writes run beside
# the reads.
READ_MIX = [("deviation", 49), ("compare", 49), ("summary", 49),
            ("healthz", 49), ("metrics", 49), ("ingest", 5)]
READ_ROUTES = ["deviation", "compare", "summary", "healthz", "metrics"]
CONNECTIONS = min(4, os.cpu_count() or 1)
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")

Workload = collections.namedtuple("Workload",
                                  "streams shards drift_every reads")
WORKLOADS = {
    "stationary_ingest": Workload(4, 0, 0, False),
    "drift_alert": Workload(4, 0, 4, False),
    "query_mix": Workload(8, 0, 0, True),
    "query_mix_sharded": Workload(8, 2, 0, True),
}

# The JSON result's metrics, with their units; BENCHMARK.json lists the
# same names.
END_TO_END = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
              "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "net.post_202_ms_p50": "ms",
    **{f"net.route.{route}_ms_p50": "ms" for route in READ_ROUTES},
    "net.http_parse_ms": "ms",
    "io.load_txns_ms": "ms",
    "serve.content_hash_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.inspect_ms_p50": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.add_stream_ms": "ms",
    "data.index_build_ms": "ms",
    "data.resample_ms": "ms",
    "itemsets.mine_indexed_ms": "ms",
    "itemsets.mine_horizontal_ms": "ms",
    "itemsets.mine_horizontal_calls_per_alert": "count",
    "itemsets.frequent_itemsets": "count",
    "core.upper_bound_ms": "ms",
    "core.screened_fraction": "ratio",
    "core.deviation_indexed_ms": "ms",
    "core.significance_s": "s",
    "core.alerts": "count",
    "core.change_points": "count",
    "shard.wire_roundtrip_us": "us",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run (build, start-up or I/O failure)."""


def quantile(values, q):
    """Nearest-rank q-quantile and the number of samples above it."""
    ordered = sorted(values)
    if not ordered:
        return None, 0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank], len(ordered) - 1 - rank


def median(values):
    return statistics.median(values) if values else math.nan


# ------------------------------------------------------------------ build

def build():
    """Builds the daemon and the replay; returns their paths."""
    def run(cmd):
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))

    if not (ROOT / "CMakeLists.txt").exists():
        raise BenchError(f"no CMakeLists.txt in {ROOT}: nothing to build")
    if not (BUILD / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(BUILD), "--target", "focus_served",
         "perfbench_replay", "-j", str(os.cpu_count() or 1)])
    found = []
    for name in ("focus_served", "perfbench_replay"):
        paths = [path for path in sorted(BUILD.rglob(name))
                 if path.is_file() and os.access(path, os.X_OK)]
        if not paths:
            raise BenchError(f"built {name} not found under {BUILD}")
        found.append(paths[0])
    return found


def stamp():
    """What the numbers were measured on and with."""
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.partition("=")[2]
    compiler = {}
    for path in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        for line in path.read_text().splitlines():
            for key in ("ID", "VERSION"):
                prefix = f"set(CMAKE_CXX_COMPILER_{key} "
                if line.startswith(prefix):
                    compiler[key] = line[len(prefix):-1].strip('"')
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"host_cpus": os.cpu_count(), "build_type": build_type,
            "optimized": build_type in OPTIMIZED,
            "compiler": f"{compiler.get('ID', '?')} "
                        f"{compiler.get('VERSION', '?')}",
            "git_commit": commit}


def run_replay(replay, run_dir, jobs, tag):
    """Runs perfbench_replay on `jobs`; returns its result lines."""
    (run_dir / f"{tag}.jobs").write_text("\n".join(jobs) + "\n")
    done = subprocess.run([str(replay), f"{tag}.jobs", f"{tag}.spans"],
                          cwd=run_dir, capture_output=True, text=True)
    if done.returncode:
        raise BenchError(f"perfbench_replay {tag} failed: {done.stderr}")
    return done.stdout.splitlines()


# ----------------------------------------------------------------- inputs

class Pool:
    """One generated Quest file; snapshots are windows of its lines."""

    def __init__(self, path):
        data = path.read_bytes()
        first = data.index(b"\n")
        second = data.index(b"\n", first + 1)
        self.num_items = int(data[first + 1:second].split()[0])
        self.text = data[second + 1:]
        lengths = (len(line) + 1 for line in self.text.split(b"\n")[:-1])
        self.starts = [0] + list(itertools.accumulate(lengths))
        self.size = len(self.starts) - 1

    def body(self, offset, n):
        """The n transactions from `offset` on, wrapping around; replay.cc
        builds the identical bytes."""
        head = b"focus-txns-v1\n%d %d\n" % (self.num_items, n)
        end = offset + n
        if end <= self.size:
            return head + self.text[self.starts[offset]:self.starts[end]]
        return (head + self.text[self.starts[offset]:] +
                self.text[:self.starts[end - self.size]])


Snapshot = collections.namedtuple("Snapshot", "pool offset drifted")


class Inputs:
    """Every Quest draw of one run, generated from the seed before timing.

    Stream s posts windows of its own pool at seed-chosen distinct offsets,
    so every body is a distinct snapshot (a cache miss) drawn from the
    reference's process. On drift_alert one in drift_every snapshots of
    each stream is a window of a pool drawn from another process instead.
    """

    def __init__(self, run_dir, replay, workload, seed, sizes):
        self.n = sizes["transactions"]
        self.workload = workload
        pool_size = self.n * sizes["pool_factor"]
        quest = " ".join(str(v) for v in sizes["quest"])
        base = seed * 100
        # The operator's baseline is the same in every run; --seed draws
        # the snapshots.
        files = {"reference": (self.n, 1, PROCESS)}
        for s in range(workload.streams):
            files[f"pool{s}"] = (pool_size, base + 10 + s, PROCESS)
        if workload.drift_every:
            files["drift"] = (pool_size, base + 2, DRIFT_PROCESS)
        run_replay(replay, run_dir,
                   [f"gen {name}.txns {n} {qseed} {process} {quest}"
                    for name, (n, qseed, process) in files.items()], "gen")
        self.pools = {name: Pool(run_dir / f"{name}.txns")
                      for name in files if name != "reference"}
        rng = random.Random(seed)
        self.order = [rng.sample(range(pool_size), pool_size)
                      for _ in range(workload.streams)]
        self.drift_order = rng.sample(range(pool_size), pool_size)

    def snapshot(self, stream, k):
        """The k-th snapshot stream `stream` posts. Streams drift at
        staggered positions, so their stage-2 runs do not start in step;
        the first snapshot, which registers the stream, never drifts."""
        w = self.workload
        if (w.drift_every and k > 0 and
                (k + stream) % w.drift_every == w.drift_every - 1):
            i = (k // w.drift_every) * w.streams + stream
            if i >= len(self.drift_order):
                raise BenchError("drift pool exhausted")
            return Snapshot("drift", self.drift_order[i], True)
        if k >= len(self.order[stream]):
            raise BenchError(f"pool of stream {stream} exhausted")
        return Snapshot(f"pool{stream}", self.order[stream][k], False)

    def body(self, snap):
        return self.pools[snap.pool].body(snap.offset, self.n)


# ------------------------------------------------------------ the daemon

def stream_name(s):
    return f"s{s}"


class Daemon:
    """focus_served as a child process in its own process group."""

    def __init__(self, binary, run_dir, workload, tag):
        self.port_file = run_dir / f"port-{tag}.txt"
        self.events_path = None
        args = [str(binary), "--reference", "reference.txns", "--port", "0",
                "--port-file", self.port_file.name]
        if workload.shards:
            # One reactor: with two, SO_REUSEPORT spreads the 4 client
            # connections unevenly (all 4 on one reactor in 1 run of 8),
            # which made throughput vary 2.6x between runs. One reactor
            # also leaves the shard layer as the only difference from
            # query_mix. A relative --shard-dir keeps socket paths short.
            args += ["--shards", str(workload.shards), "--reactors", "1",
                     "--shard-dir", f"shards-{tag}"]
        else:
            self.events_path = run_dir / f"events-{tag}.jsonl"
            args += ["--events", self.events_path.name]
        self.log = open(run_dir / f"daemon-{tag}.log", "wb")
        self.proc = subprocess.Popen(args, cwd=run_dir,
                                     stdin=subprocess.DEVNULL,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.port = None

    async def wait_port(self):
        deadline = time.perf_counter() + TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"focus_served exited with {self.proc.returncode}")
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return
            await asyncio.sleep(0.002)
        raise BenchError("focus_served wrote no port file")

    def tree_pids(self):
        children = collections.defaultdict(list)
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as stat:
                        ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
                children[ppid].append(int(entry))
        pids = [self.proc.pid]
        for pid in pids:
            pids.extend(children[pid])
        return pids

    def peak_rss_mib(self):
        """VmHWM summed over the daemon and every forked shard worker."""
        total_kib = 0
        for pid in self.tree_pids():
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def stop(self):
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
        if code is None:
            self.proc.wait()
        self.log.close()
        return code


class Http:
    """One keep-alive HTTP/1.1 connection with Content-Length framing."""

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None

    def close(self):
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def call(self, method, target, body=b""):
        """(status, body), or (None, reason) on a timeout or a reset."""
        try:
            async with asyncio.timeout(TIMEOUT_S):
                if self.writer is None:
                    self.reader, self.writer = await asyncio.open_connection(
                        "127.0.0.1", self.port)
                return await self._exchange(method, target, body)
        except (TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, OSError, ValueError,
                IndexError) as error:
            self.close()
            return None, type(error).__name__.encode()

    async def _exchange(self, method, target, body):
        # replay.cc parses requests laid out exactly like these.
        self.writer.write(b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          b"Content-Length: %d\r\n\r\n" %
                          (method.encode(), target.encode(), len(body)))
        if body:
            self.writer.write(body)
        await self.writer.drain()
        lines = (await self.reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        data = await self.reader.readexactly(length)
        if close:
            self.close()
        return status, data


class EventLog:
    """Tails the daemon's --events JSONL; stamps each line when read. The
    log is read only while someone waits for an event, so the tail costs
    the client nothing while the query mixes' dashboards run."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_RDONLY)
        self.buffer = b""
        self.seen = {}  # (stream, seq) -> (time read, event)

    def poll(self):
        while True:
            data = os.read(self.fd, 1 << 20)
            if not data:
                break
            self.buffer += data
        lines = self.buffer.split(b"\n")
        self.buffer = lines.pop()
        now = time.perf_counter()
        for line in lines:
            event = json.loads(line)
            self.seen[(event["stream"], event["seq"])] = (now, event)

    async def wait(self, key):
        deadline = time.perf_counter() + TIMEOUT_S
        self.poll()
        while key not in self.seen:
            if time.perf_counter() >= deadline:
                raise asyncio.TimeoutError()
            await asyncio.sleep(0.0005)
            self.poll()
        return self.seen[key]

    def close(self):
        os.close(self.fd)


# ---------------------------------------------------------------- the run

class Run:
    """One run of one workload: drive, check, measure."""

    def __init__(self, name, seed, seconds, trace, sizes, binaries):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.served, self.replay = binaries
        self.run_dir = BUILD / "runs" / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.failures = []  # failed checks
        self.attempted = 0
        self.failed = 0
        self.statuses = collections.Counter()
        self.samples = collections.defaultdict(list)
        self.timing = False  # inside the timed window

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok

    def failure(self, what, *latency_keys):
        """A failed operation: counted, checked, and infinitely slow in
        every percentile it would have entered."""
        self.failed += 1
        for key in latency_keys:
            self.sample(key, math.inf)
        self.check(False, what)

    def sample(self, key, seconds):
        if self.timing:
            self.samples[key].append(seconds)

    async def call(self, conn, method, target, body=b""):
        self.attempted += 1
        status, reply = await conn.call(method, target, body)
        self.statuses[status] += 1
        return status, reply

    # ---------------------------------------------------- one daemon

    def start(self, tag):
        self.daemon = Daemon(self.served, self.run_dir, self.w, tag)
        self.k = [0] * self.w.streams  # next snapshot index per stream
        self.posted = {}  # (stream, seq) -> Snapshot
        self.accepted_at = {}  # (stream, seq) -> time of the 202
        self.hashes = {}  # content hash -> (stream, seq)
        self.events = None

    async def connect(self):
        await self.daemon.wait_port()
        if self.daemon.events_path is not None:
            self.events = EventLog(self.daemon.events_path)
        return [Http(self.daemon.port) for _ in range(CONNECTIONS)]

    async def stop(self, conns):
        for conn in conns:
            conn.close()
        if self.events is not None:
            self.events.close()
        code = self.daemon.stop()
        self.check(code == 0, f"focus_served exited with {code}")

    async def ingest(self, conn, s, keys=()):
        """Posts stream s's next snapshot; returns (seq, sent, accepted)
        or None."""
        snap = self.inputs.snapshot(s, self.k[s])
        self.k[s] += 1
        name = stream_name(s)
        sent = time.perf_counter()
        status, reply = await self.call(
            conn, "POST", f"/v1/streams/{name}/snapshots",
            self.inputs.body(snap))
        accepted = time.perf_counter()
        if status != 202:
            self.failure(f"ingest {name}: {status} {reply[:80]!r}",
                         "post_202", *keys)
            return None
        answer = json.loads(reply)
        key = (name, answer["sequence"])
        self.check(key not in self.posted, f"{key} assigned twice")
        self.posted[key] = snap
        self.accepted_at[key] = accepted
        self.hashes[answer["content_hash"]] = key
        self.sample("post_202", accepted - sent)
        return answer["sequence"], sent, accepted

    async def processed(self, conn, name, seq):
        """Waits until the daemon has processed (name, seq); returns when
        that was seen and its event (None in sharded mode, which keeps no
        event log: there the stream's status is polled instead)."""
        if self.events is not None:
            return await self.events.wait((name, seq))
        deadline = time.perf_counter() + TIMEOUT_S
        while time.perf_counter() < deadline:
            status, reply = await conn.call(
                "GET", f"/v1/streams/{name}/deviation")
            if status == 200:
                state = json.loads(reply)
                if state.get("has_snapshot") and state["seq"] >= seq:
                    return time.perf_counter(), None
            await asyncio.sleep(0.001)
        raise asyncio.TimeoutError()

    async def ingest_all(self, conns, count):
        """Each stream's snapshots up to `count`, each waited for."""
        async def post(conn, streams):
            for s in streams:
                while self.k[s] < count:
                    posted = await self.ingest(conn, s)
                    if posted is None:
                        raise BenchError(f"set-up ingest on s{s} failed")
                    seen, _ = await self.processed(conn, stream_name(s),
                                                   posted[0])
                    self.samples["visible"].append(seen - posted[2])

        await asyncio.gather(*(
            post(conn, range(i, self.w.streams, len(conns)))
            for i, conn in enumerate(conns)))

    # ----------------------------------------------------- workloads

    async def producer(self, conn, streams, end):
        """A closed loop over its streams (one each when there are enough
        CPUs): post, wait for the snapshot's event, repeat."""
        for s in itertools.cycle(streams):
            if time.perf_counter() >= end:
                return
            name = stream_name(s)
            drifted = self.inputs.snapshot(s, self.k[s]).drifted
            keys = ("ingest_to_event",) + (("alert",) if drifted else ())
            posted = await self.ingest(conn, s, keys)
            if posted is None:
                await asyncio.sleep(0.01)
                continue
            seq, sent, _ = posted
            try:
                seen, _ = await self.processed(conn, name, seq)
            except asyncio.TimeoutError:
                self.failure(f"no event for {name}#{seq}", *keys)
                continue
            self.completions.append(seen)
            self.sample("ingest_to_event", seen - sent)
            if drifted:
                self.sample("alert", seen - sent)

    async def dashboard(self, conn, c, end):
        """One dashboard client's closed loop over the read routes."""
        rng = random.Random(self.seed * 7919 + c)
        kinds = [kind for kind, weight in READ_MIX for _ in range(weight)]
        pool_hashes = sorted(self.pool_hashes)
        while time.perf_counter() < end:
            kind = rng.choice(kinds)
            f, g = rng.choice(FUNCTIONS)
            if kind == "ingest":
                if await self.ingest(conn, rng.randrange(self.w.streams)):
                    self.completions.append(time.perf_counter())
                continue
            sent = time.perf_counter()
            if kind == "deviation":
                name = stream_name(rng.randrange(self.w.streams))
                status, reply = await self.call(
                    conn, "GET", f"/v1/streams/{name}/deviation?f={f}&g={g}")
            elif kind == "compare":
                left, right = rng.sample(pool_hashes, 2)
                status, reply = await self.call(
                    conn, "POST",
                    f"/v1/compare?left={left}&right={right}&f={f}&g={g}")
            elif kind == "summary":
                status, reply = await self.call(
                    conn, "GET", f"/v1/deviation/summary?f={f}&g={g}")
            elif kind == "healthz":
                status, reply = await self.call(conn, "GET", "/healthz")
            else:
                status, reply = await self.call(conn, "GET", "/metrics")
            done = time.perf_counter()
            if status != 200:
                self.failure(f"{kind}: {status} {reply[:80]!r}", "read",
                             "route." + kind)
                continue
            self.completions.append(done)
            self.sample("read", done - sent)
            self.sample("route." + kind, done - sent)
            # Replies are decoded after the window, off the client's clock.
            if kind == "deviation":
                self.deviations.append((name, f, g, reply))
            elif kind == "compare":
                self.compares.append((left, right, f, g, reply))

    async def scrape(self, conn):
        status, reply = await self.call(conn, "GET", "/metrics?format=json")
        return json.loads(reply)["counters"] if status == 200 else {}

    async def probe_routes(self, conn):
        """Route latency on the idle daemon, for the routes the workload
        itself did not exercise."""
        left, right = list(self.hashes)[-2:]  # the newest: still cached
        targets = {
            "deviation": ("GET", "/v1/streams/s0/deviation"),
            "compare": ("POST", f"/v1/compare?left={left}&right={right}"),
            "summary": ("GET", "/v1/deviation/summary"),
            "healthz": ("GET", "/healthz"),
            "metrics": ("GET", "/metrics"),
        }
        for route, (method, target) in targets.items():
            if len(self.samples["route." + route]) >= 10:
                continue
            for _ in range(20):
                sent = time.perf_counter()
                status, _ = await self.call(conn, method, target)
                if self.check(status == 200, f"probe {route}: {status}"):
                    self.samples["route." + route].append(
                        time.perf_counter() - sent)

    async def drive(self):
        """Every start-up, then the timed window on the last daemon."""
        setups = []
        for i in range(self.sizes["setups"]):
            self.start(i)
            began = time.perf_counter()
            conns = []
            try:
                conns = await self.connect()
                # One stream at a time: concurrent registrations contend
                # for the pool in a varying order, which made single
                # start-ups bimodal.
                await self.ingest_all(conns[:1], 1)
                setups.append(time.perf_counter() - began)
                if i + 1 < self.sizes["setups"]:
                    await self.stop(conns)
            except BaseException:
                await self.stop(conns)
                raise
        try:
            await self.measure(conns)
        finally:
            await self.stop(conns)
        self.setup_s = statistics.median(setups)

    async def measure(self, conns):
        self.completions = []
        self.deviations = []
        self.compares = []
        if self.w.reads:
            # The cache-resident pool that compares and deviation polls
            # read: 8 streams x 4 snapshots fit the daemon's 64-entry cache.
            await self.ingest_all(conns, self.sizes["pool_snapshots"])
            self.pool_hashes = list(self.hashes)
        before = await self.scrape(conns[0])
        self.window_start = time.perf_counter()
        cpu_start = time.process_time()
        end = self.window_start + self.seconds
        self.timing = True
        if self.w.reads:
            await asyncio.gather(*(self.dashboard(conn, c, end)
                                   for c, conn in enumerate(conns)))
        else:
            await asyncio.gather(*(
                self.producer(conn, range(i, self.w.streams, len(conns)), end)
                for i, conn in enumerate(conns)))
        self.timing = False
        self.window_end = end
        # The client's own CPU use: near 1, its single thread would be the
        # bottleneck rather than the daemon.
        self.client_cpu_share = ((time.process_time() - cpu_start) /
                                 (time.perf_counter() - self.window_start))
        states = [(name, f, g, json.loads(reply))
                  for name, f, g, reply in self.deviations]
        self.deviations = [(name, state["seq"], f, g, state)
                           for name, f, g, state in states]
        self.compares = [(left, right, f, g, json.loads(reply)["deviation"])
                         for left, right, f, g, reply in self.compares]
        self.window_keys = {key for key, t in self.accepted_at.items()
                            if self.window_start <= t <= end}
        # Every accepted snapshot must be processed before the checks, and
        # the memory peak should include it.
        for name, seq in sorted(self.posted):
            try:
                await self.processed(conns[0], name, seq)
            except asyncio.TimeoutError:
                self.check(False, f"{name}#{seq} was never processed")
        after = await self.scrape(conns[0])
        self.counters = {key: after.get(key, 0) - before.get(key, 0)
                         for key in ("cache_hits", "cache_misses")}
        if self.trace:
            await self.probe_routes(conns[0])
        self.peak_rss_mib = self.daemon.peak_rss_mib()
        if self.events is not None:
            self.events.poll()

    # ------------------------------------------------------- checks

    def check_events(self):
        """Dense sequences; one event per accepted snapshot; the screen and
        the alert fire exactly on the drifted snapshots."""
        by_stream = collections.defaultdict(list)
        for name, seq in self.posted:
            by_stream[name].append(seq)
        for name, seqs in by_stream.items():
            self.check(sorted(seqs) == list(range(len(seqs))),
                       f"{name}: sequences are not dense")
        if self.events is None:
            for *_, state in self.deviations:
                self.check(state["screened_out"] and not state["alert"],
                           f"{state['stream']}#{state['seq']} not screened")
            return
        self.check(set(self.events.seen) == set(self.posted),
                   "events do not match the accepted snapshots one to one")
        for key, (_, event) in sorted(self.events.seen.items()):
            drifted = key in self.posted and self.posted[key].drifted
            self.check(event["screened_out"] != drifted,
                       f"{key}: screened_out={event['screened_out']}, "
                       f"drifted={drifted}")
            self.check(event["alert"] == drifted,
                       f"{key}: alert={event['alert']}, drifted={drifted}")

    def replay_jobs(self):
        """The inputs the replay recomputes, as perfbench_replay jobs."""
        jobs = ["reference reference.txns"]
        jobs += [f"pool {name} {name}.txns" for name in self.inputs.pools]
        self.chosen = {}
        per_stream = self.sizes["pool_snapshots"] if self.w.reads else 3
        drifted_left = 10
        for key, snap in sorted(self.posted.items()):
            if key[1] < per_stream or (snap.drifted and drifted_left > 0):
                drifted_left -= snap.drifted
                self.chosen[key] = snap
        for (name, seq), snap in self.chosen.items():
            stage2 = int(bool(self.trace and snap.drifted))
            jobs.append(f"snapshot {name}:{seq} {snap.pool} {snap.offset} "
                        f"{self.inputs.n} {name} {stage2}")
        done = set()
        for name, seq, f, g, _ in self.deviations:
            if (name, seq) in self.chosen and (name, seq, f, g) not in done:
                done.add((name, seq, f, g))
                jobs.append(f"deviation {name}:{seq} {f} {g}")
        for left, right, f, g, _ in self.compares:
            if (left, right, f, g) not in done:
                done.add((left, right, f, g))
                (a, i), (b, j) = self.hashes[left], self.hashes[right]
                jobs.append(f"compare {a}:{i} {b}:{j} {f} {g}")
        if self.trace:
            jobs += self.trace_jobs()
        return jobs

    def trace_jobs(self):
        """Replay work that only the traced run times."""
        ids = [f"{name}:{seq}" for name, seq in self.chosen]
        jobs = []
        if not self.w.drift_every:
            # No stage 2 on this workload's path: time one as a probe.
            jobs.append(f"qualify {ids[0]}")
        if not self.w.reads:
            # Probes of the read routes' library calls.
            jobs += [f"deviation {i} abs sum" for i in ids[:8]]
            jobs += [f"compare {a} {b} abs sum"
                     for a, b in zip(ids[:8], ids[1:9])]
            return jobs
        latest = [f"{stream_name(s)}:{self.sizes['pool_snapshots'] - 1}"
                  for s in range(self.w.streams)]
        rng = random.Random(self.seed)
        for _ in range(200):
            f, g = rng.choice(FUNCTIONS)
            kind = rng.choice(["deviation", "compare", "summary"])
            if kind == "deviation":
                jobs.append(f"deviation {rng.choice(latest)} {f} {g}")
            elif kind == "compare":
                a, b = rng.sample(ids, 2)
                jobs.append(f"compare {a} {b} {f} {g}")
            else:
                jobs.append(f"summary {f} {g} " + " ".join(latest))
        return jobs

    def check_replay(self, lines):
        """The daemon's numbers must equal the library's, bit for bit."""
        results = {}
        for line in lines:
            fields = line.split()
            if fields[0] == "snapshot":
                results[fields[1]] = dict(f.split("=", 1)
                                          for f in fields[2:])
            elif fields[0] in ("deviation", "compare"):
                results[tuple(fields[:-1])] = float(fields[-1])
        self.replayed = results
        for name, seq in self.chosen:
            mine = results[f"{name}:{seq}"]
            self.check(self.hashes.get(mine["hash"]) == (name, seq),
                       f"{name}#{seq}: the replayed body hashes differently")
            if self.events is None:
                continue
            event = self.events.seen[(name, seq)][1]
            self.check(event["delta_star"] == float(mine["delta_star"]),
                       f"{name}#{seq}: delta* {event['delta_star']!r} != "
                       f"{mine['delta_star']}")
            self.check(event["screened_out"] == (mine["screened"] == "1"),
                       f"{name}#{seq}: the screen differs from the replay")
            if not event["screened_out"]:
                self.check(event["delta"] == float(mine["deviation"]),
                           f"{name}#{seq}: deviation {event['delta']!r} != "
                           f"{mine['deviation']}")
                if mine["sig"] != "-":
                    self.check(event["sig_pct"] == float(mine["sig"]),
                               f"{name}#{seq}: sig_pct {event['sig_pct']!r}"
                               f" != {mine['sig']}")
        for name, seq, f, g, state in self.deviations:
            key = ("deviation", f"{name}:{seq}", f, g)
            if key in results:
                self.check(state["deviation"] == results[key],
                           f"{key}: {state['deviation']!r} != {results[key]}")
                mine = results[f"{name}:{seq}"]
                self.check(state["delta_star"] == float(mine["delta_star"]),
                           f"{name}#{seq}: status delta* differs")
        for left, right, f, g, value in self.compares:
            (a, i), (b, j) = self.hashes[left], self.hashes[right]
            key = ("compare", f"{a}:{i}", f"{b}:{j}", f, g)
            self.check(value == results[key],
                       f"{key}: {value!r} != {results[key]}")

    # ------------------------------------------------------ metrics

    def end_to_end(self, report):
        # The median rate over sub-windows: a slow spell on a shared host
        # moves it less than the mean over the whole window does.
        step = (self.window_end - self.window_start) / SUBWINDOWS
        counts = [0] * SUBWINDOWS
        for t in self.completions:
            i = math.floor((t - self.window_start) / step)
            if 0 <= i < SUBWINDOWS:
                counts[i] += 1
        throughput = statistics.median(counts) / step
        done = sum(counts)
        note = f"median of {SUBWINDOWS} sub-windows"
        if self.w.reads:
            key = "read"
            report.metric("requests_per_s", throughput, "1/s", done, note)
            report.latency("read_latency_ms", self.samples[key], (0.5, 0.99))
        else:
            key = "ingest_to_event"
            report.metric("snapshots_per_s", throughput, "1/s", done, note)
            report.latency("ingest_to_event_ms", self.samples[key],
                           (0.5, 0.95))
            if self.w.drift_every:
                key = "alert"
                report.latency("alert_latency_s", self.samples[key], (0.5,),
                               unit="s")
        p50, _ = quantile(self.samples[key], 0.5)
        report.metric("error_rate", self.failed / max(self.attempted, 1),
                      "fraction", self.attempted)
        report.metric("setup_s", self.setup_s, "s", self.sizes["setups"])
        report.metric("peak_rss_mib", self.peak_rss_mib, "MiB")
        report.metric("client_cpu_share", self.client_cpu_share, "fraction",
                      note="client CPU seconds / window")
        return {"throughput_per_s": throughput,
                "latency_p50_ms": math.nan if p50 is None else p50 * 1e3,
                "setup_s": self.setup_s, "peak_rss_mib": self.peak_rss_mib}

    def observed(self):
        """Per-layer numbers the daemon shows from outside (source E)."""
        def p50(key):
            value, _ = quantile(self.samples[key], 0.5)
            return (math.nan if value is None else value * 1e3,
                    len(self.samples[key]), "")

        out = {"net.post_202_ms_p50": p50("post_202")}
        for route in READ_ROUTES:
            out[f"net.route.{route}_ms_p50"] = p50("route." + route)
        out["serve.shed"] = (self.statuses[429], None, "429 replies")
        if self.events is not None:
            def waited(keys):
                return [(self.events.seen[key][0] - self.accepted_at[key],
                         self.events.seen[key][1])
                        for key in sorted(keys) if key in self.events.seen]

            events = waited(self.window_keys)
            inspect = [event["latency_ms"] for _, event in events]
            wait_note = ""
            if self.w.reads:
                # Nothing waits for the window's ingests, so the log is
                # read only after the window. The set-up ingests of the
                # measured daemon were each waited for.
                wait_note = "set-up ingests"
                timed = waited(set(self.accepted_at) - self.window_keys)
            else:
                timed = events
            waits = [wait * 1e3 - event["latency_ms"]
                     for wait, event in timed]
            hits = self.counters["cache_hits"]
            lookups = hits + self.counters["cache_misses"]
            screened = sum(event["screened_out"] for _, event in events)
            out.update({
                "serve.queue_wait_ms_p50": (median(waits), len(waits),
                                            wait_note),
                "serve.inspect_ms_p50": (median(inspect), len(inspect), ""),
                "serve.cache_hit_ratio": (hits / lookups if lookups else 0.0,
                                          lookups, "/metrics counters"),
                "core.screened_fraction": (
                    screened / len(events) if events else math.nan,
                    len(events), ""),
                "core.alerts": (sum(e["alert"] for _, e in events), None,
                                ""),
                "core.change_points": (
                    sum(e["change_point"] for _, e in events), None, ""),
            })
            return out
        # Sharded workers keep no event log and export no service metrics,
        # so these come from the API instead.
        states = {(s["stream"], s["seq"]): s for *_, s in self.deviations}
        compares = len(self.compares)
        ingests = len(self.window_keys)
        out.update({
            "serve.queue_wait_ms_p50": (
                median(self.samples["visible"]) * 1e3,
                len(self.samples["visible"]),
                "sharded: 202 -> sequence visible, set-up ingests"),
            "serve.cache_hit_ratio": (
                2 * compares / (2 * compares + ingests)
                if compares + ingests else 0.0, 2 * compares + ingests,
                "sharded: 2 hits per compare, 1 miss per ingest"),
            "core.screened_fraction": (
                sum(s["screened_out"] for s in states.values()) /
                max(len(states), 1), len(states),
                "sharded: snapshots seen by deviation polls"),
            "core.alerts": (sum(s["alert"] for s in states.values()), None,
                            "sharded: deviation polls"),
            "core.change_points": (
                sum(s["change_point"] for s in states.values()), None,
                "sharded: deviation polls"),
        })
        return out

    def traced(self, latency_ms):
        """Per-layer numbers from the replay's spans (source T)."""
        spans = {}
        for line in (self.run_dir / "replay.spans").read_text().splitlines():
            _, sid, parent, op, name, start, end = line.split()
            spans[int(sid)] = [int(parent), int(op), name,
                               int(end) - int(start), 0]
        for span in spans.values():
            if span[0] >= 0:
                spans[span[0]][4] += span[3]
        op_kind = {span[1]: span[2] for span in spans.values()
                   if span[0] < 0}
        ms = collections.defaultdict(list)  # name -> self ms per call
        ms_ingest = collections.defaultdict(list)  # within ingest ops
        per_op = collections.defaultdict(float)  # op -> layer self ms
        stage2_ops = set()
        on_path = self.path_layers()
        for parent, op, name, total, children in spans.values():
            self_ms = (total - children) / 1e6
            ms[name].append(self_ms)
            if op_kind[op] == "op.ingest":
                ms_ingest[name].append(self_ms)
            if name == "core.significance":
                ms["core.significance.total"].append(total / 1e6)
                stage2_ops.add(op)
            if name.split(".")[0] in on_path:
                per_op[op] += self_ms
        if self.w.reads:
            ops = [op for op, kind in op_kind.items()
                   if kind in ("op.deviation", "op.compare", "op.summary")]
        elif self.w.drift_every:
            ops = [op for op in stage2_ops if op_kind[op] == "op.ingest"]
        else:
            ops = [op for op, kind in op_kind.items() if kind == "op.ingest"]
        itemsets = [int(r["itemsets"]) for r in self.replayed.values()
                    if isinstance(r, dict)]
        significance = len(ms["core.significance"])
        out = {
            "net.http_parse_ms": ms_ingest["net.http_parse"],
            "io.load_txns_ms": ms_ingest["io.load_txns"],
            "serve.content_hash_ms": ms_ingest["serve.content_hash"],
            "serve.add_stream_ms": [span[3] / 1e6 for span in spans.values()
                                    if span[2] == "serve.add_stream"],
            "data.index_build_ms": ms_ingest["data.index_build"],
            "data.resample_ms": ms["data.resample"],
            "itemsets.mine_indexed_ms": ms_ingest["itemsets.mine_indexed"],
            "itemsets.mine_horizontal_ms": ms["itemsets.mine_horizontal"],
            "core.upper_bound_ms": ms_ingest["core.upper_bound"],
            "core.deviation_indexed_ms": ms["core.deviation_indexed"],
        }
        out = {name: (median(values), len(values), "")
               for name, values in out.items()}
        out["core.significance_s"] = (
            median(ms["core.significance.total"]) / 1e3, significance,
            "" if self.w.drift_every else "probe, not on this path")
        out["itemsets.mine_horizontal_calls_per_alert"] = (
            len(ms["itemsets.mine_horizontal"]) / max(significance, 1),
            significance, "")
        out["itemsets.frequent_itemsets"] = (median(itemsets), len(itemsets),
                                             "")
        wire = ms["shard.wire_roundtrip"]
        out["shard.wire_roundtrip_us"] = (
            median(wire) * 1e3, len(wire),
            "" if self.w.shards else "probe, not on this path")
        coverage = [per_op[op] for op in ops]
        out["trace.coverage"] = (
            median(coverage) / latency_ms, len(coverage),
            f"median layer self time per op / untraced p50 {latency_ms:.4g}"
            " ms")
        if self.w.shards:
            out["serve.inspect_ms_p50"] = (
                median([sum(x) for x in zip(
                    ms_ingest["serve.content_hash"],
                    ms_ingest["data.index_build"],
                    ms_ingest["itemsets.mine_indexed"],
                    ms_ingest["core.upper_bound"])]),
                len(ms_ingest["core.upper_bound"]),
                "sharded: no event log; replayed hash+index+mine+screen")
        return out

    def path_layers(self):
        """Layers whose replayed calls lie on this workload's served path."""
        layers = {"net", "io", "serve", "data", "itemsets", "core", "stats"}
        return layers | {"shard"} if self.w.shards else layers


class Report:
    """The readable lines printed before the JSON result."""

    @staticmethod
    def metric(name, value, unit, samples=None, note=""):
        text = f"  {name:42s} {value:14.6g} {unit}"
        if samples is not None:
            text += f"  (n={samples})"
        if note:
            text += f"  [{note}]"
        print(text)

    def latency(self, name, samples, quantiles, unit="ms"):
        """Prints each percentile the samples support."""
        scale = 1e3 if unit == "ms" else 1.0
        for q in quantiles:
            value, beyond = quantile(samples, q)
            label = f"{name}_p{round(q * 100)}"
            if value is None or beyond < 10:
                print(f"  {label:42s} {'n/a':>14s} {unit}  "
                      f"(n={len(samples)}, {beyond} beyond it; 10 needed)")
                continue
            self.metric(label, value * scale, unit, len(samples))


def execute(name, seed, seconds, trace, sizes, binaries):
    """One run; returns the result object."""
    run = Run(name, seed, seconds, trace, sizes, binaries)
    report = Report()
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    build_stamp = stamp()
    print("stamp " + json.dumps(build_stamp, sort_keys=True))
    if not build_stamp["optimized"]:
        print("WARNING: not an optimized build; timings are not comparable")
    run.inputs = Inputs(run.run_dir, run.replay, run.w, seed, sizes)
    asyncio.run(run.drive())
    run.check_events()
    run.check_replay(run_replay(run.replay, run.run_dir, run.replay_jobs(),
                                "replay"))
    print("end to end:")
    e2e = run.end_to_end(report)
    if trace:
        print("per layer:")
        layers = dict(run.observed())
        layers.update(run.traced(e2e["latency_p50_ms"]))
        for metric in PER_LAYER:
            value, samples, note = layers[metric]
            report.metric(metric, value, PER_LAYER[metric], samples, note)
        values = {metric: layers[metric][0] for metric in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    for metric, value in values.items():
        run.check(math.isfinite(value), f"{metric} was not measured")
    for what in run.failures[:20]:
        print(f"CHECK FAILED: {what}")
    correct = not run.failures
    if correct:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    else:
        print(f"inputs and logs kept in {run.run_dir}")
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {metric: {"value": value if math.isfinite(value)
                                 else -1.0, "unit": units[metric]}
                        for metric, value in values.items()}}


def self_check(binaries):
    """Every workload, traced, at one second each: the harness's own test."""
    ok = True
    for name in WORKLOADS:
        result = execute(name, 1, 1.0, 1, SELF_CHECK_SIZES, binaries)
        ok &= result["correct"]
        print(f"self-check {name}: {'ok' if result['correct'] else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    # The default is BENCHMARK.json's run_seconds, the validated window.
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly with every check")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload or --self-check is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # A SIGTERM unwinds through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binaries = build()
        if args.self_check:
            return self_check(binaries)
        result = execute(args.workload, args.seed, args.seconds, args.trace,
                         SIZES, binaries)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
