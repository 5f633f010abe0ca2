#!/usr/bin/env python3
"""End-to-end tixd benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload hot_mix --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a TIX source tree. The first run builds tixd and
the benchmark tool from source into .bench_build/ and prepares the
bench corpora there (cached); every run then spawns the real tixd on a
fresh copy of a prepared data directory and drives it over loopback
TCP. The last line of stdout is the result JSON; the lines before it
are a readable report and the run's provenance.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
DATA = os.path.join(WORK, "data")
RUNS = os.path.join(WORK, "runs")
BUILD_TYPE = "RelWithDebInfo"  # the top-level CMakeLists.txt default

# Bumped whenever prepare's outputs change meaning, so stale caches rebuild.
PREPARE_VERSION = 1

# Open-loop writer rate of live_ingest, frozen at about a sixth of the
# single-writer INGEST capacity measured on the 3000-article corpus when
# this benchmark was introduced (~50 docs/s on a 4-core x86 VM). At a
# quarter, 20-40% of the reader's queries overlapped an ingest, so the
# reader's p50 sat on the edge between stalled and free queries, and a
# host slowed by steal time moved it about twice as much as the host
# itself slowed. At a sixth about 13% of the queries overlap one.
INGEST_RATE = 8.0
SEAL_DOCS = 64  # SegmentedIndexOptions::seal_doc_count default
# live_ingest writes six seal cycles, 48 s at INGEST_RATE: with the adopted
# corpus index as the first segment, background compaction triggers after
# seals 3 and 6.
LIVE_DOCS = 6 * SEAL_DOCS
# The read workloads end with a closed-loop ingest tail of six seal
# cycles. Three cycles (about 3 s) let a single sub-second host stall move
# ingest_p90_ms by a third from run to run. As in live_ingest, the
# compaction after seal 3 overlaps the fourth cycle; the one after seal 6
# starts after the last acknowledgement.
TAIL_DOCS = 6 * SEAL_DOCS
SETUP_RESTARTS = 7
COMPACT_MIN_SEGMENTS = 4  # SegmentedIndexOptions::compact_min_segments default

CORPORA = {"a3000": 3000, "a12000": 12000}

# Each workload: corpus, query pool, tixd flags (only what it needs),
# closed-loop read connections, reads per measured second, and whether
# the writer runs concurrently with the reads (live) or after them.
WORKLOADS = {
    "hot_mix": dict(corpus="a3000", pool="hot", flags=[], clients=2,
                    reads_per_second=110, live=False),
    "cold_spill": dict(corpus="a12000", pool="cold",
                       flags=["--result-cache-mb=0"], clients=1,
                       reads_per_second=10, live=False),
    "live_ingest": dict(corpus="a3000", pool="hot",
                        flags=["--result-cache-mb=0"], clients=1,
                        reads_per_second=40, live=True),
}

class BenchError(Exception):
    pass


START = time.perf_counter()


def log(message):
    print("[perfbench %6.1fs] %s" % (time.perf_counter() - START, message),
          file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics

def nearest_rank(values, p):
    """Nearest-rank p-th percentile of `values` and the number of samples
    strictly beyond that rank."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ingest_timing(due_ns, send_ns, ack_ns):
    """Open-loop accounting for one INGEST: latency runs from the
    scheduled send time (so a stall also charges the requests queued
    behind it), lateness is how far the generator sent after schedule."""
    if send_ns < due_ns or ack_ns < send_ns:
        raise BenchError("ingest timestamps out of order")
    return (ack_ns - due_ns) / 1e6, (send_ns - due_ns) / 1e6


def schedule(count, rate, start_ns=0):
    """Due times (ns from phase start) of an open-loop writer."""
    period = 1e9 / rate
    return [start_ns + int(round(i * period)) for i in range(count)]


# ------------------------------------------------------------ op inputs

VOCAB = 20000  # workload::CorpusOptions::vocabulary_size


def word(rank):
    return "w%05d" % rank


def log_uniform(rng, lo, hi):
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def doc_topk(doc, term, k):
    return ('FOR $a IN document("article%d.xml")//* SCORE $a USING '
            'foo({"%s"}) THRESHOLD STOP AFTER %d RETURN $a' % (doc, term, k))


def corpus_topk(phrase, k):
    return ('FOR $a IN document("*")//* SCORE $a USING foo({"%s"}) '
            'THRESHOLD STOP AFTER %d RETURN $a' % (phrase, k))


def complex_query(doc, t1, t2, k):
    return ('FOR $a IN document("article%d.xml")//article//* SCORE $a USING '
            'complexfoo({"%s"}, {"%s"}) THRESHOLD STOP AFTER %d RETURN $a'
            % (doc, t1, t2, k))


def pick_query(doc, t1, t2, k):
    return ('FOR $a IN document("article%d.xml")//* SCORE $a USING '
            'foo({"%s"}, {"%s"}) PICK $a USING pickfoo(0.8, 0.5) '
            'THRESHOLD STOP AFTER %d RETURN $a' % (doc, t1, t2, k))


def make_pool(seed, articles, classes):
    """A fixed query pool of (class, text, cost proxy) entries: `classes`
    maps a class name to (count, maker), where maker(rng, articles)
    returns one query text and its expected posting volume. Duplicate
    texts are dropped."""
    rng = random.Random(seed)
    pool, seen = [], set()
    for name, (count, maker) in classes.items():
        for _ in range(count):
            text, proxy = maker(rng, articles)
            if text not in seen:
                seen.add(text)
                pool.append((name, text, proxy))
    return pool


# Corpus frequencies of the planted terms (bench/bench_corpus.cc at 3000
# articles; Table 5 phrase terms are scaled by 1/24 there).
PLANTED = {"xt%df%d" % (which, f): f for which in (1, 2)
           for f in (20, 100, 200, 300, 500, 1000, 2000, 3000, 5500, 7000,
                     10000)}
PLANTED.update({"xg%d" % i: 1500 for i in range(7)})
TABLE5 = [(121076, 44930), (121076, 79677), (107269, 146477),
          (107269, 79677), (98405, 146477), (121076, 146477), (90482, 68801),
          (121076, 45988), (121076, 107269), (98405, 28044), (146477, 68801),
          (121076, 68801), (98405, 107269)]


def background(rng, lo, hi):
    """A background word with rank log-uniform in [lo, hi] and its
    relative corpus frequency (Zipf with theta 1)."""
    rank = log_uniform(rng, lo, hi)
    return word(rank), 1.0 / (rank + 1)


def hot_pool():
    """The pool of hot_mix and the live_ingest reader: every class of the
    engine's read path, with documents and terms drawn from ranges so
    query cost is a continuum rather than a few steps. Corpus-wide and
    phrase queries use planted terms only, which the ingested documents
    never contain, so their answers stay fixed while live_ingest writes."""
    def doc(rng, n):
        term, freq = background(rng, 5, 400)
        return doc_topk(rng.randrange(n), term, rng.randint(3, 10)), freq

    def corpus(rng, n):
        term = rng.choice(sorted(PLANTED))
        return corpus_topk(term, rng.randint(5, 40)), PLANTED[term]

    def phrase(rng, n):
        q = rng.randint(1, 13)
        return (corpus_topk("xq{0}a xq{0}b".format(q), rng.randint(5, 40)),
                sum(TABLE5[q - 1]))

    def two_terms(make):
        def maker(rng, n):
            (t1, f1), (t2, f2) = background(rng, 100, 4000), background(
                rng, 100, 4000)
            return make(rng.randrange(n), t1, t2, rng.randint(3, 10)), f1 + f2
        return maker

    return make_pool(3000, 3000, {
        "doc_topk": (200, doc), "corpus_topk": (500, corpus),
        "phrase": (300, phrase), "complexfoo": (500, two_terms(complex_query)),
        "pick": (500, two_terms(pick_query)),
    })


def cold_pool():
    """cold_spill's pool: documents across the whole 12000-article corpus
    and background-vocabulary terms, so the working set exceeds both the
    buffer pool and the decoded-block cache."""
    def doc(rng, n):
        term, freq = background(rng, 5, 400)
        return doc_topk(rng.randrange(n), term, rng.randint(3, 10)), freq

    def corpus(rng, n):
        term, freq = background(rng, 30, 3000)
        return corpus_topk(term, rng.randint(5, 15)), freq

    def phrase(rng, n):
        (t1, f1), (t2, f2) = background(rng, 5, 300), background(rng, 5, 300)
        return corpus_topk("%s %s" % (t1, t2), rng.randint(5, 15)), f1 + f2

    def two_terms(make):
        def maker(rng, n):
            (t1, f1), (t2, f2) = background(rng, 30, 3000), background(
                rng, 30, 3000)
            return make(rng.randrange(n), t1, t2, rng.randint(3, 10)), f1 + f2
        return maker

    return make_pool(12000, 12000, {
        "doc_topk": (80, doc), "corpus_topk": (160, corpus),
        "phrase": (80, phrase), "complexfoo": (160, two_terms(complex_query)),
        "pick": (120, two_terms(pick_query)),
    })


POOLS = {"hot": (hot_pool, "a3000"), "cold": (cold_pool, "a12000")}


def stratified(rng, pool, count):
    """`count` pool indices in seeded order. Each class contributes its
    pool share exactly (largest remainders); within a class the members
    are ordered by cost proxy, cut into as many equal bins as the class
    contributes, and one member is drawn per bin. Every seed so draws the
    same cost profile with different documents and terms, which keeps
    each percentile at the same place in the mix."""
    by_class = {}
    for index, (name, _, proxy) in enumerate(pool):
        by_class.setdefault(name, []).append((proxy, index))
    quotas = {name: count * len(members) / len(pool)
              for name, members in by_class.items()}
    taken = {name: int(q) for name, q in quotas.items()}
    for name in sorted(quotas, key=lambda n: (taken[n] - quotas[n], n))[
            :count - sum(taken.values())]:
        taken[name] += 1
    draws = []
    for name in sorted(by_class):
        members = sorted(by_class[name])
        bins = taken[name]
        for b in range(bins):
            lo = b * len(members) // bins
            hi = max(lo + 1, (b + 1) * len(members) // bins)
            draws.append(members[rng.randrange(lo, hi)][1])
    rng.shuffle(draws)
    return draws


class Zipf:
    """Seeded Zipf(s) draws over ranks 0..n-1."""

    def __init__(self, n, s):
        total = 0.0
        self.cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self.cumulative.append(total)

    def draw(self, rng):
        x = rng.random() * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, x),
                   len(self.cumulative) - 1)


ZIPF_WORDS = Zipf(VOCAB, 1.0)  # the corpus generator's zipf_theta
WORDS = [word(rank) for rank in range(VOCAB)]


def make_article(index, rng):
    """Article `index` of the writer's sequence, shaped like the bench
    corpus (workload/corpus.cc) over its background vocabulary, without
    planted terms. The shape (sections, paragraphs, lengths) depends only
    on `index`, the words on `rng`, so every seed ingests the same amount
    of text."""
    shape = random.Random(index)
    def text(lo, hi):
        return " ".join(rng.choices(WORDS, cum_weights=ZIPF_WORDS.cumulative,
                                    k=shape.randint(lo, hi)))
    parts = ["<article><fm><atl>", text(3, 8), "</atl>"]
    for i in range(shape.randint(1, 3)):
        parts.append('<au id="a%d"><fnm>name%d</fnm><snm>doe</snm></au>'
                     % (i, shape.randrange(1000)))
    parts.append("</fm><bdy>")
    for _ in range(shape.randint(2, 6)):
        parts += ["<sec><st>", text(2, 5), "</st>"]
        for _ in range(shape.randint(2, 8)):
            parts += ["<p>", text(20, 80), "</p>"]
        parts.append("</sec>")
    parts.append("</bdy></article>")
    return "".join(parts)


REPEAT_SHARE = 1.0 / 3
RECENCY = Zipf(256, 1.0)


def hot_draws(rng, pool, count):
    """hot_mix's draw sequence: a third of the draws repeat an earlier one,
    chosen with a Zipf skew toward recent draws (so the result cache can
    still serve it); the rest are fresh stratified pool queries. Repeats
    skip the previous two draws, which may still be in flight on the
    other connection."""
    repeats = set(rng.sample(range(3, count), int(count * REPEAT_SHARE)))
    fresh = stratified(rng, pool, count - len(repeats))
    draws = []
    for i in range(count):
        if i in repeats:
            draws.append(draws[-min(3 + RECENCY.draw(rng), len(draws))])
        else:
            draws.append(fresh.pop())
    return draws


def build_ops(workload, seed, seconds, pool):
    """The seeded op sequence of one run: the plan phases the tool
    replays and the documents the writer sends."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    reads = max(110, int(spec["reads_per_second"] * seconds))
    clients = spec["clients"]
    if workload == "hot_mix":
        draws = hot_draws(rng, pool, reads)
    else:
        draws = stratified(rng, pool, reads)
    streams = [draws[c::clients] for c in range(clients)]
    if spec["live"]:
        due = schedule(LIVE_DOCS, INGEST_RATE, start_ns=int(50e6))
    else:
        due = [-1] * TAIL_DOCS
    docs = [("live%05d.xml" % i, make_article(i, rng))
            for i in range(len(due))]
    writer = [("ingest %d %d" % (i, due[i])) for i in range(len(due))]
    phases = []
    if spec["live"]:
        phases.append(["phase live"] + ["stream " + " ".join(map(str, s))
                                         for s in streams]
                      + ["cycle 1"] + writer)
    else:
        phases.append(["phase read"] + ["stream " + " ".join(map(str, s))
                                         for s in streams])
        phases.append(["phase tail"] + writer)
    return phases, docs


def plan_text(phases, base_docs):
    lines = ["base_docs %d" % base_docs]
    for phase in phases:
        lines += phase
    return "\n".join(lines) + "\n"


def docs_text(docs):
    return "".join("%s\t%s\n" % (name, xml) for name, xml in docs)


# ------------------------------------------------------------- building

def run_quiet(cmd, what, cwd=None, timeout=None):
    result = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, timeout=timeout)
    if result.returncode != 0:
        tail = result.stdout.decode(errors="replace")[-3000:]
        raise BenchError("%s failed (exit %d):\n%s"
                         % (what, result.returncode, tail))
    return result.stdout.decode(errors="replace")


def build():
    """Configures and builds tixd and the benchmark tool (incremental)."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "tixd.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("not a TIX source tree: %s is missing"
                             % os.path.join(ROOT, needed))
    os.makedirs(BUILD, exist_ok=True)
    # Configure every time (well under a second once cached): a build
    # alone cannot name a target that the cached configuration predates.
    run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], "cmake configure",
              timeout=600)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "tixd",
               "perfbench_tool"], "build", timeout=1500)
    tixd = os.path.join(BUILD, "tix", "tools", "tixd")
    tool = os.path.join(BUILD, "perfbench_tool")
    for binary in (tixd, tool):
        if not os.access(binary, os.X_OK):
            raise BenchError("build produced no %s" % binary)
    return tixd, tool


def tree_hash(directory):
    """Content hash of every regular file under `directory`."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    digest.update(chunk)
    return digest.hexdigest()


def source_hash():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench"):
        path = os.path.join(ROOT, top)
        if os.path.isdir(path):
            digest.update(tree_hash(path).encode())
        elif os.path.exists(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        return out.stdout.decode().strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def prepare(tool):
    """Builds every corpus and its pool's reference answers once per
    checkout. Corpus generation is not part of any measurement."""
    facts = {}
    for corpus, articles in CORPORA.items():
        directory = os.path.join(DATA, corpus)
        marker = directory + ".json"
        spec = {"version": PREPARE_VERSION, "articles": articles,
                "corpus_seed": 42}
        if os.path.exists(marker):
            with open(marker) as f:
                cached = json.load(f)
            if cached.get("spec") == spec:
                facts[corpus] = cached
                continue
        log("preparing %s (%d articles)" % (corpus, articles))
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(DATA, exist_ok=True)
        out = run_quiet([tool, "prepare", "--dir=" + directory,
                         "--articles=%d" % articles], "prepare " + corpus)
        info = json.loads(out.strip().splitlines()[-1])
        info["spec"] = spec
        info["content_hash"] = tree_hash(directory)
        facts[corpus] = info
        with open(marker, "w") as f:
            json.dump(info, f)
    for pool_name, (make_pool, corpus) in POOLS.items():
        queries = [text for _, text, _ in make_pool()]
        text = "".join(q + "\n" for q in queries)
        pool_file = os.path.join(DATA, "pool_%s.txt" % pool_name)
        ref_file = os.path.join(DATA, "pool_%s.ref" % pool_name)
        key = hashlib.sha256((text + facts[corpus]["content_hash"])
                             .encode()).hexdigest()
        key_file = ref_file + ".key"
        if (os.path.exists(ref_file) and os.path.exists(key_file)
                and open(key_file).read() == key):
            continue
        log("computing reference answers for the %s pool "
            "(%d queries)" % (pool_name, len(queries)))
        with open(pool_file, "w") as f:
            f.write(text)
        copy = os.path.join(WORK, "refcopy")
        fresh_copy(os.path.join(DATA, corpus), copy)
        run_quiet([tool, "reference", "--dir=" + copy,
                   "--queries=" + pool_file, "--out=" + ref_file],
                  "reference " + pool_name, timeout=3600)
        shutil.rmtree(copy, ignore_errors=True)
        with open(key_file, "w") as f:
            f.write(key)
    return facts


def fresh_copy(source, target):
    """Byte-identical copy of a prepared directory, flushed to storage so
    that no writeback of the copy overlaps the measurement."""
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    for name in sorted(os.listdir(target)) + [None]:
        path = target if name is None else os.path.join(target, name)
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# ------------------------------------------------------------- the daemon

FRAME_PING, FRAME_STATS, FRAME_SHUTDOWN = 0x04, 0x03, 0x05
FRAME_PONG, FRAME_STATS_JSON = 0x84, 0x83


def frame_round_trip(sock, frame_type, payload=b""):
    sock.sendall(struct.pack("<IB", len(payload) + 1, frame_type) + payload)
    header = b""
    while len(header) < 5:
        chunk = sock.recv(5 - len(header))
        if not chunk:
            raise BenchError("tixd closed the connection")
        header += chunk
    length, response_type = struct.unpack("<IB", header)
    body = b""
    while len(body) < length - 1:
        chunk = sock.recv(length - 1 - len(body))
        if not chunk:
            raise BenchError("tixd closed the connection mid-frame")
        body += chunk
    return response_type, body


class Tixd:
    """One tixd child process. `started_s` is spawn-to-first-PONG."""

    def __init__(self, binary, db_dir, flags, log_path):
        self.args = [binary, "--db=" + db_dir, "--port=0"] + list(flags)
        self.log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdout=subprocess.PIPE,
                                     stderr=self.log, cwd=ROOT)
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("READY port="):
                raise BenchError("tixd did not start: %r" % line)
            self.port = int(line.split()[1].split("=")[1])
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if frame_round_trip(self.sock, FRAME_PING)[0] != FRAME_PONG:
                raise BenchError("tixd answered PING with something else")
        except BaseException:
            self.kill()
            raise
        self.started_s = time.perf_counter() - start

    def stats(self):
        kind, body = frame_round_trip(self.sock, FRAME_STATS)
        if kind != FRAME_STATS_JSON:
            raise BenchError("bad STATS reply")
        return json.loads(body)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for tixd")

    def shutdown(self):
        try:
            frame_round_trip(self.sock, FRAME_SHUTDOWN)
            self.sock.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError("tixd exited with %d" % self.proc.returncode)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self.log.close()


def dir_bytes(directory):
    total = 0
    for base, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ---------------------------------------------------------------- a run

def parse_load_output(path):
    out = {"Q": [], "I": [], "W": {}, "V": (0, 0), "X": 0, "E": []}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "Q":
                out["Q"].append((parts[1], int(parts[3]), int(parts[4]),
                                 int(parts[5]), parts[6]))
            elif tag == "I":
                out["I"].append((parts[1], int(parts[3]), int(parts[4]),
                                 int(parts[5]), parts[7]))
            elif tag == "W":
                out["W"][parts[1]] = int(parts[2])
            elif tag == "V":
                out["V"] = (int(parts[1]), int(parts[2]))
            elif tag == "X":
                out["X"] = int(parts[1])
            elif tag == "E":
                out["E"].append(line[2:].strip())
    return out


def write_inputs(run_dir, workload, seed, seconds, facts):
    spec = WORKLOADS[workload]
    pool_file = os.path.join(DATA, "pool_%s.txt" % spec["pool"])
    ref_file = os.path.join(DATA, "pool_%s.ref" % spec["pool"])
    pool = POOLS[spec["pool"]][0]()
    with open(pool_file) as f:
        if [text for _, text, _ in pool] != f.read().splitlines():
            raise BenchError("prepared pool is stale")
    base_docs = facts[spec["corpus"]]["documents"]
    phases, docs = build_ops(workload, seed, seconds, pool)
    plan_path = os.path.join(run_dir, "plan.txt")
    docs_path = os.path.join(run_dir, "docs.txt")
    plans = {}
    for phase in phases:
        name = phase[0].split()[1]
        plans[name] = os.path.join(run_dir, "plan_%s.txt" % name)
        with open(plans[name], "w") as f:
            f.write(plan_text([phase], base_docs))
    with open(plan_path, "w") as f:
        f.write(plan_text(phases, base_docs))
    with open(docs_path, "w") as f:
        f.write(docs_text(docs))
    digest = hashlib.sha256()
    for path in (plan_path, docs_path, pool_file):
        with open(path, "rb") as f:
            digest.update(f.read())
    return dict(plan=plan_path, phase_plans=plans, docs=docs_path,
                queries=pool_file, reference=ref_file,
                op_digest=digest.hexdigest()[:16])


def measure(workload, seed, seconds, tixd, tool, facts):
    spec = WORKLOADS[workload]
    run_dir = os.path.join(RUNS, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = write_inputs(run_dir, workload, seed, seconds, facts)
    corpus = facts[spec["corpus"]]
    pristine = os.path.join(DATA, spec["corpus"])
    data = os.path.join(run_dir, "data")
    fresh_copy(pristine, data)
    log_path = os.path.join(run_dir, "tixd.log")
    problems = []

    # setup_s: back-to-back restarts on the prepared directory; the first
    # one only warms the OS page cache and is not counted.
    log("copied the %s corpus" % spec["corpus"])
    setups = []
    for i in range(SETUP_RESTARTS + 1):
        daemon = Tixd(tixd, data, spec["flags"], log_path)
        daemon.shutdown()
        if i > 0:
            setups.append(daemon.started_s)

    log("measured setup")
    daemon = Tixd(tixd, data, spec["flags"], log_path)
    try:
        kernel = daemon.stats().get("decode_kernel", "unknown")
        loads = {}
        for name, plan in inputs["phase_plans"].items():
            out = os.path.join(run_dir, "load_%s.out" % name)
            run_quiet([tool, "load", "--port=%d" % daemon.port,
                       "--plan=" + plan, "--queries=" + inputs["queries"],
                       "--docs=" + inputs["docs"],
                       "--reference=" + inputs["reference"], "--out=" + out],
                      "load " + name, timeout=170)
            loads[name] = parse_load_output(out)
            log("ran phase %s" % name)
            if name == "read" and tree_hash(data) != corpus["content_hash"]:
                problems.append("the read phase changed the data directory")
        # Let background compaction finish before reading memory and disk.
        deadline = time.time() + 120
        while time.time() < deadline:
            index = daemon.stats().get("index", {})
            if index.get("segments", 0) < COMPACT_MIN_SEGMENTS:
                break
            time.sleep(0.05)
        rss = daemon.peak_rss_mb()
        log("background work settled")
    finally:
        daemon.shutdown()
    disk = dir_bytes(data)

    queries = [q for load in loads.values() for q in load["Q"]]
    ingests = [i for load in loads.values() for i in load["I"]]
    resolved = sum(load["V"][0] for load in loads.values())
    unresolved = sum(load["V"][1] for load in loads.values())
    acked_xml = sum(load["X"] for load in loads.values())
    for load in loads.values():
        problems += load["E"]
    latencies = [(end - start) / 1e6 for _, _, start, end, _ in queries]
    bad_queries = sum(1 for q in queries if q[4] != "o")
    ingest_ms, lateness_ms = [], []
    bad_ingests = 0
    for _, due, send, ack, status in ingests:
        if status != "o":
            bad_ingests += 1
            continue
        latency, late = ingest_timing(due, send, ack)
        ingest_ms.append(latency)
        lateness_ms.append(late)
    read_phase = "live" if spec["live"] else "read"
    read_wall_s = loads[read_phase]["W"][read_phase] / 1e9
    p50, _ = nearest_rank(latencies, 50)
    p90, beyond = nearest_rank(latencies, 90)
    if beyond < 10:
        problems.append("query_p90_ms has only %d samples beyond it" % beyond)
    ip50, _ = nearest_rank(ingest_ms, 50)
    ip90, ibeyond = nearest_rank(ingest_ms, 90)
    ok_queries = len(queries) - bad_queries
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "query_qps": ok_queries / read_wall_s,
        "ingest_p50_ms": ip50,
        "ingest_p90_ms": ip90,
        "peak_rss_mb": rss,
        "disk_bytes_per_xml_byte": disk / float(corpus["xml_bytes"] + acked_xml),
    }
    attempted = len(queries) + len(ingests) + resolved + unresolved
    failed = bad_queries + bad_ingests + unresolved
    provenance = {
        "queries": len(queries), "query_p90_beyond": beyond,
        "ingests": len(ingests), "ingest_p90_beyond": ibeyond,
        "failed_frac": failed / float(attempted),
        "lateness_ms": {"p50": nearest_rank(lateness_ms, 50)[0],
                        "max": max(lateness_ms)},
        "setup_samples_s": setups, "decode_kernel": kernel,
        "op_digest": inputs["op_digest"],
    }
    return metrics, attempted, failed, problems, provenance


def traced(workload, seed, seconds, tool, facts):
    spec = WORKLOADS[workload]
    run_dir = os.path.join(RUNS, workload + "_trace")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = write_inputs(run_dir, workload, seed, seconds, facts)
    pristine = os.path.join(DATA, spec["corpus"])
    dirs = {}
    for name in ("a", "b", "c"):
        dirs[name] = os.path.join(run_dir, "data_" + name)
        fresh_copy(pristine, dirs[name])
    out = os.path.join(run_dir, "trace.json")
    cmd = [tool, "trace", "--plan=" + inputs["plan"],
           "--queries=" + inputs["queries"], "--docs=" + inputs["docs"],
           "--reference=" + inputs["reference"], "--out=" + out,
           "--spans=" + os.path.join(run_dir, "spans.jsonl")]
    cmd += ["--dir-%s=%s" % (name, path) for name, path in dirs.items()]
    for flag in spec["flags"]:
        if flag.startswith("--result-cache-mb="):
            cmd.append(flag)
    run_quiet(cmd, "trace", timeout=170)
    with open(out) as f:
        result = json.load(f)
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
    provenance = {"op_digest": inputs["op_digest"],
                  "trace_queries": result["queries"]}
    return (result["metrics"], result["attempted"], result["failed"],
            result["errors"], provenance)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    selftest()
    if args.selftest:
        print("selftest ok")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        spec = load_benchmark_spec()
        # Compilers and tools write their temporary files under the checkout.
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
        tixd, tool = build()
        facts = prepare(tool)
        if args.trace:
            metrics, attempted, failed, problems, prov = traced(
                args.workload, args.seed, args.seconds, tool, facts)
            wanted = spec["per_layer"]
        else:
            metrics, attempted, failed, problems, prov = measure(
                args.workload, args.seed, args.seconds, tixd, tool, facts)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log(str(error))
        return 1
    corpus = facts[WORKLOADS[args.workload]["corpus"]]
    prov.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_hash": source_hash(),
        "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
        "tixd_flags": WORKLOADS[args.workload]["flags"],
        "corpus": {"articles": corpus["spec"]["articles"],
                   "corpus_seed": corpus["spec"]["corpus_seed"],
                   "nodes": corpus["nodes"], "xml_bytes": corpus["xml_bytes"],
                   "content_hash": corpus["content_hash"][:16]},
    })
    for problem in problems[:20]:
        log(problem)
    reported = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            log("metric %s not available" % name)
            continue
        reported[name] = {"value": metrics[name], "unit": metric["unit"]}
        print("%-34s %14.6f %s" % (name, metrics[name], metric["unit"]))
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------- selftest

def selftest():
    """Checks of the benchmark's own arithmetic and determinism."""
    def expect(condition, what):
        if not condition:
            raise SystemExit("perfbench selftest failed: " + what)
    # Nearest rank: the smallest value with at least p% of samples <= it.
    expect(nearest_rank([5, 1, 4, 2, 3], 50) == (3, 2), "p50 of 5")
    expect(nearest_rank(list(range(1, 101)), 90) == (90, 10), "p90 of 100")
    expect(nearest_rank(list(range(1, 110)), 90) == (99, 10), "p90 of 109")
    expect(nearest_rank([7], 90) == (7, 0), "p90 of 1")
    expect(nearest_rank(list(range(10)), 100) == (9, 0), "p100")
    # Open-loop schedule and lateness accounting.
    expect(schedule(3, 80.0) == [0, 12500000, 25000000], "schedule")
    expect(ingest_timing(100, 100, 5000100) == (5.0, 0.0), "on-time ingest")
    expect(ingest_timing(0, 2000000, 3000000) == (3.0, 2.0),
           "a late send charges its wait to latency")
    try:
        ingest_timing(10, 5, 20)
        expect(False, "send before due must be rejected")
    except BenchError:
        pass
    # Seeded inputs are deterministic and differ across seeds.
    pools = {name: make() for name, (make, _) in POOLS.items()}
    expect(pools == {name: make() for name, (make, _) in POOLS.items()},
           "fixed pools")
    a = build_ops("hot_mix", 7, 2, pools["hot"])
    expect(a == build_ops("hot_mix", 7, 2, pools["hot"]),
           "same seed, same ops")
    expect(a != build_ops("hot_mix", 8, 2, pools["hot"]),
           "different seed, different ops")
    expect(LIVE_DOCS % SEAL_DOCS == 0 and TAIL_DOCS % SEAL_DOCS == 0,
           "whole seal cycles")
    expect(stratified(random.Random(3), pools["cold"], 99) ==
           stratified(random.Random(3), pools["cold"], 99),
           "stratified draws are deterministic")
    # Class shares are exact on every seed.
    pool = pools["cold"]
    shares = [sorted(pool[i][0] for i in stratified(random.Random(s), pool, 150))
              for s in (1, 2)]
    expect(shares[0] == shares[1], "stratified class shares")
    draws = hot_draws(random.Random(1), pools["hot"], 600)
    expect(len(draws) - len(set(draws)) >= 150, "hot_mix repeats")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
