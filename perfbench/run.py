"""End-to-end benchmark of the InferA reproduction.

Run from the root of a checkout (``src/repro`` must be there):

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists):

* ``eval_grid``  - ``EvaluationHarness.run_suite``: 20 suite questions x 2
  runs, error model on, one worker, fresh 4-run ensemble and workdir;
  closed loop, one caller.
* ``cold_query`` - one-shot ``python -m repro query`` processes, each a
  fresh interpreter asking a distinct suite question, all in one shared
  workdir after an untimed warm-up query; closed loop, one caller.
* ``serve_live`` - one ``repro serve`` process; an open loop of queries
  at a fixed rate (own session each, questions in a seeded order) plus a
  ``POST /v1/ingest`` at a fixed interval.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
runs the same schedule once untraced and once with the layer wrappers of
``spans.py`` installed in the program process, prints a per-layer
coverage table and reports the per-layer metrics.  The last line of
stdout is always one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from child import RUNS_PER_QUESTION  # this file's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STATE = ROOT / ".perfbench_state"

# the bench_ensemble shape: 4 runs (q09 and q12 ask about simulations 2
# and 3), six snapshots up to the grid's final step 624
EVAL_STEPS = (0, 124, 249, 374, 498, 624)
# serve_live stops short of 624 so ingests have room on the step grid
SERVE_STEPS = (0, 124, 249, 374, 498, 599)
FINAL_STEP = 624
PARTICLES = 4000
SETUP_SAMPLES = 3
WARMUP_QUESTION = "How many halos are in run 0 at the final timestep?"
# A query every second: about a third of the sequential capacity (one
# client, back-to-back requests: ~2.9 req/s on a 2-core host), so that
# host CPU noise is not amplified by queueing.  A 40 s window is then
# exactly 2 cycles of the 20 suite questions.
SERVE_RATE_PER_S = 1.0
NPROC = len(os.sched_getaffinity(0))  # what `nproc` reports
SERVE_WORKERS = min(NPROC, 2)
# An ingest lands at the start of every cycle of the suite (see
# schedule), so each cycle asks every question once at one ensemble
# version.  Each ingest adds a timestep that "all timesteps" questions
# then scan, so a question costs more after it; with ingests between
# cycles, which questions meet which version does not depend on the
# seed's order, and neither does p90.
CHILD_TIMEOUT_S = 150.0
TRACEBACK = "Traceback (most recent call last)"
INF = float("inf")


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def hermetic_env() -> dict[str, str]:
    """The program's environment: no REPRO_* knobs (fault profiles, fleet
    sizes) and no pinned hash seed, so ambient CI settings cannot change
    a workload and a hash-order dependence fails the output checks."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k not in ("PYTHONPATH", "PYTHONHASHSEED")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: ``q`` of the samples are at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def generate(out: Path, seed: int, steps: tuple[int, ...]) -> None:
    """Write the workload's ensemble (input generation, never timed)."""
    from repro.sim import EnsembleSpec, generate_ensemble

    generate_ensemble(
        out,
        EnsembleSpec(
            n_runs=4,
            n_particles=PARTICLES,
            timesteps=steps,
            write_particles=True,
            seed=20250 + seed,
        ),
    )


def suite_questions() -> list[str]:
    from repro.eval.questions import QUESTION_SUITE

    return [q.text for q in QUESTION_SUITE]


class Checks:
    """Output checks: every failure is recorded with a reason."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def ok(self) -> bool:
        return not self.problems


def program_key() -> str:
    """Digest of the program under test: every source file under ``src/``
    and the benchmark's own, by relative path and content."""
    h = hashlib.sha256()
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def cross_run_check(checks: Checks, name: str, seed: int, digests: dict[str, str]) -> None:
    """Compare digests with those an earlier run of this seed recorded in
    this checkout for the same program, then record the union (answers
    must not drift between runs, processes or hash seeds).  Keying by the
    program means a change that alters answers on purpose (fewer tokens,
    more runs completed) is compared only with runs of itself."""
    path = STATE / program_key() / f"{name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in digests.items():
        if key in known:
            checks.expect(known[key] == value, f"{name}: {key} differs from an earlier run")
    known.update(digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)


class Child:
    """One finished program process: launch/exit stamps on the monotonic
    clock, exit code and output."""

    def __init__(self, args: list[str], timeout: float = CHILD_TIMEOUT_S):
        self.started = time.monotonic()
        proc = subprocess.run(
            args, cwd=ROOT, env=hermetic_env(), capture_output=True, text=True,
            timeout=timeout,
        )
        self.ended = time.monotonic()
        self.rc, self.out, self.err = proc.returncode, proc.stdout, proc.stderr

    @property
    def wall(self) -> float:
        return self.ended - self.started


def child_cmd(trace_out: Path | None) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return cmd


def metric(value: float, unit: str) -> dict:
    # +inf (a refused request inside a latency statistic) prints as 1e9
    # so the result line stays strict JSON
    return {"value": value if math.isfinite(value) else 1e9, "unit": unit}


def per_second(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def session_metrics(latencies: list[float], per_s: float, completed: int,
                    sessions: int, tokens: int) -> dict:
    """The end-to-end metrics every workload reports.

    A session is one question answered end to end: a harness cell, a
    one-shot query process, or a served request.  ``per_s`` is sessions
    per second of the time the program spent on them: ``run_suite`` wall,
    summed process walls, or summed worker ``exec_s`` (an open loop's
    wall time would only echo its offered rate).

    The central latency is a mean, not a median: the suite mixes cheap
    and costly questions about half and half, so the median sits in the
    gap between the two clusters and jumped by up to 2x between runs of
    one seed, while the mean moved with the host's speed only.  The p90
    is a per-layer metric (``bench.session_p90_s``), not an end-to-end
    one: on serve_live it hangs on the few costliest requests, and
    host-speed swings moved it by 0.25 of its median between runs."""
    return {
        "sessions_per_s": metric(per_s, "1/s"),
        "session_mean_s": metric(sum(latencies) / len(latencies) if latencies else 0.0, "s"),
        "completed_pct": metric(100.0 * completed / sessions if sessions else 0.0, "%"),
        "tokens_per_session": metric(tokens / sessions if sessions else 0.0, "tokens"),
    }


# ----------------------------------------------------------------------
# per-layer reporting (traced runs)
# ----------------------------------------------------------------------
def layer_metrics(layers: dict, startup_s: float, caches: dict) -> dict:
    def get(layer, key):
        return float(layers.get(layer, {}).get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"startup.import_s": metric(startup_s, "s")}
    for layer in ("rag", "llm", "db.write", "db.query", "sandbox", "provenance"):
        out[f"{layer}.self_s"] = metric(get(layer, "self_s"), "s")
        out[f"{layer}.calls"] = metric(get(layer, "calls"), "count")
    out["db.ingest.self_s"] = metric(get("db.ingest", "self_s"), "s")
    for layer in ("agents.planner", "agents.data_loader", "agents.qa",
                  "agents.supervisor", "agents.sql", "agents.python",
                  "agents.viz", "core.app"):
        out[f"{layer}.self_s"] = metric(get(layer, "self_s"), "s")
    out["rag.cache_hit_ratio"] = metric(
        ratio(caches.get("rag_memo_hits", 0),
              caches.get("rag_memo_hits", 0) + caches.get("rag_memo_misses", 0)), "ratio")
    out["db.query.cache_hit_ratio"] = metric(
        ratio(caches.get("db_query_hits", 0), caches.get("db_query_requests", 0)), "ratio")
    out["llm.tokens"] = metric(get("llm", "tokens"), "count")
    out["db.write.fsyncs"] = metric(get("db.write", "fsyncs"), "count")
    out["db.ingest.fsyncs"] = metric(get("db.ingest", "fsyncs"), "count")
    out["sandbox.failed"] = metric(get("sandbox", "failed"), "count")
    out["agents.data_loader.bytes_read"] = metric(get("agents.data_loader", "bytes_read"), "bytes")
    out["agents.qa.pass_ratio"] = metric(
        ratio(get("agents.qa", "passed"), get("agents.qa", "calls")), "ratio")
    return out


def coverage(layers: dict, session_s: float, label: str, process: dict | None = None) -> float:
    """Print the coverage table; return Σ layer self time / session time (%).

    ``process`` adds process-level layers (interpreter start-up, import,
    teardown) measured outside the wrapped functions."""
    rows = list((process or {}).items())
    rows += [(name, float(entry.get("self_s", 0.0))) for name, entry in layers.items()]
    covered = sum(s for _, s in rows)
    print(f"layer self time, {label} (session time {session_s:.3f} s)")
    print(f"  {'layer':<20} {'self_s':>10} {'share':>8}")
    for name, seconds in sorted(rows, key=lambda r: -r[1]) + [("(unwrapped)", session_s - covered)]:
        share = 100.0 * seconds / session_s if session_s else 0.0
        print(f"  {name:<20} {seconds:>10.4f} {share:>7.2f}%")
    return 100.0 * covered / session_s if session_s else 0.0


def serve_overview(records: list[dict]) -> dict:
    queries = [r for r in records if r["kind"] == "query" and r["code"] == 200]
    return {
        "serve.queue_wait_p50_s": metric(median([r["queue_wait_s"] for r in queries]), "s"),
        "serve.exec_p50_s": metric(median([r["exec_s"] for r in queries]), "s"),
        "serve.overhead_p50_s": metric(median(
            [r["done"] - r["sent"] - r["queue_wait_s"] - r["exec_s"] for r in queries]), "s"),
        "bench.late_p90_s": metric(percentile([r["sent"] - r["due"] for r in records], 0.9), "s"),
        "serve.ingest_p50_s": metric(median(
            [r["done"] - r["due"] for r in records if r["kind"] == "ingest" and r["code"] == 200]), "s"),
    }


def closed_loop_overview() -> dict:
    """serve.* and generator lateness do not exist in a closed loop."""
    return {
        "serve.queue_wait_p50_s": metric(0.0, "s"),
        "serve.exec_p50_s": metric(0.0, "s"),
        "serve.overhead_p50_s": metric(0.0, "s"),
        "bench.late_p90_s": metric(0.0, "s"),
        "serve.ingest_p50_s": metric(0.0, "s"),
    }


# ----------------------------------------------------------------------
# eval_grid
# ----------------------------------------------------------------------
def eval_child(work: Path, ens: Path, tag: str, trace: bool, setup_only: bool = False):
    out = work / f"{tag}.json"
    trace_out = work / f"{tag}.trace.json" if trace else None
    cmd = child_cmd(trace_out) + [
        "--launched-at", repr(time.monotonic()), "eval",
        "--ensemble", str(ens), "--workdir", str(work / tag), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    child = Child(cmd)
    ok = child.rc == 0 and TRACEBACK not in child.err and out.is_file()
    if not ok:
        sys.stderr.write(child.err[-2000:])
    doc = json.loads(out.read_text()) if ok else None
    tr = json.loads(trace_out.read_text()) if ok and trace_out is not None else None
    shutil.rmtree(work / tag, ignore_errors=True)
    return child.wall, doc, tr


def workload_eval_grid(work: Path, seed: int, seconds: float, trace: bool):
    ens = work / "ensemble"
    generate(ens, seed, EVAL_STEPS)
    checks = Checks()
    sessions_per_suite = 20 * RUNS_PER_QUESTION
    suites: list[dict] = []
    attempted = failed = 0
    setups: list[float] = []
    traced = None

    start = time.monotonic()
    i = 0
    while True:
        # a traced run: one untraced suite, then one traced
        tracing = trace and i == 1
        wall, doc, tr = eval_child(work, ens, f"suite{i}", tracing)
        attempted += sessions_per_suite
        if doc is None:
            failed += sessions_per_suite
            checks.expect(False, f"eval child suite{i} failed")
        else:
            checks.expect(doc["sessions"] == sessions_per_suite, "eval: session count")
            doc["traced"] = tracing
            suites.append(doc)
            setups.append(doc["setup_s"])
            if tr is not None:
                traced = (doc, tr)
        i += 1
        if (i == 2) if trace else (time.monotonic() - start + wall > seconds):
            break
    for j in range(0 if trace else SETUP_SAMPLES - len(setups)):
        _, doc, _ = eval_child(work, ens, f"setup{j}", False, setup_only=True)
        checks.expect(doc is not None, "eval setup probe failed")
        if doc is not None:
            setups.append(doc["setup_s"])

    tables = [digest(s["table2"]) for s in suites]
    checks.expect(len(set(tables)) <= 1,
                  "eval: Table-2 columns differ between suites (traced vs untraced or repeats)")
    if tables:
        cross_run_check(checks, "eval_grid", seed, {"table2": tables[0]})
    untraced = [s for s in suites if not s["traced"]]
    if not trace:
        metrics = session_metrics(
            [w for s in untraced for w in s["session_walls"]],
            per_second(sum(s["sessions"] for s in untraced), sum(s["wall_s"] for s in untraced)),
            sum(s["completed"] for s in untraced),
            sum(s["sessions"] for s in untraced),
            sum(s["tokens"] for s in untraced),
        )
        return checks, attempted, failed, metrics, setups

    if traced is None or not untraced:
        checks.expect(False, "eval: traced and untraced suites both needed")
        return checks, attempted, failed, {}, setups
    doc, tr = traced
    from spans import merge_tables

    layers = merge_tables(tr["threads"])
    metrics = layer_metrics(layers, tr["startup_s"], tr["caches"])
    metrics.update(closed_loop_overview())
    metrics["bench.session_p90_s"] = metric(percentile(untraced[0]["session_walls"], 0.9), "s")
    metrics["bench.trace_overhead_pct"] = metric(
        100.0 * (doc["wall_s"] / untraced[0]["wall_s"] - 1.0), "%")
    metrics["bench.self_coverage_pct"] = metric(
        coverage(layers, doc["wall_s"], "eval_grid run_suite"), "%")
    return checks, attempted, failed, metrics, setups


# ----------------------------------------------------------------------
# cold_query
# ----------------------------------------------------------------------
def query_once(question: str, ens: Path, workdir: Path, trace_out: Path | None):
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro"]
    else:
        cmd = child_cmd(trace_out) + ["cli"]
    cmd += ["query", question, "--ensemble", str(ens), "--workdir", str(workdir)]
    child = Child(cmd)
    out = child.out
    ok = (
        child.rc in (0, 1)
        and TRACEBACK not in child.err
        and "provenance: " in out
        and (child.rc == 0) == ("completed: True" in out)
    )
    # the answer without run-varying lines: provenance storage bytes
    # (the trace it counts holds timings) and workdir paths.  A figure is
    # compared by content, read now: the next query in the shared workdir
    # overwrites the file.
    lines = []
    for line in out.splitlines() if ok else ():
        if line.startswith("figure: "):
            figure = Path(line[len("figure: "):])
            ok = ok and figure.is_file()
            line = "figure: " + (hashlib.sha256(figure.read_bytes()).hexdigest() if ok else "")
        if not line.startswith(("tokens: ", "provenance: ")):
            lines.append(line)
    if not ok:
        sys.stderr.write(f"query failed (rc={child.rc}): {question[:60]}\n{child.err[-2000:]}")
    child.answer = "\n".join(lines) if ok else None
    child.ok = ok
    child.completed = "completed: True" in out
    tokens = [line for line in out.splitlines() if line.startswith("tokens: ")]
    child.tokens = int(tokens[0].split()[1].replace(",", "")) if tokens else 0
    return child


def workload_cold_query(work: Path, seed: int, seconds: float, trace: bool):
    ens = work / "ensemble"
    generate(ens, seed, EVAL_STEPS)
    checks = Checks()
    questions = suite_questions()
    random.Random(seed).shuffle(questions)
    attempted = failed = 0
    setups: list[float] = []

    # untimed warm-ups, each in a fresh workdir; the last workdir of each
    # side is the shared one its measured queries run in
    sides = [None, "traced"] if trace else [None]
    warmups = sides if trace else [None] * SETUP_SAMPLES
    workdirs = {}
    for k, side in enumerate(warmups):
        workdirs[side] = work / f"ws{k}"
        trace_out = work / "warmup.trace.json" if side else None
        child = query_once(WARMUP_QUESTION, ens, workdirs[side], trace_out)
        checks.expect(child.ok, "cold_query: warm-up query failed")
        setups.append(child.wall)

    walls: dict = {side: [] for side in sides}
    done: list = []
    traces: list[dict] = []
    answers: dict[str, str] = {}
    # Every run asks all 20 questions (~26-38 s on a 2-core host), so a
    # slow spell of the host cannot change which questions the
    # deterministic metrics cover; twice the window only guards the
    # 180 s limit against a program that got much slower.
    start = time.monotonic()
    for n, question in enumerate(questions):
        if time.monotonic() - start > 2 * seconds:
            break
        for side in sides:
            trace_out = work / f"q{n}.trace.json" if side else None
            child = query_once(question, ens, workdirs[side], trace_out)
            attempted += 1
            failed += not child.ok
            if not child.ok:
                continue
            walls[side].append(child.wall)
            if side is None:
                done.append(child)
            key = digest(question)[:16]
            checks.expect(answers.setdefault(key, child.answer) == child.answer,
                          "cold_query: traced and untraced answers differ")
            if trace_out is not None:
                tr = json.loads(trace_out.read_text())
                tr["child"] = child
                traces.append(tr)
    cross_run_check(checks, "cold_query", seed,
                    {k: digest(v) for k, v in answers.items()})

    if not trace:
        return checks, attempted, failed, session_metrics(
            walls[None], per_second(len(done), sum(walls[None])), sum(c.completed for c in done),
            len(done), sum(c.tokens for c in done)), setups

    from spans import merge_tables

    layers = merge_tables([t for tr in traces for t in tr["threads"]])
    caches: dict = {}
    for tr in traces:
        for key, value in tr["caches"].items():
            caches[key] = caches.get(key, 0) + value
    # a one-shot process's wall time also holds the interpreter's own
    # start-up (launch to main) and teardown (main's end to exit)
    process = {
        "startup.interpreter": sum(tr["entered_at"] - tr["child"].started for tr in traces),
        "startup.import": sum(tr["startup_s"] for tr in traces),
        "shutdown": sum(tr["child"].ended - tr["returned_at"] for tr in traces),
    }
    metrics = layer_metrics(layers, median([tr["startup_s"] for tr in traces]), caches)
    metrics.update(closed_loop_overview())
    metrics["bench.session_p90_s"] = metric(percentile(walls[None], 0.9), "s")
    metrics["bench.trace_overhead_pct"] = metric(
        100.0 * (median(walls["traced"]) / median(walls[None]) - 1.0)
        if walls[None] and walls["traced"] else 0.0, "%")
    metrics["bench.self_coverage_pct"] = metric(coverage(
        layers, sum(tr["child"].wall for tr in traces),
        f"cold_query, {len(traces)} processes", process), "%")
    return checks, attempted, failed, metrics, setups


# ----------------------------------------------------------------------
# serve_live
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process (optionally through the traced child)."""

    def __init__(self, work: Path, ens: Path, tag: str, trace: bool):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.trace_out = work / f"{tag}.trace.json" if trace else None
        self.log = work / f"{tag}.log"
        if trace:
            cmd = child_cmd(self.trace_out) + ["cli"]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--ensemble", str(ens), "--workdir", str(work / tag),
                "--port", str(self.port), "--app-workers", str(SERVE_WORKERS)]
        start = time.monotonic()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(),
                                         stdout=log, stderr=subprocess.STDOUT)
        deadline = start + 60.0
        while True:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not become healthy:\n{self.log.read_text()[-2000:]}")
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=1.0) as resp:
                    if json.loads(resp.read()).get("status") == "ok":
                        break
            except (OSError, ValueError):
                time.sleep(0.01)
        self.boot_s = time.monotonic() - start

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=10.0) as resp:
            return json.loads(resp.read())

    def post(self, path: str, doc: dict) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.url + path, data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=120.0) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {}
        except (OSError, ValueError):
            return 0, {}

    def stop(self) -> int:
        """SIGINT drains the server; returns the count of tracebacks logged."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        text = self.log.read_text(errors="replace") if self.log.is_file() else ""
        return text.count(TRACEBACK)


def schedule(seed: int, seconds: float) -> list[dict]:
    """Query arrivals at a fixed interval 1/SERVE_RATE_PER_S, with an
    ingest at the start of every cycle while the step grid has room.

    Questions cycle through the suite, each cycle in a seeded order, so
    every seed runs the same mix in another order, and questions repeat,
    so the query cache sees hits.  The ingest at a cycle's start lands
    half an interval before its first query; the one at the second cycle
    lands beside the previous cycle's last query, still running on its
    pinned snapshot.  Arrivals are evenly spaced rather than Poisson: with
    at most nproc connections, Poisson bursts stalled the generator and
    made p90 depend on the seed's burst pattern more than on the server."""
    rng = random.Random(seed)
    events = []
    cycle: list[str] = []
    step = SERVE_STEPS[-1] + 1
    n = 0
    while True:
        t = (n + 0.5) / SERVE_RATE_PER_S
        if t > seconds:
            break
        if not cycle:
            cycle = suite_questions()
            rng.shuffle(cycle)
            if step <= FINAL_STEP:
                events.append({"kind": "ingest", "due": n / SERVE_RATE_PER_S, "step": step})
                step += 1
        events.append({"kind": "query", "due": t, "question": cycle.pop(),
                       "session": f"r{n:04d}"})
        n += 1
    return sorted(events, key=lambda e: e["due"])


def drive(server: Server, events: list[dict], senders: int) -> list[dict]:
    """Open loop: ``senders`` threads send each event at its due time."""
    lock = threading.Lock()
    pending = iter(events)
    records: list[dict] = []
    t0 = time.monotonic() + 0.2

    def sender():
        while True:
            with lock:
                event = next(pending, None)
            if event is None:
                return
            due = t0 + event["due"]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            if event["kind"] == "query":
                code, body = server.post("/v1/query", {
                    "question": event["question"], "session": event["session"]})
            else:
                code, body = server.post("/v1/ingest", {"step": event["step"]})
            done = time.monotonic()
            timing = body.get("timing", {})
            record = dict(event, due=due - t0, sent=sent - t0, done=done - t0,
                          code=code, body=body,
                          queue_wait_s=timing.get("queue_wait_s", 0.0),
                          exec_s=timing.get("exec_s", 0.0))
            with lock:
                records.append(record)

    threads = [threading.Thread(target=sender, name=f"sender-{i}") for i in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda r: r["due"])


def check_serve(checks: Checks, records: list[dict], base_version: int) -> dict[str, str]:
    """Ingest commits, snapshot pins and answer byte-equality; returns
    ``question@version -> answer digest``."""
    ingests = sorted((r for r in records if r["kind"] == "ingest"), key=lambda r: r["step"])
    versions = []
    for r in ingests:
        report = r["body"].get("report", {})
        checks.expect(r["code"] == 200 and r["body"].get("status") == "committed",
                      f"serve: ingest of step {r['step']} did not commit")
        checks.expect(report.get("kills", -1) == 0, "serve: ingest absorbed kills")
        versions.append(report.get("ensemble_version", -1))
    checks.expect(versions == sorted(set(versions)), "serve: ensemble version not monotonic")
    answers: dict[str, str] = {}
    for r in records:
        if r["kind"] != "query" or r["code"] != 200:
            continue
        version = r["body"].get("snapshot", {}).get("ensemble_version")
        committed_before = sum(1 for i in ingests if i["code"] == 200 and i["done"] <= r["sent"])
        started_before = sum(1 for i in ingests if i["sent"] <= r["done"])
        checks.expect(
            version is not None
            and base_version + committed_before <= version <= base_version + started_before,
            "serve: query pinned to a version outside its lifetime")
        checks.expect(r["body"].get("result") is not None, "serve: response without answer")
        key = f"{digest(r['question'])[:16]}@{version}"
        value = digest(r["body"].get("result"))
        checks.expect(answers.setdefault(key, value) == value,
                      f"serve: answers to one question at version {version} differ")
    return answers


def serve_window(work: Path, ens: Path, tag: str, seed: int, seconds: float,
                 trace: bool, checks: Checks):
    server = Server(work, ens, tag, trace)
    try:
        base_version = server.get("/stats")["ingest"]["ensemble_version"]
        records = drive(server, schedule(seed, seconds), senders=NPROC)
    finally:
        tracebacks = server.stop()
    answers = check_serve(checks, records, base_version)
    return server, records, answers, tracebacks


def workload_serve_live(work: Path, seed: int, seconds: float, trace: bool):
    checks = Checks()
    setups: list[float] = []
    attempted = failed = 0
    windows = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    results = []
    for k, (tracing, window) in enumerate(windows):
        # a fresh ensemble per window: ingests extend it in place
        ens = work / f"ensemble{k}"
        generate(ens, seed, SERVE_STEPS)
        if not trace and k == 0:
            for j in range(SETUP_SAMPLES - 1):
                probe = Server(work, ens, f"boot{j}", False)
                probe.stop()
                setups.append(probe.boot_s)
        server, records, answers, tracebacks = serve_window(
            work, ens, f"srv{k}", seed, window, tracing, checks)
        setups.append(server.boot_s)
        attempted += len(records)
        bad = [r for r in records if r["code"] not in (200, 429)]
        failed += len(bad) + tracebacks
        checks.expect(not bad and not tracebacks, "serve: failed requests or tracebacks")
        results.append((server, records, answers))
    merged: dict[str, str] = {}
    for _, _, answers in results:
        for key, value in answers.items():
            checks.expect(merged.setdefault(key, value) == value,
                          "serve: traced and untraced answers differ")
    cross_run_check(checks, "serve_live", seed, merged)

    _, records, _ = results[0]
    queries = [r for r in records if r["kind"] == "query"]
    answered = [r for r in queries if r["code"] == 200]
    latencies = [r["done"] - r["due"] if r["code"] == 200 else INF for r in queries]
    if not trace:
        metrics = session_metrics(
            latencies,
            per_second(len(answered), sum(r["exec_s"] for r in answered)),
            sum(1 for r in answered if r["body"].get("status") == "ok"),
            len(queries),
            sum(r["body"].get("result", {}).get("tokens", 0) for r in answered),
        )
        print(f"serve_live: {len(queries)} requests measured")
        return checks, attempted, failed, metrics, setups

    from spans import merge_tables

    server, traced_records, _ = results[1]
    tr = json.loads(server.trace_out.read_text())
    layers = merge_tables(tr["threads"])
    workers_only = merge_tables(tr["threads"], keep=lambda n: n.startswith("repro-serve-worker"))
    metrics = layer_metrics(layers, tr["startup_s"], tr["caches"])
    metrics.update(serve_overview(records))
    metrics["bench.session_p90_s"] = metric(percentile(latencies, 0.9), "s")

    def exec_by_session(recs):
        return {r["session"]: r["exec_s"] for r in recs
                if r["kind"] == "query" and r["code"] == 200}

    # both windows ran the same schedule: pair each request with its twin
    untraced_exec, traced_exec = exec_by_session(records), exec_by_session(traced_records)
    ratios = [traced_exec[k] / untraced_exec[k] for k in traced_exec
              if untraced_exec.get(k)]
    metrics["bench.trace_overhead_pct"] = metric(
        100.0 * (median(ratios) - 1.0) if ratios else 0.0, "%")
    metrics["bench.self_coverage_pct"] = metric(coverage(
        workers_only, sum(traced_exec.values()), "serve_live worker threads"), "%")
    return checks, attempted, failed, metrics, setups


WORKLOADS = {
    "eval_grid": workload_eval_grid,
    "cold_query": workload_cold_query,
    "serve_live": workload_serve_live,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="InferA end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    if args.trace:
        # the span arithmetic the per-layer numbers rest on
        import unittest

        suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
        if not unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite).wasSuccessful():
            print("perfbench: span self-test failed", file=sys.stderr)
            return 1

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checks, attempted, failed, metrics, setups = WORKLOADS[args.workload](
            work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    if not args.trace:
        metrics["setup_s"] = metric(median(setups), "s")
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    print(json.dumps({
        "correct": checks.ok and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
