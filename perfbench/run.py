"""starfish benchmark: unlearning latency, CPU and wire cost, end to end and per layer.

    python3 perfbench/run.py --workload select-long --seed 0 --seconds 30 --trace 0

Load model: one operator issues unlearning requests in a closed loop, one
request in flight, each removing the next client in order from a history
trained once per run. Every request runs in fresh sessions keyed by the
seed, so a request for the same client repeats exactly. A run does a fixed
number of requests and stage-I jobs, sized from --seconds (see Run.plan),
so a seed always gives the same requests, failures and counts.

Workloads (the seed becomes the config ``seed``; every other key is the
RunConfig default unless listed):

  select-long    inproc, n=4 m=4 t=128 eta_l=0.005 sigma=0.05. Long history,
                 short replay: sec_rs (bitonic sort over 128 rounds on the
                 boolean kernel) dominates stage II; sec_tc never runs
                 (t_c=13 > T'=7). Loads gates' boolean kernel and roundsel.
  estimate-wide  inproc, n=20 m=32 t=12. Wide model, many clients: sec_ue's
                 Beaver matmuls (bytes grow with m^2) dominate; the sort is
                 small. Loads arithmetic gates, dealer Beaver draws, packing,
                 fixed-point encoding and simulated clients.
  default-tcp    the CLI default config as two party processes over loopback
                 TCP through `starfish train` -> history files -> `starfish
                 unlearn`. Tiny, latency-bound requests; the only workload
                 that uses sockets and HistoryStore save/load.

Inproc workloads run both parties as two threads of one worker process; the
TCP workload runs one worker process per party. All processes of a run
share one CPU (see main). This process only sends jobs, times them and
checks the results; src/ is used as a black box.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see tracing.py), the gate grid (see gategrid.py) and the
tracing overhead. The last stdout line is one JSON object.

End-to-end metrics: setup_s is the median of five set-ups, each from
starting the worker processes to their ready reply (imports, task build;
the TCP connect happens inside every CLI command, so it lands in the
request and training times). train_p75_s is the upper quartile of the
stage-I jobs, spread over the closed loop (TCP: a whole `starfish train`,
history save included). unlearn_p75_s and unlearn_p90_s are request wall
times at the 75th and 90th percentile; unlearn_cpu_p75_s is the upper
quartile of the CPU time of both parties. Upper percentiles, not medians: on
a shared host the same work runs at a base speed with bursts up to 1.7x
faster, whose share changes from run to run; a median lands on either side,
the upper quartile stays at the base speed. Rounds and bytes come from party
0's meter, averaged over clients. Requests that raised count as failed and
are left out of the timings.

Per request run.py checks: both parties agree; the selected rounds and
sec_tc flags equal oracle.plaintext_starfish; the trajectory stays within
meter.truncations * 2^-12 of the mirror; the metered rounds and bytes of
threshold_determination, sec_rs and each sec_tc equal predict_cost; and no
exception was raised. Any miss fails the request (``failed``). A broken
invariant of the program itself (parties disagree, a cost mismatch, an
untyped crash, tracing changing a transcript) also clears ``correct``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import ipc  # noqa: E402

# name: (transport, config keys, nominal request s, nominal stage-I job s).
# The nominal times are the base speed of a 2-vCPU Xeon (Sapphire Rapids)
# KVM guest. They only size a run (see Run.plan): a run does a fixed amount
# of work, so one seed and --seconds give the same requests, the same
# failures and the same counts on every machine, and take about --seconds
# on that one.
WORKLOADS = {
    "select-long": ("inproc", {"n": 4, "m": 4, "t": 128, "eta_l": 0.005, "sigma": 0.05},
                    0.32, 0.36),
    "estimate-wide": ("inproc", {"n": 20, "m": 32, "t": 12}, 0.75, 0.16),
    "default-tcp": ("tcp", {}, 0.28, 0.045),
}
SETUPS = 5          # set-ups per run; setup_s is their median
TRAIN_SHARE = 0.3   # share of the closed loop spent on stage-I jobs
MIN_TRAINS = 10
TRACED_TRAINS = 2
WARMUP = 2          # untimed requests before the closed loop
QUANTILE = 75       # percentile of the gated latency and CPU figures
TAIL = 90           # percentile of the tail figure
JOB_TIMEOUT = 60.0  # a job that hangs ends the run well inside its 180 s


# -- worker processes ----------------------------------------------------------


class Party:
    """One worker process and its pipe pair."""

    def __init__(self, *argv: str):
        # one BLAS thread: the run has one CPU (see main)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)

    def send(self, **msg) -> None:
        ipc.send(self.proc.stdin, msg)

    def recv(self, timeout: float = JOB_TIMEOUT):
        return ipc.recv(self.proc.stdout, timeout)

    def call(self, **msg):
        self.send(**msg)
        return self.recv()

    def stop(self, spans: Path | None = None) -> dict:
        reply = self.call(op="stop", spans=str(spans) if spans else None)
        self.proc.stdin.close()
        self.proc.wait(timeout=JOB_TIMEOUT)
        self.proc.stdout.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


class Deployment:
    """The worker processes of one set-up: one inproc worker, or two parties."""

    def __init__(self, transport: str, config: dict, seed: int, workdir: Path):
        if transport == "inproc":
            self.parties = [Party("inproc")]
        else:
            self.parties = [Party("tcp", "0"), Party("tcp", "1")]
        for p in self.parties:
            p.send(op="setup", config=config, seed=seed, workdir=str(workdir))
        for p in self.parties:
            p.recv()

    def job(self, op: str, **msg) -> list:
        """Run one job on every party; returns the replies."""
        if len(self.parties) == 1:
            return [self.parties[0].call(op=op, **msg)]
        p0, p1 = self.parties
        p0.send(op=op, **msg)
        first = p0.recv()
        if not first.get("listening"):
            return [first]  # party 0 failed before it listened; party 1 never ran
        p1.send(op=op, **msg)
        return [p0.recv(), p1.recv()]

    def each(self, op: str, **msg) -> list:
        return [p.call(op=op, **msg) for p in self.parties]

    def stop(self, spans_prefix: Path | None = None) -> list:
        out = []
        for i, p in enumerate(self.parties):
            spans = None if spans_prefix is None else spans_prefix.with_name(
                f"{spans_prefix.name}-worker{i}.jsonl.gz")
            out.append(p.stop(spans))
        return out

    def kill(self) -> None:
        for p in self.parties:
            p.kill()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- per-request checks ----------------------------------------------------------


@dataclass
class Sample:
    target: int
    wall: float
    cpu: float
    job: int = 0
    completed: bool = False
    reasons: list = field(default_factory=list)
    fatal: bool = False
    meter: dict | None = None
    transcript: str | None = None
    distance: float | None = None
    gap: float | None = None
    check_rounds: int = 0
    corrections: int = 0
    records: list = field(default_factory=list)


class Checker:
    """Checks a request against the plaintext oracle and the cost model.

    The oracle's figures for a client are a function of the config, the
    task and the client only, so they are computed once per client and
    every later request for it is checked against the same figures.
    """

    def __init__(self, config: dict, seed: int):
        from starfish import StarfishError, cli, costs, oracle, roundsel
        self.oracle, self.costs, self.error = oracle, costs, StarfishError
        self.cfg = cli.load_config(None, seed=seed, **config)
        self.task = self.cfg.build_task()
        self.ucfg = self.cfg.unlearn_config()
        self.codec = self.cfg.codec()
        params = roundsel.SelectionParams(t=self.ucfg.t, sigma=self.ucfg.sigma)
        self.method = 1 if params.t <= params.t_delta else 2
        self.check_s: list = []
        self.cost_mismatches = 0
        self._expected: dict = {}

    def _predicted(self, plain, target) -> dict:
        n, m, t = self.ucfg.n, self.ucfg.m, self.ucfg.t
        _, keep = self.oracle.selection_scores(plain.history, target, self.codec)
        shapes = {
            "threshold_determination": {"clients": n, "t": t},
            "sec_rs": {"t": t, "t_prime": self.ucfg.t_prime, "method": self.method,
                       "kept": int(keep.sum())},
            "sec_tc": {"clients": n - 1, "m": m},
        }
        return {op: self.costs.predict_cost(op, shape, self.codec).as_tuple()
                for op, shape in shapes.items()}

    def check(self, target: int, job: int, replies: list, wall: float) -> Sample:
        s = Sample(target=target, job=job, wall=wall, cpu=sum(r["cpu_s"] for r in replies))
        for r in replies:
            if not r["ok"]:
                kind = "raised" if r["typed"] else "crashed"
                s.reasons.append(f"{kind} {r['error'].splitlines()[0]}")
                s.fatal |= not r["typed"]
        if s.reasons:
            return s
        pubs = {}
        for r in replies:
            parties, meter = r["value"]
            pubs.update(parties)
            s.meter = meter or s.meter
        s.completed = True
        p0, p1 = pubs[0], pubs[1]
        s.transcript = p0["transcript"]
        s.check_rounds = p0["check_rounds"]
        s.corrections = sum(p0["corrections"].values())
        s.records = [json.loads(line) for line in p0["transcript"].splitlines()]
        if p0["transcript"] != p1["transcript"] or not np.array_equal(
                p0["trajectory"], p1["trajectory"]):
            s.reasons.append("parties disagree")
            s.fatal = True
        t0 = time.perf_counter()
        try:
            self._against_oracle(s, p0, target)
        except self.error as exc:
            s.reasons.append(f"mirror raised {type(exc).__name__}: {exc}")
        self.check_s.append(time.perf_counter() - t0)
        return s

    def _expect(self, target: int, selected: int):
        """(mirror run, predicted costs, retrained model) for one client."""
        key = (target, selected)
        if key not in self._expected:
            plain = self.oracle.plaintext_starfish(self.ucfg, self.task, target, codec=self.codec)
            horizon = math.ceil(selected / self.ucfg.sigma)
            retrained = self.oracle.train_from_scratch(
                self.ucfg, self.task, excluded=target, rounds=horizon)
            self._expected[key] = (plain, self._predicted(plain, target), retrained[-1])
        return self._expected[key]

    def _against_oracle(self, s: Sample, p0: dict, target: int) -> None:
        plain, predicted, retrained = self._expect(target, len(p0["selected"]))
        if not np.array_equal(p0["selected"], plain.selected):
            s.reasons.append("selection differs from the mirror")
        flags = [rec["flags"] for rec in s.records if rec["op"] == "sec_tc"]
        if flags != [f for _, f in plain.check_flags]:
            s.reasons.append("check flags differ from the mirror")
        if p0["trajectory"].shape == plain.trajectory.shape:
            s.gap = float(np.abs(p0["trajectory"] - plain.trajectory).max())
        if s.gap is None or s.gap > s.meter["truncations"] * 2.0 ** -12:
            s.reasons.append("trajectory leaves the truncation budget")
        mismatches = sum(
            1 for rec in s.records
            if rec["op"] in predicted and (rec["rounds"], rec["bytes"]) != predicted[rec["op"]])
        if mismatches:
            self.cost_mismatches += mismatches
            s.reasons.append(f"{mismatches} phase costs differ from predict_cost")
            s.fatal = True
        s.distance = float(np.linalg.norm(p0["model"] - retrained))


# -- statistics ------------------------------------------------------------------


def percentile(values, pct: int) -> float:
    """Linear-interpolated percentile, as numpy's default computes it."""
    return float(np.percentile(list(values), pct))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_client(samples: list, key: str) -> float:
    """Mean over clients of a meter count. A request for one client repeats
    exactly, so this does not depend on how many requests each client got."""
    first: dict = {}
    for s in samples:
        first.setdefault(s.target, s.meter[key])
    return mean(first.values())


# -- the run ---------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.transport, self.config, self.request_s, self.train_s = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.checker = Checker(self.config, seed)
        self.workdir = HERE / ".work" / f"{workload}-seed{seed}"
        self.deployments: list = []
        self.stopped: list = []
        self.samples: list = []
        self.train_walls: list = []
        self.jobs = 0
        self.notes: dict = {}
        self.grid_mismatches: list = []
        self.transcripts_differ = 0

    # -- plumbing ------------------------------------------------------------

    def _prepare_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        if self.transport == "tcp":
            port = _free_port()
            for target in range(self.checker.ucfg.n):
                lines = [f"{k} = {v}" for k, v in self.config.items()]
                lines += [f"seed = {self.seed}", f"target = {target}",
                          f"address = 127.0.0.1:{port}"]
                (self.workdir / f"target{target}.cfg").write_text("\n".join(lines) + "\n")

    def setup(self) -> list:
        """SETUPS fresh set-ups; keeps the last. Returns their wall times."""
        walls = []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            dep = Deployment(self.transport, self.config, self.seed, self.workdir)
            walls.append(time.perf_counter() - t0)
            self.deployments.append(dep)
            if i < SETUPS - 1:
                self.stopped += dep.stop()
        self.dep = dep
        return walls

    def plan(self, seconds: float) -> tuple[int, int]:
        """(requests, stage-I jobs) that take about `seconds` at the nominal
        speed, TRAIN_SHARE of it training. Every client is removed at least
        once."""
        requests = round((1 - TRAIN_SHARE) * seconds / self.request_s)
        trains = round(TRAIN_SHARE * seconds / self.train_s)
        return max(self.checker.ucfg.n, requests), max(MIN_TRAINS, trains)

    def train(self, count: int) -> list:
        walls = []
        for _ in range(count):
            self.jobs += 1
            t0 = time.perf_counter()
            replies = self.dep.job("train", job=self.jobs)
            walls.append(time.perf_counter() - t0)
            bad = [r["error"] for r in replies if not r["ok"]]
            if bad:
                raise RuntimeError(f"stage I failed: {bad[0]}")
        return walls

    def request(self, target: int) -> Sample:
        self.jobs += 1
        t0 = time.perf_counter()
        replies = self.dep.job("unlearn", job=self.jobs, target=target)
        wall = time.perf_counter() - t0
        sample = self.checker.check(target, self.jobs, replies, wall)
        self.samples.append(sample)
        return sample

    def loop(self, count: int, trains: int = 0) -> list:
        """Closed loop of `count` requests, each for the next client in
        order, with `trains` stage-I jobs spread evenly between them, so slow
        and fast spells of a shared machine reach train_s as they reach the
        requests."""
        out = []
        done = 0
        for i in range(count):
            out.append(self.request(len(self.samples) % self.checker.ucfg.n))
            due = (i + 1) * trains // count
            self.train_walls += self.train(due - done)
            done = due
        return out

    def finish(self, spans_prefix: Path | None = None) -> None:
        self.stopped += self.dep.stop(spans_prefix)

    def close(self) -> None:
        for dep in self.deployments:
            dep.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the two modes -------------------------------------------------------

    def end_to_end(self) -> dict:
        self._prepare_workdir()
        setup_walls = self.setup()
        self.train(1)
        for _ in range(WARMUP):
            self.request(len(self.samples) % self.checker.ucfg.n)
        timed = self.loop(*self.plan(self.seconds))
        self.finish()
        done = [s for s in timed if s.completed]
        if not done:
            raise RuntimeError("no request completed")
        walls = [s.wall for s in done]
        self.notes = {
            "unlearn_p75_s": f"of {len(walls)} requests; median {statistics.median(walls):.6g} s",
            "unlearn_p90_s": f"{sum(w > percentile(walls, TAIL) for w in walls)} requests beyond",
            "setup_s": f"median of {SETUPS} set-ups",
            "train_p75_s": f"of {len(self.train_walls)} stage-I jobs",
        }
        return {
            "setup_s": (statistics.median(setup_walls), "s"),
            "train_p75_s": (percentile(self.train_walls, QUANTILE), "s"),
            "unlearn_p75_s": (percentile(walls, QUANTILE), "s"),
            "unlearn_p90_s": (percentile(walls, TAIL), "s"),
            "unlearn_cpu_p75_s": (percentile((s.cpu for s in done), QUANTILE), "s"),
            "unlearn_rounds": (per_client(done, "rounds"), "count"),
            "unlearn_online_bytes": (per_client(done, "online"), "B"),
            "unlearn_offline_bytes": (per_client(done, "offline"), "B"),
            "peak_rss_mb": (max(r["maxrss_kb"] for r in self.stopped) / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        self._prepare_workdir()
        self.setup()
        self.train(1)
        self.dep.each("trace", on=True)
        self.train(TRACED_TRAINS)
        self.dep.each("trace", on=False)
        grid, self.grid_mismatches = self.dep.parties[0].call(op="gategrid", seed=self.seed)
        for _ in range(WARMUP):
            self.request(len(self.samples) % self.checker.ucfg.n)
        # half the requests of an untraced run, each once plain and once traced
        requests, _ = self.plan(self.seconds / 2)
        plain = self.loop(requests)
        self.dep.each("trace", on=True)
        traced = [self.request(s.target) for s in plain]
        self.dep.each("trace", on=False)
        summaries = self.dep.each("summaries")
        spans_dir = HERE / ".work" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        self.finish(spans_dir / f"{self.workload}-seed{self.seed}")

        self.transcripts_differ = sum(1 for a, b in zip(plain, traced) if a.transcript != b.transcript)
        return self._layers(summaries, plain, traced, grid)

    def _layers(self, summaries: list, plain: list, traced: list, grid: dict) -> dict:
        """Stage-II figures are means per traced request and stage-I figures
        means per traced training job; times are summed over both parties,
        counts are per party."""
        merged: dict = {}
        for worker in summaries:
            for tag, summary in worker:
                acc = merged.setdefault(tag, {})
                for k, v in summary.items():
                    acc[k] = acc.get(k, 0) + v
        trains = [v for (kind, _), v in merged.items() if kind == "train"]
        by_job = {job: v for (kind, job), v in merged.items() if kind == "unlearn"}
        done = [s for s in traced if s.completed]
        reqs = [by_job[s.job] for s in done]
        parties = 2

        def req(key, scale=1.0):
            return mean(r.get(key, 0.0) for r in reqs) * scale

        def phase(op, key):
            return mean(sum(rec[key] for rec in s.records if rec["op"] == op) for s in done)

        if not done:
            raise RuntimeError("no traced request completed")
        lanes = sum(r.get("mi_lanes", 0) for r in reqs)
        rs_t = sum(r.get("rs_t", 0) for r in reqs)
        distances = [s.distance for s in self.samples if s.distance is not None]
        gaps = [s.gap for s in self.samples if s.gap is not None]
        plain_walls = [s.wall for s in plain if s.completed]
        traced_walls = [s.wall for s in done]
        out = {
            "transport.recv_wait_s": (req("recv_wait"), "s"),
            "transport.send_s": (req("send"), "s"),
            "transport.pack_s": (req("pack"), "s"),
            "sharing.rounds": (req("exchanges", 1 / parties), "count"),
            "sharing.roundtrip_s": (req("roundtrip"), "s"),
            "sharing.dealer_s": (req("dealer"), "s"),
            "sharing.dealer_draws": (req("dealer_draws", 1 / parties), "count"),
            "sharing.bit_triple_s": (req("bit_triple"), "s"),
            "sharing.beaver_s": (req("beaver"), "s"),
            "sharing.keyed_rng_s": (mean(t.get("keyed_rng", 0.0) for t in trains), "s"),
            "gates.self_s": (req("gates_self"), "s"),
            "gates.bit_rounds": (req("bit_exchanges", 1 / parties), "count"),
            "gates.comparators": (per_client(done, "comparators"), "count"),
            "gates.mi_s": (req("mi"), "s"),
            "gates.mi_retries": (
                (sum(r.get("mi_draws", 0) for r in reqs) - lanes) / lanes if lanes else 0.0, "1"),
            "fixedpoint.encode_s": (req("encode"), "s"),
            "fixedpoint.truncate_s": (req("truncate"), "s"),
            "fixedpoint.truncations": (per_client(done, "truncations"), "count"),
            "roundsel.sec_rs_s": (req("sec_rs"), "s"),
            "roundsel.rounds": (phase("sec_rs", "rounds"), "count"),
            "roundsel.bytes": (phase("sec_rs", "bytes"), "B"),
            "roundsel.kept_ratio": (
                sum(r.get("rs_kept", 0) for r in reqs) / rs_t if rs_t else 0.0, "1"),
            "unlearn.stage1_s": (mean(t.get("stage1", 0.0) for t in trains), "s"),
            "unlearn.client_s": (
                mean(t.get("stage1", 0.0) - t.get("stage1_rec", 0.0) for t in trains), "s"),
            "unlearn.threshold_s": (req("threshold"), "s"),
            "unlearn.sec_ue_s": (req("sec_ue"), "s"),
            "unlearn.sec_ue_rounds": (phase("sec_ue", "rounds"), "count"),
            "unlearn.sec_ue_bytes": (phase("sec_ue", "bytes"), "B"),
            "unlearn.sec_tc_s": (req("sec_tc"), "s"),
            "unlearn.check_rounds": (mean(s.check_rounds for s in done), "count"),
            "unlearn.corrections": (mean(s.corrections for s in done), "count"),
            "cli.history_io_s": (
                mean(t.get("history_io", 0.0) for t in trains) + req("history_io"), "s"),
            "oracle.check_s": (mean(self.checker.check_s), "s"),
            "oracle.recovery_distance": (
                statistics.median(distances) if distances else 0.0, "1"),
            "oracle.mirror_gap": (max(gaps) if gaps else 0.0, "1"),
            "costs.mismatches": (self.checker.cost_mismatches + len(self.grid_mismatches), "count"),
            "trace.overhead_s": (
                statistics.median(traced_walls) - statistics.median(plain_walls), "s"),
        }
        for name, value in grid.items():
            out[name] = (value, "s")
        self.notes = {
            "trace.overhead_s": (
                f"median traced {statistics.median(traced_walls):.4f} s vs untraced "
                f"{statistics.median(plain_walls):.4f} s over {len(traced_walls)} requests"),
            "gates.mi_retries": f"extra inv_mask draws per sec_mi lane, {lanes} lanes",
        }
        return out


# -- entry point -------------------------------------------------------------------


def _report(run: Run, metrics: dict, extra_failures: int = 0) -> dict:
    samples = run.samples
    failed = [s for s in samples if s.reasons]
    for name, (value, unit) in metrics.items():
        note = run.notes.get(name)
        print(f"  {name:28s} {value:.6g} {unit}" + (f"   ({note})" if note else ""))
    reasons: dict = {}
    for s in failed:
        for r in s.reasons:
            reasons[r] = reasons.get(r, 0) + 1
    for r, c in sorted(reasons.items()):
        print(f"  failure: {c} x {r}")
    correct = not any(s.fatal for s in samples) and extra_failures == 0
    return {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _quality(run: Run) -> None:
    """Quality figures, printed beside the end-to-end metrics.

    They depend on the seed's task far more than on the code, so they are
    not gated end-to-end metrics; the traced run records them per layer.
    """
    n = len(run.samples)
    failed = sum(1 for s in run.samples if s.reasons)
    checked = [s.distance for s in run.samples if s.distance is not None]
    gaps = [s.gap for s in run.samples if s.gap is not None]
    print(f"  {'failed_ratio':28s} {failed / n:.6g} 1   ({failed} failed of {n} attempted)")
    if checked:
        print(f"  {'recovery_distance':28s} {statistics.median(checked):.6g} 1   "
              f"(median of {len(checked)})")
    if gaps:
        print(f"  {'mirror_gap':28s} {max(gaps):.6g} 1   (max of {len(gaps)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "starfish" / "__init__.py").is_file():
        print(f"error: no starfish package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every process of the run shares one CPU; the workers inherit it. The
    # GIL serialises the inproc party threads anyway, and the TCP parties
    # hand a frame back and forth every round. On one CPU a handoff is a
    # plain context switch; across CPUs it waits for the peer CPU to wake,
    # which on a shared virtual machine made wall times vary 2x from run to
    # run. The price: the two TCP parties do not compute in parallel.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a terminated run still stops its workers (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run = Run(args.workload, args.seed, args.seconds)
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, {mode}")
    try:
        if args.trace:
            metrics = run.per_layer()
            extra = run.transcripts_differ + len(run.grid_mismatches)
            for m in run.grid_mismatches:
                print(f"  gate grid: {m}")
            if run.transcripts_differ:
                print(f"  tracing changed {run.transcripts_differ} transcripts")
        else:
            metrics = run.end_to_end()
            extra = 0
    except (ipc.WorkerTimeout, ipc.WorkerGone, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    result = _report(run, metrics, extra)
    if not args.trace:
        _quality(run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
