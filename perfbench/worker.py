"""Benchmark worker: runs starfish protocol jobs on request from run.py.

    python3 perfbench/worker.py inproc      both parties, two threads
    python3 perfbench/worker.py tcp <party> one party of the CLI's TCP path

Messages arrive on stdin and replies leave on stdout as ipc frames; stray
prints go to stderr. The worker only calls the package's public entry
points and never edits src/. A request's CPU time is this process's CPU
time across the job, so an inproc job counts both party threads.
"""

from __future__ import annotations

import contextlib
import io
import resource
import socket
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import ipc  # noqa: E402
import starfish  # noqa: E402
import tracing  # noqa: E402
from starfish import cli, sharing, unlearn  # noqa: E402


class CliFailed(RuntimeError):
    """The CLI returned a nonzero exit code (its typed-error path)."""


def _meter(sess) -> dict:
    per_op = sess.meter.per_op
    comparator = per_op.get("comparator")
    return {
        "rounds": sum(st.rounds for st in per_op.values()),
        "online": sess.meter.total_online_bytes,
        "offline": sum(st.bytes_offline for st in per_op.values()),
        "truncations": sess.meter.truncations,
        "comparators": comparator.invocations if comparator else 0,
    }


def _public(res) -> dict:
    return {
        "model": res.model,
        "trajectory": res.trajectory,
        "transcript": res.transcript_jsonl(),
        "selected": np.asarray(res.selected),
        "corrections": dict(res.corrections),
        "check_rounds": res.check_rounds,
    }


class InprocRunner:
    """Both parties on two threads over the in-process channel."""

    def __init__(self, config: dict, seed: int):
        self.cfg = cli.load_config(None, seed=seed, transport="inproc", **config)
        self.task = self.cfg.build_task()
        self.pool = self.task.pool()
        self.ucfg = self.cfg.unlearn_config()
        self.codec = self.cfg.codec()
        self.history = None

    def _sessions(self):
        return starfish.make_inproc_sessions(self.cfg.seed, codec=self.codec)

    def train(self) -> None:
        self.history = starfish.run_pair(
            lambda s: starfish.stage_one(s, self.pool, self.ucfg), self._sessions())

    def unlearn(self, target: int):
        sessions = self._sessions()
        results = starfish.run_pair(
            lambda s: starfish.starfish_run(s, self.history[s.party], self.pool, self.ucfg, target),
            sessions)
        return {0: _public(results[0]), 1: _public(results[1])}, _meter(sessions[0])


class TcpRunner:
    """One party driven through the CLI: train writes the history files,
    unlearn reads them back. The CLI keeps its session and result to
    itself, so two thin wrappers in the cli namespace keep a reference.
    """

    def __init__(self, party: int, workdir: str, ctl_out):
        self.party = party
        self.workdir = Path(workdir)
        self.out = self.workdir / f"party{party}"
        self.session = None
        self.result = None
        self.error = None
        runner = self

        def make_tcp_session(*args, **kwargs):
            runner.session = sharing.make_tcp_session(*args, **kwargs)
            return runner.session

        def starfish_run(*args, **kwargs):
            try:
                runner.result = unlearn.starfish_run(*args, **kwargs)
            except starfish.StarfishError as exc:
                runner.error = exc
                raise
            return runner.result

        cli.make_tcp_session = make_tcp_session
        cli.starfish_run = starfish_run
        if party == 0:
            # Party 1 may dial only once party 0 listens: a refused dial costs
            # tcp_connect a 0.1 s sleep. run.py waits for this message.
            create_server = socket.create_server

            def create_server_and_report(*args, **kwargs):
                srv = create_server(*args, **kwargs)
                ipc.send(ctl_out, {"listening": True})
                return srv

            socket.create_server = create_server_and_report

    def _cli(self, command: str, target: int) -> None:
        argv = [command, "--config", str(self.workdir / f"target{target}.cfg"),
                "--party", str(self.party), "--transport", "tcp", "--out", str(self.out)]
        self.session = self.result = self.error = None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        if self.error is not None:
            raise self.error
        if code != 0:
            raise CliFailed(f"starfish {command} exited {code}: {buf.getvalue().strip()[-300:]}")

    def train(self) -> None:
        self._cli("train", 0)

    def unlearn(self, target: int):
        self._cli("unlearn", target)
        res = self.result
        pub = _public(res)
        # the CLI's own artifacts must carry the result it computed
        if ((self.out / "transcript.jsonl").read_text() != pub["transcript"]
                or not np.array_equal(np.load(self.out / "model.npy"), res.model)):
            raise RuntimeError("CLI artifacts differ from the run's result")
        return {self.party: pub}, _meter(self.session) if self.party == 0 else None


def _job(tracer, active: bool, tag, fn, *args) -> dict:
    """Run one job, never raising: failures are part of the reply."""
    if active:
        tracer.begin(tag)
    cpu0 = time.process_time()
    reply = {"ok": True, "typed": False, "error": None, "value": None}
    try:
        reply["value"] = fn(*args)
    except (starfish.StarfishError, CliFailed) as exc:
        reply.update(ok=False, typed=True, error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - an untyped crash is reported, not fatal here
        reply.update(ok=False, error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
    reply["cpu_s"] = time.process_time() - cpu0
    if active:
        tracer.end()
    return reply


def main() -> int:
    ctl_in = sys.stdin.buffer
    ctl_out = sys.stdout.buffer
    sys.stdout = sys.stderr
    role = sys.argv[1]
    tracer = tracing.Tracer()
    active = False
    runner = None
    while True:
        try:
            msg = ipc.recv(ctl_in)
        except ipc.WorkerGone:
            return 0
        op = msg["op"]
        if op == "setup":
            if role == "inproc":
                runner = InprocRunner(msg["config"], msg["seed"])
            else:
                runner = TcpRunner(int(sys.argv[2]), msg["workdir"], ctl_out)
            ipc.send(ctl_out, {"ready": True})
        elif op == "train":
            ipc.send(ctl_out, _job(tracer, active, ("train", msg["job"]), runner.train))
        elif op == "unlearn":
            ipc.send(ctl_out, _job(tracer, active, ("unlearn", msg["job"]),
                                   runner.unlearn, msg["target"]))
        elif op == "trace":
            if msg["on"] and not active:
                tracer.install()
            elif not msg["on"] and active:
                tracer.uninstall()
            active = msg["on"]
            ipc.send(ctl_out, {"ok": True})
        elif op == "summaries":
            ipc.send(ctl_out, [(tag, tracing.summarize(spans)) for tag, spans in tracer.archive])
        elif op == "gategrid":
            import gategrid
            ipc.send(ctl_out, gategrid.run(msg["seed"]))
        elif op == "stop":
            written = tracer.dump(msg["spans"]) if msg.get("spans") and tracer.archive else 0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            ipc.send(ctl_out, {"maxrss_kb": usage.ru_maxrss, "spans": written})
            return 0
        else:
            raise ValueError(f"unknown op {op!r}")


if __name__ == "__main__":
    sys.exit(main())
