"""Config parsing, subcommands, exit codes, artifact determinism."""

import json
import socket
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from starfish.cli import RunConfig, load_config, main, parse_config_text
from starfish.costs import CostEstimate
from starfish.errors import ConfigError, ProtocolError
from starfish.unlearn import HistoryStore


# -- config file parsing -------------------------------------------------------


def test_parse_config_text_typed_values():
    text = """
    # protocol size
    n = 5
    t = 12          # rounds
    sigma = 0.5
    task = logistic
    party = none
    eta_u =
    """
    values = parse_config_text(text)
    assert values == {
        "n": 5, "t": 12, "sigma": 0.5,
        "task": "logistic", "party": None, "eta_u": None,
    }


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"cfg:2: unknown key 'rounds'"):
        parse_config_text("n = 4\nrounds = 7\n", origin="cfg")


def test_parse_config_text_rejects_duplicates():
    with pytest.raises(ConfigError, match=r":3: duplicate key 'n'"):
        parse_config_text("n = 4\nm = 4\nn = 5\n")


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=r":1: expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match=r"bad value for n"):
        parse_config_text("n = four\n")
    with pytest.raises(ConfigError, match="party must be 0 or 1"):
        parse_config_text("party = 2\n")
    with pytest.raises(ConfigError, match="task must be"):
        parse_config_text("task = linear\n")


def test_load_config_defaults():
    cfg = load_config()
    assert (cfg.n, cfg.m, cfg.t) == (4, 4, 10)
    assert cfg.eta_u == pytest.approx(4.0 / 21.0)
    assert cfg.transport == "inproc"


def test_load_config_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nn = 6\n")
    cfg = load_config(path, seed=9, out=None)
    assert cfg.seed == 9      # explicit flag wins
    assert cfg.n == 6         # file value survives a None override
    assert cfg.out == "starfish-out"


def test_load_config_guards(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.cfg")
    path = tmp_path / "bad.cfg"
    path.write_text("target = 7\nn = 4\n")
    with pytest.raises(ConfigError, match="outside client range"):
        load_config(path)


def test_run_config_builds_both_task_families():
    quad = RunConfig().build_task()
    assert quad.kind == "quadratic" and quad.n == 4
    logi = RunConfig(task="logistic", n=3, m=3).build_task()
    assert logi.kind == "logistic" and logi.m == 3


# -- subcommands ----------------------------------------------------------------


SMALL = "n = 3\nm = 3\nt = 6\nalpha = 0.4\nbeta = 0.5\nbuffer_b = 1\nseed = 3\n"


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def _run(argv):
    return main([str(a) for a in argv])


def test_train_then_unlearn(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "round   1/6" in printed
    assert (out / "history.p0.sfh1").exists()
    assert (out / "history.p1.sfh1").exists()

    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "selected rounds:" in printed
    assert (out / "transcript.jsonl").exists()
    model = np.load(out / "model.npy")
    assert model.shape == (3,) and np.all(np.isfinite(model))


def test_unlearn_without_history_fails(small_cfg, tmp_path, capsys):
    code = _run(["unlearn", "--config", small_cfg, "--out", tmp_path / "empty"])
    assert code == 1
    assert "run train first" in capsys.readouterr().err


def test_unlearn_rejects_mismatched_history(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(SMALL.replace("t = 6", "t = 8"))
    assert _run(["unlearn", "--config", other, "--out", out]) == 1
    assert "does not match config" in capsys.readouterr().err


def test_unlearn_rejects_a_wide_word_history(small_cfg, tmp_path, capsys):
    # the SFH1 header's word size (<u2) follows magic, version, party, pad, n, m, t
    offset = struct.calcsize("<4sBBHIII")
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    for party in (0, 1):
        path = out / f"history.p{party}.sfh1"
        blob = bytearray(path.read_bytes())
        assert blob[offset : offset + 2] == (64).to_bytes(2, "little")
        blob[offset : offset + 2] = (128).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="128-bit words"):
            HistoryStore.load(path)
    capsys.readouterr()
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "128-bit words" in err
    assert "Traceback" not in err


def test_compare_writes_report(small_cfg, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert _run(["compare", "--config", small_cfg, "--out", out]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert set(report) >= {
        "arp", "selected", "selected_random", "corrections",
        "distance_final", "distance_plain_mirror", "bound",
    }
    # mu = 4 > 2 with the matched step size, so the bound section is present
    assert report["bound"]["violations"] == 0
    assert "ARP" in capsys.readouterr().out


def test_compare_runs_are_byte_identical(small_cfg, tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _run(["compare", "--config", small_cfg, "--out", out]) == 0
    capsys.readouterr()
    for name in ("compare.json", "transcript.jsonl"):
        blobs = [(out / name).read_bytes() for out in outs]
        assert blobs[0] == blobs[1]


def test_compare_full_sigma_matches_random_subset(tmp_path, capsys):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(SMALL + "sigma = 1.0\n")
    out = tmp_path / "full"
    assert _run(["compare", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((out / "compare.json").read_text())
    assert report["selected"] == report["selected_random"]


def test_audit_passes(capsys):
    assert _run(["audit", "--seed", 0]) == 0
    printed = capsys.readouterr().out
    assert "all 19 functionalities match" in printed
    assert "MISMATCH" not in printed


def test_audit_detects_a_cost_regression(monkeypatch, capsys):
    import starfish.cli as cli

    monkeypatch.setattr(
        cli, "predict_cost", lambda *a, **k: CostEstimate(rounds=999, online_bytes=1)
    )
    assert _run(["audit", "--seed", 0]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_protocol_failure_exit_code(monkeypatch, capsys):
    import starfish.cli as cli

    def explode(cfg):
        raise ProtocolError("corrupted frame")

    monkeypatch.setitem(cli._COMMANDS, "train", explode)
    assert _run(["train"]) == 2
    assert "protocol error" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    assert _run(["train", "--config", path]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_wide_ring_is_a_config_error(tmp_path, capsys):
    # the ring width is fixed at 64 bits; it is not a config key
    path = tmp_path / "wide.cfg"
    path.write_text("word_bits = 128\n")
    assert _run(["train", "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown key 'word_bits'" in err
    assert "Traceback" not in err


# -- tcp transport ------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_tcp_train_two_processes(tmp_path, capsys):
    cfg = tmp_path / "tcp.cfg"
    cfg.write_text(SMALL + f"transport = tcp\naddress = 127.0.0.1:{_free_port()}\n")
    out = tmp_path / "tcp-run"

    def run_party(party):
        return _run(["train", "--config", cfg, "--party", party, "--out", out])

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run_party, p) for p in (0, 1)]
        codes = [f.result(timeout=60) for f in futures]
    assert codes == [0, 0]
    assert (out / "history.p0.sfh1").exists()
    assert (out / "history.p1.sfh1").exists()

    # the saved halves reassemble: the inproc engine accepts them as one run
    assert _run(["unlearn", "--config", tmp_path / "plain.cfg", "--out", out]) == 1
    (tmp_path / "plain.cfg").write_text(SMALL)
    assert _run(["unlearn", "--config", tmp_path / "plain.cfg", "--out", out]) == 0


def test_tcp_requires_party(small_cfg, tmp_path, capsys):
    cfg = tmp_path / "tcp2.cfg"
    cfg.write_text(SMALL + "transport = tcp\n")
    assert _run(["train", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "needs --party" in capsys.readouterr().err
