"""Config parsing, subcommands, exit codes, artifact determinism."""

import json
import re
import socket
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from starfish import transport
from starfish.cli import RunConfig, _audit_battery, load_config, main, parse_config_text
from starfish.costs import CostEstimate
from starfish.errors import ConfigError, ProtocolError, RangeError
from starfish.oracle import plaintext_starfish
from starfish.sharing import make_inproc_sessions, run_pair
from starfish.transport import OP_TAGS
from starfish.unlearn import HistoryStore, simulate


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
    # the codec is fixed; its parameters are not config keys
    for key in ("precision_p", "range_e", "slack"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = 13\n")


def test_parse_config_text_rejects_duplicates():
    with pytest.raises(ConfigError, match=r":3: duplicate key 'n'"):
        parse_config_text("n = 4\nm = 4\nn = 5\n")


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=r":1: expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match=r"bad value for n"):
        parse_config_text("n = four\n")
    # the parser only converts types; RunConfig checks the values
    with pytest.raises(ConfigError, match="party must be 0 or 1"):
        RunConfig(**parse_config_text("party = 2\n"))
    with pytest.raises(ConfigError, match="task must be"):
        RunConfig(**parse_config_text("task = linear\n"))


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


@pytest.mark.parametrize("key, value, message", [
    ("task", "linear", "task must be quadratic or logistic"),
    ("transport", "bogus", "transport must be inproc or tcp"),
    ("party", 2, "party must be 0 or 1"),
    ("address", "nocolon", "address must be host:port"),
])
def test_run_config_checks_keyword_values(key, value, message):
    # a keyword override gets the same checks as a config file line
    with pytest.raises(ConfigError, match=message):
        load_config(None, **{key: value})
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{key: value})


@pytest.mark.parametrize("text, message", [
    ("mu = nan\n", "mu must be finite"),
    ("beta = inf\n", "beta must be finite"),
    ("task = logistic\nscale = nan\n", "scale must be finite"),
], ids=["mu", "beta", "logistic-scale"])
def test_non_finite_values_are_config_errors(tmp_path, capsys, text, message):
    # each used to escape as a traceback from the task, stage II or eigh
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert _run(["compare", "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_an_oversized_history_is_a_config_error():
    # T * n * (m + 1) words per party are checked before anything is
    # allocated; the constructor alone, so a broken check allocates nothing
    with pytest.raises(ConfigError, match="2000000000 words per party exceeds the limit of 16777216"):
        RunConfig(t=100_000_000)
    limit = (1 << 24) // (4 * 5)  # the default n = 4, m = 4
    assert RunConfig(t=limit).t == limit
    with pytest.raises(ConfigError, match="words per party exceeds"):
        RunConfig(t=limit + 1)


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


@pytest.mark.parametrize("argv, edit", [
    (["--seed", 7], ""),
    ([], "mu = 2.5\n"),
    ([], "eta_l = 0.04\n"),
])
def test_unlearn_rejects_the_history_of_another_run(small_cfg, tmp_path, capsys, argv, edit):
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(SMALL + edit)
    assert _run(["unlearn", "--config", other, "--out", out, *argv]) == 1
    err = capsys.readouterr().err
    assert "history.p" in err and "holds the history of another run" in err
    # the same config is accepted
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 0


def test_unlearn_rejects_a_logistic_history_of_another_reg(tmp_path, capsys):
    # the first gradient is taken at the zero start, where the l2 term
    # vanishes, so only the models after the first round tell reg apart
    base = SMALL + "task = logistic\n"
    trained, other = tmp_path / "trained.cfg", tmp_path / "other.cfg"
    trained.write_text(base + "reg = 0.5\n")
    other.write_text(base + "reg = 0.6\n")
    out = tmp_path / "run"
    assert _run(["train", "--config", trained, "--out", out]) == 0
    assert _run(["unlearn", "--config", other, "--out", out]) == 1
    assert "holds the history of another run" in capsys.readouterr().err
    assert _run(["unlearn", "--config", trained, "--out", out]) == 0


def test_unlearn_rejects_a_history_of_another_codec(small_cfg, tmp_path, capsys):
    # the SFH1 header's precision p (<B) follows the word size
    offset = struct.calcsize("<4sBBHIIIH")
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    path = out / "history.p0.sfh1"
    blob = bytearray(path.read_bytes())
    assert blob[offset] == 13
    blob[offset] = 12
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 1
    assert "history codec (12, 12) differs from configured codec" in capsys.readouterr().err


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


def test_unlearn_rejects_a_history_of_another_version(small_cfg, tmp_path, capsys):
    # the SFH1 header's version byte follows the magic; version 2 still held
    # the clients' threshold shares
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    path = out / "history.p0.sfh1"
    blob = bytearray(path.read_bytes())
    assert blob[4] == 3
    blob[4] = 2
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} is history version 2, expected 3" in err
    assert "rerun starfish train" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [lambda blob: blob[:-100], lambda blob: blob + b"\0"],
                         ids=["truncated", "one-extra-byte"])
def test_unlearn_rejects_a_history_of_the_wrong_length(small_cfg, tmp_path, capsys, edit):
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    path = out / "history.p0.sfh1"
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ConfigError, match="its header implies"):
        HistoryStore.load(path)
    capsys.readouterr()
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "its header implies" in err
    assert "Traceback" not in err


def test_unlearn_rejects_the_other_partys_history(small_cfg, tmp_path, capsys):
    # party 0's history copied over party 1's: caught before any round runs
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    (out / "history.p1.sfh1").write_bytes((out / "history.p0.sfh1").read_bytes())
    capsys.readouterr()
    assert _run(["unlearn", "--config", small_cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "history.p1.sfh1 holds party 0's history, not party 1's" in err
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
    assert "all 11 functionalities match" in printed
    assert "MISMATCH" not in printed
    # a comparison is 4 rounds; a ranked selection is a comparator layer (4
    # rounds for fractions), its B2A and a two-round lookup, with no round
    # before it
    assert re.search(r"^sec_ge \(8,\) +4 / 4 ", printed, re.M)
    assert re.search(r"^sec_ge \(65,\) +4 / 4 ", printed, re.M)
    assert re.search(r"^sec_rs T=12 T'=8 method 1 +7 / 7 ", printed, re.M)
    assert re.search(r"^sec_rs T=32 T'=10 method 1 +76 / 76 ", printed, re.M)
    assert re.search(r"^sec_rs T=128 T'=7 method 1 +111 / 111 ", printed, re.M)
    assert "sec_srt T=8 pair: comparators=24 (formula 24)" in printed
    # T=32 and T=128 run the top-k network (one and four merge levels);
    # T=12 ranks, one comparator call per pair
    assert "sec_rs T=32 T'=10 method 1: comparators=208 (formula 208)" in printed
    assert "sec_rs T=128 T'=7 method 1: comparators=684 (formula 684)" in printed
    assert "sec_rs T=12 T'=8 method 1: comparators=66 (formula 66)" in printed


def test_every_metered_round_has_its_own_wire_tag():
    # the default-config protocol run and the audit battery put no round on
    # the wire under an untagged op or the catch-all tag, and every tag but
    # the catch-all labels some round
    cfg = RunConfig()
    _, _, sessions = simulate(cfg.unlearn_config(), cfg.build_task().pool(), cfg.target,
                              codec=cfg.codec())
    battery = _audit_battery(cfg)
    audit = make_inproc_sessions(cfg.seed, codec=cfg.codec())
    run_pair(lambda sess: [runner(sess) for *_, runner in battery], audit)
    tagged = set(OP_TAGS) - {"other"}
    live = set()
    for sess in (*sessions, *audit):
        live |= {op for op, st in sess.meter.per_op.items() if st.rounds > 0}
    assert live == tagged, (live - tagged, tagged - live)


def test_audit_detects_a_cost_regression(monkeypatch, capsys):
    import starfish.cli as cli

    monkeypatch.setattr(
        cli, "predict_cost", lambda *a, **k: CostEstimate(rounds=999, online_bytes=1)
    )
    assert _run(["audit", "--seed", 0]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_audit_detects_a_comparator_count_regression(monkeypatch, capsys):
    import starfish.cli as cli

    monkeypatch.setattr(cli, "comparator_calls", lambda t, count: 1)
    assert _run(["audit", "--seed", 0]) == 3
    printed = capsys.readouterr().out
    assert "comparators=24 (formula 1)" in printed
    assert "MISMATCH" not in printed
    assert "audit: 3 mismatches" in printed


def test_protocol_failure_exit_code(monkeypatch, capsys):
    import starfish.cli as cli

    def explode(cfg):
        raise ProtocolError("corrupted frame")

    monkeypatch.setitem(cli._COMMANDS, "train", explode)
    assert _run(["train"]) == 2
    assert "protocol error" in capsys.readouterr().err


README_CFG = "n = 20\nm = 8\nsigma = 0.6\nalpha = 0.4\nbeta = 0.1\nbuffer_b = 2\ntask = quadratic\n"


def test_diverged_recovery_exit_code(tmp_path, capsys):
    # the README run.cfg at t=16, seed 7, with eta_u = 1 far above 2/lam_max
    # = 2/4.2: every step triples the distance to the optimum, so even exact
    # replay leaves the codec range; recovery round 8 meets a gradient
    # beyond 2^11
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CFG + "t = 16\neta_u = 1.0\n")
    assert _run(["compare", "--config", cfg, "--seed", 7, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("protocol error: recovery diverged at round 8: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("t", [12, 16, 20, 24, 30, 40])
@pytest.mark.parametrize("seed", [0, 7, 10])
def test_readme_run_recovers_within_the_bound(tmp_path, capsys, seed, t):
    # the README run.cfg over its grid of seeds and round counts: the secure
    # run, its mirror and the random-selection baseline all finish, with no
    # checkpoint over the bound; the secure run equals its mirror, flags and
    # model alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CFG + f"t = {t}\n")
    out = tmp_path / "out"
    assert _run(["compare", "--config", cfg, "--seed", seed, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((out / "compare.json").read_text())
    assert not [key for key in report if key.endswith("_error")]
    assert report["bound"]["violations"] == 0
    assert report["distance_final"] <= 1e-3
    assert report["distance_plain_mirror"] == 0.0
    run = load_config(cfg, seed=seed)
    plain = plaintext_starfish(run.unlearn_config(), run.build_task(), run.target, codec=run.codec())
    records = [json.loads(line) for line in (out / "transcript.jsonl").read_text().splitlines()]
    flags = [rec["flags"] for rec in records if rec["op"] == "sec_tc"]
    assert flags and flags == [f for _, f in plain.check_flags]


@pytest.mark.parametrize("text, argv", [(SMALL, []), (README_CFG + "t = 40\n", ["--seed", 7])],
                         ids=["small", "readme-seed7"])
def test_unlearn_from_saved_history_matches_compare_and_simulate(tmp_path, capsys, text, argv):
    # unlearn replays the clients' stage I in its own process; its transcript
    # equals compare's in-process run byte for byte, and its model simulate's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    run, cmp = tmp_path / "run", tmp_path / "cmp"
    for command, out in (("train", run), ("unlearn", run), ("compare", cmp)):
        assert _run([command, "--config", cfg, "--out", out, *argv]) == 0
    capsys.readouterr()
    assert (run / "transcript.jsonl").read_bytes() == (cmp / "transcript.jsonl").read_bytes()
    rc = load_config(cfg, seed=argv[-1] if argv else None)
    res, _, _ = simulate(rc.unlearn_config(), rc.build_task().pool(), rc.target, codec=rc.codec())
    assert np.array_equal(np.load(run / "model.npy"), res.model)


@pytest.mark.parametrize("target, error_key, nulled", [
    ("plaintext_starfish", "plain_mirror_error", ["distance_plain_mirror"]),
    ("train_from_scratch", "retrain_error",
     ["distance_final", "distances", "ter_retrained", "distance_random_baseline"]),
    ("random_selection_baseline", "random_baseline_error",
     ["selected_random", "distance_random_baseline"]),
])
def test_compare_records_a_failing_reference_run(monkeypatch, small_cfg, tmp_path, capsys,
                                                  target, error_key, nulled):
    import starfish.cli as cli

    def explode(*args, **kwargs):
        raise RangeError("magnitude >= 2^11 not representable")

    monkeypatch.setattr(cli, target, explode)
    out = tmp_path / "out"
    assert _run(["compare", "--config", small_cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "failed (RangeError: magnitude >= 2^11 not representable)" in printed
    report = json.loads((out / "compare.json").read_text())
    assert report[error_key] == "RangeError: magnitude >= 2^11 not representable"
    assert all(report[key] is None for key in nulled)
    assert report["selected"] and report["arp"] >= 0.0 and report["bound"] is not None
    assert "selected_random" in nulled or report["selected_random"]
    assert (out / "transcript.jsonl").exists()


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


def _tcp_pair(command, configs, out):
    """Run command as party 0 and party 1, each with its own config; exit codes."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run, [command, "--config", cfg, "--party", p, "--out", out])
                   for p, cfg in enumerate(configs)]
        return [f.result(timeout=60) for f in futures]


def _write_cfgs(tmp_path, base, *edits):
    """One config file per edit, all on the same fresh loopback address."""
    base += f"transport = tcp\naddress = 127.0.0.1:{_free_port()}\n"
    paths = []
    for i, extra in enumerate(edits):
        path = tmp_path / f"party{i}.cfg"
        path.write_text(base + extra)
        paths.append(path)
    return paths


def test_tcp_train_two_processes(tmp_path, capsys):
    (cfg,) = _write_cfgs(tmp_path, SMALL, "")
    out = tmp_path / "tcp-run"
    assert _tcp_pair("train", [cfg, cfg], out) == [0, 0]
    assert (out / "history.p0.sfh1").exists()
    assert (out / "history.p1.sfh1").exists()

    # the saved halves reassemble: the inproc engine accepts them as one run
    assert _run(["unlearn", "--config", tmp_path / "plain.cfg", "--out", out]) == 1
    (tmp_path / "plain.cfg").write_text(SMALL)
    assert _run(["unlearn", "--config", tmp_path / "plain.cfg", "--out", out]) == 0


def test_tcp_train_parties_with_different_configs_stop_at_round_one(tmp_path, capsys):
    cfgs = _write_cfgs(tmp_path, SMALL.replace("m = 3\n", ""), "m = 4\n", "m = 5\n")
    assert _tcp_pair("train", cfgs, tmp_path / "run") == [2, 2]
    err = capsys.readouterr().err
    assert err.count("the parties' configurations differ") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "history.p0.sfh1").exists()


def test_tcp_listener_stops_when_its_peer_never_connects(tmp_path, monkeypatch, capsys):
    # party 1 rejects its config before dialing; party 0 gives up on the
    # accept instead of waiting for it forever
    monkeypatch.setattr(transport, "TCP_TIMEOUT_S", 0.5)
    cfgs = _write_cfgs(tmp_path, SMALL.replace("m = 3\n", ""), "m = 3\n", "m = 0\n")
    assert _tcp_pair("train", cfgs, tmp_path / "run") == [2, 1]
    err = capsys.readouterr().err
    assert "no peer connected" in err and "must be positive" in err
    assert "Traceback" not in err


def test_tcp_unlearn_parties_with_different_configs_stop_at_round_one(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["train", "--config", small_cfg, "--out", out]) == 0
    cfgs = _write_cfgs(tmp_path, SMALL, "eta_u = 0.2\n", "eta_u = 0.25\n")
    assert _tcp_pair("unlearn", cfgs, out) == [2, 2]
    err = capsys.readouterr().err
    assert err.count("the parties' configurations differ") == 2
    assert "Traceback" not in err
    assert not (out / "model.npy").exists()


def test_address_must_be_host_and_port(tmp_path, capsys):
    assert RunConfig(**parse_config_text("address = 127.0.0.1:29477\n")).address == "127.0.0.1:29477"
    for bad in ("nohost", "host:abc", "host:70000", ":80", "host:0"):
        with pytest.raises(ConfigError, match="address must be host:port"):
            RunConfig(**parse_config_text(f"address = {bad}\n"))
    cfg = tmp_path / "nohost.cfg"
    cfg.write_text(SMALL + "transport = tcp\naddress = nohost\n")
    assert _run(["train", "--config", cfg, "--party", 0, "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "address must be host:port" in err
    assert "Traceback" not in err


def test_tcp_requires_party(small_cfg, tmp_path, capsys):
    cfg = tmp_path / "tcp2.cfg"
    cfg.write_text(SMALL + "transport = tcp\n")
    assert _run(["train", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "needs --party" in capsys.readouterr().err
