import json
import multiprocessing
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mlosim import cli, mld, scenario
from mlosim.scenario import LINK_SETS, ScenarioConfig
from mlosim.stats import all_pass, format_capacity


TINY = {"n_sta": 1, "sim_duration_s": 2.0, "activation_window_s": 0.1,
        "seeds": [1]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(tmp_path, command, config, out="out", extra=()):
    cfg = write_config(tmp_path, config)
    argv = [command, "--config", cfg, "--out", str(tmp_path / out),
            "--workers", "1", *extra]
    return cli.main(argv), tmp_path / out


# -- run command -----------------------------------------------------------

def test_run_writes_all_outputs(tmp_path, capsys):
    code, out = run_cli(tmp_path, "run", TINY)
    assert code == 0
    for name in ("delays.csv", "ccdf_dl_video.csv", "ccdf_ul_video.csv",
                 "ccdf_pose.csv", "summary.txt", "manifest.json"):
        assert (out / name).exists(), name
    summary = (out / "summary.txt").read_text()
    assert "overall=PASS" in summary
    assert "stream=dl_video" in summary
    assert "overall=PASS" in capsys.readouterr().out
    delays = (out / "delays.csv").read_text().splitlines()
    assert delays[0] == "seed,station,stream,frame_index,delay_us"
    assert len(delays) > 100


def test_run_rejects_sl_with_two_links(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "run", {**TINY, "policy": "sl", "links": "2x40"})
    assert code == 1
    assert "sl requires exactly 1 link" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'{"x": "\xff"}', b"[" * 100_000],
                         ids=["not-utf8", "too-deep"])
def test_run_rejects_undecodable_config(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(path) in err and "internal error" not in err


def test_run_rejects_json_array_config(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "must be a JSON object" in capsys.readouterr().err


def test_run_names_unknown_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "run", {**TINY, "n_stations": 4})
    assert code == 1
    assert "'n_stations'" in capsys.readouterr().err


def test_rate_control_key_is_unknown(tmp_path, capsys):
    # fixed_mcs alone picks rate control
    code, _ = run_cli(tmp_path, "run", {**TINY, "rate_control": "fixed"})
    assert code == 1
    assert "unknown config key 'rate_control'" in capsys.readouterr().err


def test_rate_key_is_unknown(tmp_path, capsys):
    # size_model over periodicity_us alone sets a stream's rate
    code, _ = run_cli(tmp_path, "run",
                      {**TINY, "traffic": {"pose": {"data_rate_mbps": 0.2}}})
    assert code == 1
    assert "unknown traffic field 'data_rate_mbps' under 'pose'" in capsys.readouterr().err


def test_run_names_unknown_traffic_field(tmp_path, capsys):
    # success_rate is not a stream field: stats.verdict holds the one 0.99
    # frame_rate is gone: periodicity_us alone sets a stream's rate
    for field, value in (("pdb", 5000), ("success_rate", 0.99), ("frame_rate", 60.0)):
        code, _ = run_cli(tmp_path, "run",
                          {**TINY, "traffic": {"dl_video": {field: value}}})
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "dl_video" in err


@pytest.mark.parametrize("key,value", [
    ("update_period_s", 0),  # would reschedule the estimator tick forever
    ("update_period_s", -0.1),
    ("update_period_s", 1e-7),  # truncates to 0 us
    ("ma_window", 0),
    ("ma_window", -1),
    ("buffer_cap", 0),
    ("n_sta", 2.5),  # integer fields: a run would fail inside deque/MCS_TABLE
    ("buffer_cap", 2.5),
    ("ma_window", 2.5),
    ("fixed_mcs", 2.5),
    ("seeds", [1.5]),
    ("update_period_s", 1e308),  # overflows integer microseconds
    ("sim_duration_s", 1e308),
    ("count_own_tx", "no"),  # a truthy string would count own airtime
    ("cell_radius_m", "x"),  # every field is checked against its annotation
    ("cell_radius_m", -5.0),
    ("cell_radius_m", 0),
    ("cell_radius_m", float("inf")),
    ("activation_window_s", "x"),
    ("activation_window_s", -1),
    ("sim_duration_s", -1),
    ("activation_window_s", float("nan")),
    ("sim_duration_s", True),  # a bool is no number
    ("links", [40.7, 40]),  # was truncated to 2x40
    ("seeds", [1, 1]),  # would record and count every frame of seed 1 twice
    ("seeds", 5),
    ("fixed_mcs", True),  # an integer picks fixed rate; null or absent, Minstrel
    ("fixed_mcs", "7"),
    ("fixed_mcs", 12),
    ("fixed_mcs", -1),
    ("sim_duration_s", 0.1000001),  # same whole-us horizon as the 0.1 s window
])
def test_resolve_config_rejects_out_of_range_knobs(key, value):
    with pytest.raises(cli.ConfigError, match=key):
        cli.resolve_config({**TINY, key: value})


@pytest.mark.parametrize("kind,field,value", [
    ("pose", "periodicity_us", 0),  # generate_frames would never end
    ("pose", "periodicity_us", -4000),
    ("pose", "data_rate_mbps", 0),  # the former rate field, unknown whatever its value
    ("dl_video", "data_rate_mbps", 0),
    ("pose", "periodicity_us", 4000.5),  # off the integer-microsecond clock
    ("pose", "pdb_us", 2.5),
    ("pose", "size_model", 100.7),
    ("ul_video", "kind", "pose"),  # would run two pose streams, no ul_video
    ("dl_video", "periodicity_us", 3000),  # jitter reordered arrivals: exit 2
    ("dl_video", "jitter_model", {"mean": 0, "std": 1, "min": -1, "max": 1}),
    ("dl_video", None, None),  # field None: value is the whole override
    ("dl_video", None, "pdb_us"),  # was read as the fields 'p', 'd', 'b', ...
    ("ul_video", "data_rate_mbps", "x"),
    ("ul_video", "data_rate_mbps", float("nan")),
    ("pose", "data_rate_mbps", True),
    ("ul_video", "jitter_model", 5),  # was an internal error in the run
])
def test_resolve_config_rejects_bad_stream_knobs(kind, field, value):
    # resolution only: a run with such a stream would exhaust memory
    override = value if field is None else {field: value}
    with pytest.raises(cli.ConfigError, match=field or f"{kind}' must be an object"):
        cli.resolve_config({**TINY, "traffic": {kind: override}})


@pytest.mark.parametrize("traffic,key", [
    (5, "traffic"),
    ({"enabled": "pose"}, "enabled"),  # a string, not a list of kinds
    ({"enabled": ["video"]}, "video"),
    ({"video": {}}, "video"),
])
def test_resolve_config_rejects_bad_traffic_keys(traffic, key):
    with pytest.raises(cli.ConfigError, match=key):
        cli.resolve_config({**TINY, "traffic": traffic})


def test_stream_period_sets_the_rate():
    # 7000 B every 8 ms offers 7.0 Mb/s; 100 B every 1 ms offers 0.8 Mb/s
    for kind, period, rate in (("ul_video", 8000, 7.0), ("pose", 1000, 0.8)):
        cfg = cli.resolve_config({**TINY, "traffic": {kind: {"periodicity_us": period}}})
        stream, = [s for s in scenario.streams_of(cfg) if s.kind == kind]
        size = stream.size_model
        mean = size if isinstance(size, int) else size.mean
        assert mean * 8 / stream.periodicity_us == pytest.approx(rate)
    # the DL video jitter span (8000 us) must stay below the period
    with pytest.raises(cli.ConfigError, match="jitter span"):
        cli.resolve_config({**TINY, "traffic": {"dl_video": {"periodicity_us": 8000}}})


def test_seeds_flag_overrides_config(tmp_path):
    code, out = run_cli(tmp_path, "run", TINY, extra=("--seeds", "7"))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [7]
    body = (out / "delays.csv").read_text().splitlines()[1:]
    assert all(line.startswith("7,") for line in body)


@pytest.mark.parametrize("seeds", ["x", [1, 1]])
def test_seeds_flag_still_checks_config_seeds(tmp_path, capsys, seeds):
    code, out = run_cli(tmp_path, "run", {**TINY, "seeds": seeds}, extra=("--seeds", "2"))
    assert code == 1
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_config_roundtrip(tmp_path):
    config = {**TINY, "policy": "congestion", "links": "2x40",
              "traffic": {"enabled": ["pose"]}}
    code, out = run_cli(tmp_path, "run", config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    echo = manifest["config"]
    assert echo["policy"] == "congestion"
    assert echo["links"] == "2x40"
    resolved = cli.resolve_config(echo)
    assert resolved == cli.resolve_config(config)
    assert resolved.links == "2x40"
    assert manifest["version"] and manifest["runtime_s"] >= 0


def test_unset_fixed_mcs_roundtrips_as_minstrel(tmp_path):
    code, out = run_cli(tmp_path, "run", TINY)
    assert code == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert "fixed_mcs" not in echo
    resolved = cli.resolve_config(echo)
    assert resolved == cli.resolve_config(TINY)
    assert resolved.fixed_mcs is None
    assert cli.resolve_config({**TINY, "fixed_mcs": None}) == resolved


@pytest.mark.parametrize("policy,links", [
    (policy, links) for policy in mld.POLICIES for links in LINK_SETS
    if (policy == mld.SL) == (len(LINK_SETS[links]) == 1)])
def test_config_echo_resolves_to_same_config(policy, links):
    cfg = cli.resolve_config({**TINY, "policy": policy, "links": links,
                              "traffic": {"pose": {"pdb_us": 8000}}})
    echo = json.loads(json.dumps(cli.config_to_dict(cfg)))  # as in the manifest
    assert cli.resolve_config(echo) == cfg


@pytest.mark.parametrize("command,key,value", [
    ("run", "policy", ["x"]),
    ("run", "policy", "congestion_aware"),  # the five names are the only spellings
    ("run", "links", [40, 40]),  # so are the five link-set names
    ("sweep", "policies", [["x"]]),
    ("sweep", "link_sets", [40]),
])
def test_config_names_only_canonical_choices(tmp_path, capsys, command, key, value):
    config = {**TINY, key: value}
    if command == "sweep":
        del config["n_sta"]
        config["sta_counts"] = [1]
    code, _ = run_cli(tmp_path, command, config)
    assert code == 1
    assert key in capsys.readouterr().err


def test_readme_config_example_resolves():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    echo = json.loads(json.dumps(cli.config_to_dict(cli.resolve_config(example))))
    assert {key: echo[key] for key in example} == example


def test_rerun_outputs_byte_identical(tmp_path):
    cfg = {**TINY, "policy": "uniform", "n_sta": 2}
    _, out_a = run_cli(tmp_path, "run", cfg, out="a")
    _, out_b = run_cli(tmp_path, "run", cfg, out="b")
    for name in ("delays.csv", "ccdf_dl_video.csv", "ccdf_ul_video.csv",
                 "ccdf_pose.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    def run_seeds(cfg, workers=1):
        raise RuntimeError("simulator crashed")

    monkeypatch.setattr(cli, "run_seeds", run_seeds)
    code, _ = run_cli(tmp_path, "run", TINY)
    assert code == 2
    assert "internal error: simulator crashed" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failing_seed_is_named(tmp_path, monkeypatch, capsys, workers):
    real_run = scenario.Experiment.run

    def run(self):
        if self.seed == 2:
            raise ZeroDivisionError("boom")
        return real_run(self)

    monkeypatch.setattr(scenario.Experiment, "run", run)
    code, _ = run_cli(tmp_path, "run", TINY, extra=("--seeds", "1,2", "--workers", workers))
    assert code == 2
    assert ("internal error: seed 2 failed (policy=greedy links=2x40 n_sta=1): boom"
            in capsys.readouterr().err)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mlosim.cli", "run",
         "--config", str(tmp_path / "missing.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_out_dir_from_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MLOSIM_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, TINY)
    assert cli.main(["run", "--config", cfg, "--workers", "1"]) == 0
    assert (tmp_path / "envout" / "summary.txt").exists()


# -- capacity command ----------------------------------------------------------

def test_capacity_outputs(tmp_path, capsys):
    cfg = {"policy": "sl", "links": "80", "sim_duration_s": 2.0,
           "activation_window_s": 0.1, "seeds": [1], "max_sta": 2,
           "fixed_mcs": 11}
    code, out = run_cli(tmp_path, "capacity", cfg)
    assert code == 0
    text = (out / "capacity.txt").read_text()
    assert text.startswith("policy=sl links=80 max_sta=2")
    per_n = (out / "per_n.csv").read_text().splitlines()
    assert per_n[0] == "n,stream,worst_p99_us,pdb_us,verdict"
    assert len(per_n) == 1 + 2 * 3  # two probed n values x three streams
    stdout = capsys.readouterr().out
    assert "max_sta=2" in stdout
    # both probes passed: the cap, not a failing probe, ended the search
    assert "warning: no probe failed up to max_sta=2; capacity is at least 2" in stdout


def test_capacity_reruns_from_manifest(tmp_path):
    # the cap binds (n=2 passes as well), so the echo must carry max_sta
    cfg = {"policy": "sl", "links": "80", "sim_duration_s": 2.0,
           "activation_window_s": 0.1, "seeds": [1], "max_sta": 1}
    code, out = run_cli(tmp_path, "capacity", cfg, out="a")
    assert code == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert echo["max_sta"] == 1 and "n_sta" not in echo
    code, rerun = run_cli(tmp_path, "capacity", echo, out="b")
    assert code == 0
    assert (rerun / "capacity.txt").read_bytes() == (out / "capacity.txt").read_bytes()


@pytest.mark.parametrize("command,key,value", [
    ("capacity", "n_sta", 5),  # the search probes n = 1, 2, ...
    ("sweep", "policy", "uniform"),  # each cell sets all three
    ("sweep", "links", "4x20"),
    ("sweep", "n_sta", 3),
])
def test_command_rejects_keys_it_sets(tmp_path, capsys, command, key, value):
    config = {"sim_duration_s": 2.0, "seeds": [1], "sta_counts": [1], key: value}
    if command == "capacity":
        del config["sta_counts"]
    code, out = run_cli(tmp_path, command, config)
    assert code == 1
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [
    ("run", {"n_sta": 1}),
    ("capacity", {"max_sta": 1}),
    ("sweep", {"policies": ["greedy"], "sta_counts": [1]}),
], ids=["run", "capacity", "sweep"])
def test_out_that_is_a_file_is_a_usage_error(tmp_path, capsys, command, extra):
    (tmp_path / "out").write_text("")
    config = {"sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [1], **extra}
    code, _ = run_cli(tmp_path, command, config)
    assert code == 1
    err = capsys.readouterr().err
    assert "--out" in err and "internal error" not in err


def test_capacity_rejects_bool_max_sta(tmp_path, capsys):
    # true is no station count: it would run a one-probe search
    code, _ = run_cli(tmp_path, "capacity", {**TINY, "max_sta": True})
    assert code == 1
    assert "'max_sta'" in capsys.readouterr().err


def test_capacity_zero_warns(tmp_path, capsys):
    cfg = {"sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [1],
           "max_sta": 2, "traffic": {"dl_video": {"pdb_us": 50}}}
    code, out = run_cli(tmp_path, "capacity", cfg)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "capacity is 0" in stdout
    assert "no probe failed" not in stdout
    assert "max_sta=0" in (out / "capacity.txt").read_text()


# A search that passes n = 1, 2 and fails at n = 3, in about 0.2 s.
STOPS = ScenarioConfig(policy="sl", links="80", fixed_mcs=1, sim_duration_s=1.0,
                       activation_window_s=0.1, seeds=(1, 2, 3))


def test_capacity_search_parallel_equals_serial():
    # the search fails before max_n, so the probe queued behind the
    # failing one is discarded; no worker may outlive the search
    serial = cli.capacity_search(STOPS, max_n=6, workers=1)
    parallel = cli.capacity_search(STOPS, max_n=6, workers=2)
    assert [n for n, _ in serial.per_n] == [1, 2, 3]
    assert not all_pass(serial.per_n[-1][1])
    assert parallel.per_n == serial.per_n
    assert format_capacity(parallel) == format_capacity(serial)
    assert multiprocessing.active_children() == []


def test_capacity_search_failing_seed_is_named_and_leaves_no_worker(monkeypatch):
    # seed 3 of probe 2 raises while probe 3 is queued behind it
    real_run = scenario.Experiment.run

    def run(self):
        if self.cfg.n_sta == 2 and self.seed == 3:
            raise ZeroDivisionError("boom")
        return real_run(self)

    monkeypatch.setattr(scenario.Experiment, "run", run)
    with pytest.raises(RuntimeError,
                       match=r"^seed 3 failed \(policy=sl links=80 n_sta=2\): boom$"):
        cli.capacity_search(STOPS, max_n=6, workers=2)
    assert multiprocessing.active_children() == []


def test_capacity_search_maps_each_probe_once_on_one_pool(monkeypatch):
    # an in-process fake records each pool, each probe mapped and each shutdown
    pools, mapped, shutdowns = [], [], []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, items):
            items = list(items)
            mapped.append(items[0][0].n_sta)
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            shutdowns.append(cancel_futures)

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", FakePool)
    assert cli.capacity_search(STOPS, max_n=6, workers=1).max_sta == 2
    assert pools == []  # one worker starts no pool
    cli.capacity_search(STOPS, max_n=6, workers=2)
    # probe 4 is queued behind the failing probe 3, then discarded
    assert (pools, mapped, shutdowns) == ([2], [1, 2, 3, 4], [True])
    # inside an open pool, a search that ends at the cap leaves nothing
    # queued and keeps the pool; one that stops early closes it
    for record in (pools, mapped, shutdowns):
        record.clear()
    with scenario.seed_pool(2):
        cli.capacity_search(STOPS, max_n=2, workers=2)
        assert (pools, mapped, shutdowns) == ([2], [1, 2], [])
        cli.capacity_search(STOPS, max_n=6, workers=2)
        assert (pools, mapped, shutdowns) == ([2], [1, 2, 1, 2, 3, 4], [True])
    assert shutdowns == [True]


# -- sweep command ---------------------------------------------------------------

def test_sweep_cross_product(tmp_path, capsys):
    cfg = {"policies": ["greedy", "sl"], "link_sets": ["2x40"],
           "sta_counts": [1, 2], "sim_duration_s": 2.0,
           "activation_window_s": 0.1, "seeds": [1]}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == ("policy,links,n_sta,dl_video_p99_us,ul_video_p99_us,"
                       "pose_p99_us,overall")
    assert len(rows) == 5
    keys = [tuple(r.split(",")[:3]) for r in rows[1:]]
    assert ("greedy", "2x40", "1") in keys
    assert ("sl", "80", "2") in keys  # single-link runs on the combined width
    assert all(r.endswith(("PASS", "FAIL")) for r in rows[1:])


def test_sweep_runs_each_cell_once(tmp_path):
    # sl on 2x40 is sl on 80: one row per station count, not two
    cfg = {"policies": ["sl"], "link_sets": ["80", "2x40"], "sta_counts": [1, 1],
           "sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [1]}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [tuple(r.split(",")[:3]) for r in rows] == [("sl", "80", "1")]


def test_sweep_rejects_mlo_policy_on_single_link(tmp_path, capsys):
    cfg = {"policies": ["sl", "greedy"], "link_sets": ["2x40", "80"],
           "sta_counts": [1], "sim_duration_s": 2.0, "activation_window_s": 0.1,
           "seeds": [1]}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "sweep cell (greedy, 80)" in err and "at least 2 links" in err
    assert not (out / "sweep.csv").exists()


def test_sweep_requires_sta_counts(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sweep", {"policies": ["greedy"]})
    assert code == 1
    assert "sta_counts" in capsys.readouterr().err


def test_sweep_rejects_bad_policy(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sweep",
                      {"policies": ["fastest"], "sta_counts": [1]})
    assert code == 1
    assert "fastest" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"sta_counts": 5},
    {"policies": "greedy", "sta_counts": [1]},
    {"link_sets": "2x40", "sta_counts": [1]},
    {"sta_counts": [True]},  # a bool is no station count
    {"link_sets": [], "policies": ["fastest"], "sta_counts": [1]},  # no cell would check 'fastest'
])
def test_sweep_requires_list_keys(tmp_path, capsys, bad):
    code, _ = run_cli(tmp_path, "sweep", bad)
    assert code == 1
    key = next(iter(bad))
    assert f"config key {key!r} must be a list" in capsys.readouterr().err


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = {"policies": ["uniform"], "link_sets": ["2x40"], "sta_counts": [1],
           "sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [2]}
    _, out_a = run_cli(tmp_path, "sweep", cfg, out="a")
    _, out_b = run_cli(tmp_path, "sweep", cfg, out="b")
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


def test_sweep_parallel_equals_serial(tmp_path):
    # each cell's seeds are queued behind the previous cell's on one pool
    cfg = {"policies": ["sl", "uniform"], "link_sets": ["2x40"], "sta_counts": [1, 2],
           "sim_duration_s": 1.0, "activation_window_s": 0.1, "seeds": [1, 2]}
    _, serial = run_cli(tmp_path, "sweep", cfg, out="a")
    _, parallel = run_cli(tmp_path, "sweep", cfg, out="b", extra=("--workers", "2"))
    assert (parallel / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
    assert multiprocessing.active_children() == []


def test_sweep_reports_failed_cell_and_keeps_the_rest(tmp_path, monkeypatch, capsys):
    real_run_seeds = cli.run_seeds

    def run_seeds(cfg, workers=1):
        if cfg.policy == "uniform":
            raise RuntimeError("cell crashed")
        return real_run_seeds(cfg, workers=workers)

    monkeypatch.setattr(cli, "run_seeds", run_seeds)
    cfg = {"policies": ["greedy", "uniform"], "sta_counts": [1],
           "sim_duration_s": 2.0, "activation_window_s": 0.1, "seeds": [1]}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows[1] == "uniform,2x40,1,ERROR,ERROR,ERROR,ERROR"
    assert rows[0].startswith("greedy,2x40,1,") and rows[0].endswith(("PASS", "FAIL"))
    assert "warning: 1 sweep cell(s) failed" in capsys.readouterr().out


# -- flag handling ----------------------------------------------------------------

RUN = ["run", "--config", "config.json"]


@pytest.mark.parametrize("argv,named", [
    (["run"], "--config"),
    ([*RUN, "--bogus"], "--bogus"),
    ([*RUN, "--workers", "abc"], "--workers"),
    ([*RUN, "--workers", "0"], "--workers"),
    ([*RUN, "--seeds", "1,x"], "--seeds"),
    ([*RUN, "--seeds", ","], "--seeds"),
    ([*RUN, "--log-level", "loud"], "--log-level"),
    (["frobnicate"], "frobnicate"),
], ids=["no-config", "unknown-flag", "workers-abc", "workers-0", "seeds-1x",
        "seeds-empty", "log-level-loud", "unknown-command"])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, TINY)
    assert cli.main(argv) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_0(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0


def test_seeds_flag_rejects_repeats(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seeds", "1,1"])
    assert code == 1
    assert "seeds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
