"""Experiment configs, CSV output and the command line."""
import csv
import json
import math
import random
import socket

import pytest
from reference import per_cell_summary

from gpislands import cli, harness, udp
from gpislands.cli import build_parser, config_from_args, main
from gpislands.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    resolve_strategy,
    run_experiment,
    summary_path_for,
    write_rows_csv,
    write_summary_csv,
)
from gpislands.evolution import island_strategy
from gpislands.islands import GenerationStats
from gpislands.trees import DEPTH_CEILING, ConfigurationError

SMALL = dict(islands=2, capacity=6, generations=4, iterations=3,
             interval=2, rate=0.2, seed="unit")


def small_run(**overrides):
    return run_experiment(ExperimentConfig(app="feed", **{**SMALL, **overrides}))


# ---------------------------------------------------------------------------
# config validation

@pytest.mark.parametrize("overrides", [
    {"app": "chess"},
    {"islands": 0},
    {"generations": 0},
    {"mode": "teleport"},
    {"landscape": "vertical"},
    {"transport": "pigeon"},
    {"loss": 1.5},
    {"transport": "udp", "loss": 0.5},
    {"transport": "udp", "udp_base_port": 0},
    {"transport": "udp", "udp_base_port": 65535, "islands": 2},
    {"max_depth": 0},
])
def test_config_validation_rejects(overrides):
    config = ExperimentConfig(**{"app": "feed", **overrides})
    with pytest.raises(ConfigurationError):
        config.validate()


@pytest.mark.parametrize("base,islands", [(1, 1), (1, 65535), (65535, 1), (65534, 2)])
def test_udp_ports_from_1_to_65535_are_accepted(base, islands):
    """Validation only: no socket is bound."""
    ExperimentConfig(app="feed", transport="udp", udp_base_port=base,
                     islands=islands).validate()


@pytest.mark.parametrize("base,islands", [(0, 1), (1, 65536), (65536, 1), (65535, 2)])
def test_udp_ports_one_past_either_end_exit_2(tmp_path, capsys, base, islands):
    """Rejected when the config is validated, before any socket is bound."""
    assert main(["--app", "feed", "--transport", "udp", "--udp-base-port", str(base),
                 "--islands", str(islands), "--out", str(tmp_path / "out.csv")]) == 2
    assert "must lie in 1..65535" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_heterogeneous_landscape_is_feed_only():
    config = ExperimentConfig(app="localisation", landscape="hetero")
    with pytest.raises(ConfigurationError):
        config.validate()
    ExperimentConfig(app="feed", landscape="hetero").validate()


# ---------------------------------------------------------------------------
# strategy resolution

def test_auto_strategy_follows_task_and_capacity():
    assert resolve_strategy(ExperimentConfig(app="feed", capacity=5)).total() == 5
    loc = resolve_strategy(ExperimentConfig(app="localisation", capacity=12))
    assert loc.total() == 12
    assert resolve_strategy(ExperimentConfig(app="feed", capacity=10)).total() == 10


def test_named_preset_must_match_capacity():
    with pytest.raises(ConfigurationError):
        resolve_strategy(ExperimentConfig(app="feed", capacity=10, strategy="gr"))


def test_a_mismatched_strategy_names_the_capacity_that_fits(tmp_path):
    spec = {"selectors": {"all": {}},
            "steps": [{"operator": "copy", "count": 1, "selector": "all"},
                      {"operator": "crossover", "count": 5, "selector": "all"}]}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ConfigurationError,
                       match="produces 6 members per generation; pass --capacity 6$"):
        resolve_strategy(ExperimentConfig(app="feed", capacity=10, strategy=str(path)))


def test_island_and_auto_use_10_without_a_capacity():
    for strategy in ("island", "auto"):
        for app in ("feed", "localisation"):
            config = ExperimentConfig(app=app, capacity=None, strategy=strategy)
            assert resolve_strategy(config) == island_strategy(10)


def test_strategy_loads_from_json_file(tmp_path):
    spec = {
        "selectors": {"all": {"kind": "wheel"}},
        "steps": [{"operator": "copy", "count": 1, "selector": "all"},
                  {"operator": "crossover", "count": 5, "selector": "all"}],
    }
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(spec))
    strategy = resolve_strategy(ExperimentConfig(app="feed", capacity=6,
                                                 strategy=str(path)))
    assert strategy.total() == 6


def test_unknown_strategy_name_raises():
    with pytest.raises(ConfigurationError):
        resolve_strategy(ExperimentConfig(app="feed", strategy="does-not-exist"))


def test_malformed_strategy_json_is_a_configuration_error(tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text("{bad")
    with pytest.raises(ConfigurationError, match="strategy.json"):
        resolve_strategy(ExperimentConfig(app="feed", strategy=str(path)))


# ---------------------------------------------------------------------------
# running experiments

def test_run_shape_and_ordering():
    result = small_run()
    assert len(result.rows) == 3 * 4 * 2  # iterations x generations x islands
    keys = [(r.iteration, r.generation, r.island) for r in result.rows]
    assert keys == sorted(keys)
    assert len(result.summary) == 4 * 2


def test_migration_bookkeeping_in_rows():
    result = small_run()
    for row in result.rows:
        if row.generation == 2:
            assert row.emigrants_sent == 1  # round(0.2 x 6) = 1
        else:
            assert row.emigrants_sent == 0


def test_rows_are_complete_when_run_islands_makes_them(monkeypatch):
    """Each iteration's rows come from ``run_islands`` as they are kept: the
    harness passes the iteration in, copies no row to set it, and keeps the
    rows in the order they are made."""
    made = []
    run_islands = harness.run_islands

    def recording(*args, **kwargs):
        rows = run_islands(*args, **kwargs)
        made.extend(rows)
        return rows

    monkeypatch.setattr(harness, "run_islands", recording)
    result = small_run()
    assert {r.iteration for r in result.rows} == {0, 1, 2}
    assert list(map(id, result.rows)) == list(map(id, made))


def test_rerun_is_identical():
    a, b = small_run(), small_run()
    assert a.rows == b.rows


def test_iterations_and_islands_get_independent_streams():
    result = small_run(mode="none")
    by_cell = {}
    for row in result.rows:
        by_cell.setdefault((row.iteration, row.island), []).append(row.mean_fitness)
    trajectories = list(by_cell.values())
    assert len({tuple(t) for t in trajectories}) == len(trajectories)


def test_udp_transport_delivers_on_loopback():
    result = small_run(transport="udp", udp_base_port=48741,
                       iterations=2, interval=1)
    arrived = sum(r.immigrants_admitted for r in result.rows)
    assert arrived > 0


def held_port_pair():
    """A free port ``base`` and a plain socket holding ``base + 1``.

    The holder does not set ``SO_REUSEADDR``, so a transport binding
    ``base + 1`` fails even though transports set it themselves.
    """
    for _ in range(20):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("", 0))
            base = probe.getsockname()[1]
        if base >= 65535:
            continue
        holder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            holder.bind(("", base + 1))
        except OSError:
            holder.close()
            continue
        return base, holder
    pytest.skip("no free pair of adjacent UDP ports")


def test_failed_udp_bind_closes_the_sockets_already_bound(monkeypatch):
    created = []

    class Recording(udp.UdpBroadcastTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(udp, "UdpBroadcastTransport", Recording)  # _transports reads it here
    base, holder = held_port_pair()
    try:
        config = ExperimentConfig(app="feed", islands=3, transport="udp",
                                  udp_base_port=base)
        with pytest.raises(OSError):
            harness._transports(config, 0)
    finally:
        holder.close()
    assert len(created) == 1
    assert created[0]._sock.fileno() == -1  # closed


# ---------------------------------------------------------------------------
# CSV files

def test_row_csv_schema_and_determinism(tmp_path):
    result = small_run()
    path = tmp_path / "rows.csv"
    write_rows_csv(result, str(path))
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == CSV_COLUMNS == [
        "iteration", "generation", "island", "max_fitness", "mean_fitness",
        "mean_size", "mean_depth", "immigrants_admitted", "emigrants_sent",
        "helper_rejections"]
    assert len(body) == len(result.rows)

    again = tmp_path / "again.csv"
    write_rows_csv(small_run(), str(again))
    assert path.read_bytes() == again.read_bytes()


def test_summary_is_recomputable_from_rows(tmp_path):
    result = small_run()
    cell = [r.max_fitness for r in result.rows
            if r.generation == 3 and r.island == 1]
    mean = sum(cell) / len(cell)
    sd = math.sqrt(sum((v - mean) ** 2 for v in cell) / (len(cell) - 1))
    row = next(s for s in result.summary if s.generation == 3 and s.island == 1)
    assert row.max_fitness_mean == pytest.approx(mean)
    assert row.max_fitness_sd == pytest.approx(sd)
    assert row.max_fitness_se == pytest.approx(sd / math.sqrt(len(cell)))

    path = tmp_path / "rows_summary.csv"
    write_summary_csv(result, str(path))
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["generation", "island", "max_fitness_mean",
                          "max_fitness_sd"]


def stats_row(iteration, generation, island, max_fitness, mean_fitness):
    return GenerationStats(iteration=iteration, generation=generation, island=island,
                           max_fitness=max_fitness, mean_fitness=mean_fitness,
                           mean_size=1.0, mean_depth=1.0, immigrants_admitted=0,
                           emigrants_sent=0, helper_rejections=0)


def bits(summary):
    """Each summary row's cell and the ``float.hex`` of each of its figures."""
    return [(row.generation, row.island, *[v.hex() for v in row[2:]])
            for row in summary]


@pytest.mark.parametrize("iterations", [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 127, 128, 129,
                                        200, 300])
def test_the_summary_keeps_the_bits_of_summarizing_each_cell_alone(iterations):
    """Across iteration counts on both sides of numpy's eight-way pairwise
    sums and its 128-element blocks, every figure of every cell is the
    per-cell summary's, compared by ``float.hex``, with the rows shuffled
    and values spread over many magnitudes."""
    rng = random.Random(f"summary:{iterations}")
    for _ in range(20):
        config = ExperimentConfig(app="feed", islands=rng.randint(1, 3),
                                  generations=rng.randint(1, 3), iterations=iterations)
        rows = [stats_row(it, g, i, rng.random() * 10.0 ** rng.randint(-8, 8),
                          rng.uniform(-1.0, 1.0) / 3.0)
                for it in range(iterations) for g in range(config.generations)
                for i in range(config.islands)]
        rng.shuffle(rows)
        assert bits(harness._summarize(config, rows)) == bits(per_cell_summary(config, rows))


@pytest.mark.parametrize("change", ["missing", "extra", "stray island", "stray generation"])
def test_the_summary_refuses_rows_that_do_not_fill_the_grid(change):
    config = ExperimentConfig(app="feed", islands=2, generations=3, iterations=4)
    rows = [stats_row(it, g, i, 0.5, 0.25) for it in range(4) for g in range(3)
            for i in range(2)]
    harness._summarize(config, rows)  # the full grid is fine
    if change == "missing":
        rows.pop(5)
    elif change == "extra":
        rows.append(stats_row(4, 0, 0, 0.5, 0.25))
    elif change == "stray island":
        rows[5] = rows[5]._replace(island=2)
    else:
        rows[5] = rows[5]._replace(generation=3)
    with pytest.raises(ValueError, match="do not hold 4 iterations"):
        harness._summarize(config, rows)


def test_summary_path_derivation():
    assert summary_path_for("out/results.csv") == "out/results_summary.csv"
    assert summary_path_for("plain") == "plain_summary.csv"


# ---------------------------------------------------------------------------
# the command line

def cli_args(tmp_path, *extra):
    return ["--app", "feed", "--islands", "1", "--capacity", "6",
            "--generations", "2", "--iterations", "2", "--mode", "none",
            "--seed", "cli", "--out", str(tmp_path / "out.csv"), *extra]


@pytest.mark.parametrize("app", ["feed", "localisation"])
def test_cli_defaults_are_the_configs(app):
    got = config_from_args(build_parser().parse_args(["--app", app]))
    want = ExperimentConfig(app=app)
    for name in ExperimentConfig._fields:  # repr tells "0" from 0
        assert (name, repr(getattr(got, name))) == (name, repr(getattr(want, name)))


def test_cli_writes_rows_and_summary(tmp_path, capsys):
    assert main(cli_args(tmp_path)) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out_summary.csv").exists()
    assert "out.csv" in printed and "out_summary.csv" in printed
    with open(tmp_path / "out.csv") as fh:
        assert next(csv.reader(fh)) == CSV_COLUMNS


def test_cli_rejects_bad_configuration(tmp_path, capsys):
    code = main(cli_args(tmp_path, "--transport", "udp", "--loss", "0.5"))
    assert code == 2
    assert "loss" in capsys.readouterr().err


@pytest.mark.parametrize("port, islands", [("-1", "1"), ("65535", "2")])
def test_cli_udp_port_out_of_range_exits_2(tmp_path, capsys, port, islands):
    args = cli_args(tmp_path, "--transport", "udp", "--udp-base-port", port)
    args[args.index("--islands") + 1] = islands
    assert main(args) == 2
    assert "65535" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("extra", [["--capacity", "0"], ["--capacity", "-3"],
                                   ["--capacity", "4"],
                                   ["--capacity", "0", "--strategy", "gr"]])
def test_cli_capacity_no_strategy_fits_exits_2(tmp_path, capsys, extra):
    args = cli_args(tmp_path)
    del args[args.index("--capacity"):args.index("--capacity") + 2]
    assert main(args + extra) == 2
    assert "capacity" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


SIX_MEMBERS = {"selectors": {"all": {}},
               "steps": [{"operator": "copy", "count": 1, "selector": "all"},
                         {"operator": "crossover", "count": 5, "selector": "all"}]}


@pytest.mark.parametrize("strategy, size", [("gr", 5), ("six.json", 6)])
def test_cli_a_strategy_that_states_its_size_needs_no_capacity(tmp_path, strategy, size):
    """``gr`` and a strategy file state an island's size: a run without
    ``--capacity`` writes the bytes of the run with the capacity that
    fits."""
    if strategy.endswith(".json"):
        (tmp_path / strategy).write_text(json.dumps(SIX_MEMBERS))
        strategy = str(tmp_path / strategy)
    written = []
    for capacity in ([], ["--capacity", str(size)]):
        out = tmp_path / f"given{len(capacity)}"
        out.mkdir()
        args = cli_args(out, "--strategy", strategy)
        del args[args.index("--capacity"):args.index("--capacity") + 2]
        assert main(args + capacity) == 0
        written.append([(out / name).read_bytes() for name in ("out.csv", "out_summary.csv")])
    assert written[0] == written[1]


def test_cli_malformed_strategy_exits_2(tmp_path, capsys):
    path = tmp_path / "strategy.json"
    path.write_text("{bad")
    assert main(cli_args(tmp_path, "--strategy", str(path))) == 2
    assert "strategy" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("selectors, steps", [
    # each used to run (counts truncated, true read as 1) or die in breeding
    ({"L": {"pool_best": 1}, "HR": {"pool_best": 2.5}},
     [{"operator": "copy", "count": 1, "selector": "L"},
      {"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"L": {"pool_best": True}, "HR": {"pool_best": 3}},
     [{"operator": "copy", "count": 1, "selector": "L"},
      {"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"L": {"pool_best": 1}, "HR": {"pool_best": 3}},
     [{"operator": "copy", "count": 1.9, "selector": "L"},
      {"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": 6.5, "selector": "HR"}]),
    ({"L": {"pool_best": 1}, "HR": {"pool_best": 3}},
     [{"operator": "copy", "count": True, "selector": "L"},
      {"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}},
     [{"operator": "random", "count": 1, "selector": "typo"},
      {"operator": "mutation", "count": 5, "selector": "HR"}]),
])
def test_cli_unusable_strategy_exits_2(tmp_path, capsys, selectors, steps):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"selectors": selectors, "steps": steps}))
    assert main(cli_args(tmp_path, "--strategy", str(path))) == 2
    assert "strategy" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("app, text", [
    ("feed", "{bad"),
    ("localisation", "{bad"),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech", "unread": "x"}]})),
    ("feed", json.dumps({"feeds": []})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech", "unread": -1}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech", "unread": 2.7}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech", "unread": True}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"a": "x"}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": [1]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}, {"id": "b", "group": "x"}],
                         "click_prob": {"typo": 0.9, "b": 7}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"typo": 0.5}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"a": 1.5}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"a": -0.1}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}],
                         "click_prob": {"a": float("nan")}})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}],
                         "click_prob": {"a": float("inf")}})),
    # a number must be a JSON number a float can hold: not a 401-digit
    # integer, a string or a bool
    pytest.param("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}],
                                      "click_prob": {"a": 10**400}}), id="feed-click_prob-huge"),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"a": "0.5"}})),
    # an unread count the unread_count terminal cannot read as a float
    pytest.param("feed", json.dumps({"feeds": [{"id": "a", "group": "tech", "unread": 10**400}]}),
                 id="feed-unread-huge"),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"}], "click_prob": {"a": True}})),
    # ids must be strings that can name the terminal is_<id> in tree text
    ("feed", json.dumps({"feeds": [{"id": ["a"], "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": 7, "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "", "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "a b", "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "a\tb", "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "a(", "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "a)", "group": "tech"}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": ["tech"]}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": None}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": ""}]})),
    ("feed", json.dumps({"feeds": [{"id": "a", "group": "tech"},
                                   {"id": "a", "group": "other"}]})),
    ("localisation", "[1]"),
    ("localisation", json.dumps({"ticks": 0})),
    ("localisation", json.dumps({"ticks": -3})),
    ("localisation", json.dumps({"ticks": 2.5})),
    ("localisation", json.dumps({"ticks": True})),
    ("localisation", json.dumps({"ticks": 86_401})),
    ("localisation", json.dumps({"waypoints": [[0, 0], [60, 100]]})),
    ("localisation", json.dumps({"waypoints": [[0, 0, 0, 0]]})),
    ("localisation", json.dumps({"waypoints": []})),
    ("localisation", json.dumps({"waypoints": [[30, 0, 0], [10, 50, 0]]})),
    ("localisation", json.dumps({"providers": [
        {"name": "gps", "radius_m": 5, "draw_ma": 140, "first_fix_s": 10},
        {"name": "gps", "radius_m": 40, "draw_ma": 30, "first_fix_s": 2}]})),
    ("localisation", json.dumps({"segments": [
        {"start": 0, "end": 60, "indoor": False, "wifi": "no"}]})),
    ("localisation", json.dumps({"segments": [
        {"start": 0, "end": 60, "indoor": 0, "wifi": True}]})),
    ("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": -1, "draw_ma": 5, "first_fix_s": 1}]})),
    ("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": 400, "draw_ma": float("nan"), "first_fix_s": 1}]})),
    ("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": 400, "draw_ma": 5, "first_fix_s": float("inf")}]})),
    ("localisation", json.dumps({"providers": [
        {"name": "beacon", "radius_m": 10, "draw_ma": 2, "first_fix_s": 1}]})),
    ("localisation", json.dumps({"providers": []})),
    ("localisation", json.dumps({"segments": []})),
    ("localisation", json.dumps({"segments": [
        {"start": 50, "end": 10, "indoor": False, "wifi": True}]})),
    pytest.param("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": 10**400, "draw_ma": 5, "first_fix_s": 1}]}),
        id="localisation-radius_m-huge"),
    ("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": 400, "draw_ma": "30", "first_fix_s": 1}]})),
    ("localisation", json.dumps({"providers": [
        {"name": "cell", "radius_m": 400, "draw_ma": 5, "first_fix_s": True}]})),
    pytest.param("localisation", json.dumps({"waypoints": [[0, 0, 0], [60, 10**400, 0]]}),
                 id="localisation-waypoint-huge"),
    ("localisation", json.dumps({"waypoints": [[0, "0", 0]]})),
    ("localisation", json.dumps({"waypoints": [[0, 0, False]]})),
    pytest.param("localisation", json.dumps({"segments": [
        {"start": 0, "end": 10**400, "indoor": False, "wifi": True}]}),
        id="localisation-segment-end-huge"),
    ("localisation", json.dumps({"segments": [
        {"start": "0", "end": 60, "indoor": False, "wifi": True}]})),
    ("localisation", json.dumps({"segments": [
        {"start": 0, "end": True, "indoor": False, "wifi": True}]})),
])
def test_cli_malformed_app_config_exits_2(tmp_path, capsys, app, text):
    path = tmp_path / "app.json"
    path.write_text(text)
    args = cli_args(tmp_path, "--app-config", str(path))
    args[args.index("--app") + 1] = app
    assert main(args) == 2
    assert "config" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("depth", ["0", str(DEPTH_CEILING + 1), "2000"])
def test_cli_max_depth_out_of_range_exits_2(tmp_path, capsys, depth):
    # trees deeper than the ceiling would exhaust the stack while growing
    assert main(cli_args(tmp_path, "--max-depth", depth)) == 2
    assert "max_depth" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_max_depth_at_the_ceiling_is_accepted():
    ExperimentConfig(app="feed", max_depth=DEPTH_CEILING).validate()


def never_run(config):
    raise AssertionError("the experiment ran before its output paths were checked")


@pytest.mark.parametrize("out, directory", [
    ("missing/out.csv", None),
    ("out.csv", "out.csv"),
    ("out.csv", "out_summary.csv"),
], ids=["no-such-directory", "rows-path-is-a-directory", "summary-path-is-a-directory"])
def test_cli_unusable_output_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                     out, directory):
    monkeypatch.setattr(cli, "run_experiment", never_run)
    if directory is not None:
        (tmp_path / directory).mkdir()
    args = cli_args(tmp_path)
    args[args.index("--out") + 1] = str(tmp_path / out)
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([directory] if directory else [])


def test_cli_output_check_neither_creates_nor_truncates(tmp_path, capsys, monkeypatch):
    def refused(config):
        raise ConfigurationError("refused after the paths were checked")

    monkeypatch.setattr(cli, "run_experiment", refused)
    (tmp_path / "out.csv").write_text("kept")
    assert main(cli_args(tmp_path)) == 2
    assert "refused" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert (tmp_path / "out.csv").read_text() == "kept"


def test_cli_localisation_flags(tmp_path, capsys):
    code = main(["--app", "localisation", "--islands", "1", "--capacity", "5",
                 "--generations", "2", "--iterations", "1", "--mode", "none",
                 "--no-helper", "--seed", "cli", "--out",
                 str(tmp_path / "loc.csv")])
    assert code == 0
    assert (tmp_path / "loc.csv").exists()
