"""The command line over mutated config files.

Each example takes the task's ``--app-config`` file and the ``--strategy``
file from ``tests/data``, edits one or both of them (a value replaced, a
key or list entry dropped or repeated, a key added, or the text cut
short), and runs ``cli.main`` for 2 generations on 2 islands that migrate
every generation.  Whatever the files say, the run holds two contracts: it
exits 0 or 2, and a run that exits 0 logged no evaluator failure (the only
thing the package logs at ERROR).

The search is derandomized, with a fixed example budget, so every run
tries the same files.  No replacement value is a large whole number: a
count of that size is a valid strategy, whose run takes as long as its
count says.
"""
import contextlib
import copy
import io
import json
import logging
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gpislands.cli import main

DATA = Path(__file__).resolve().parent / "data"
APP_CONFIG = {"feed": "feed_config.json", "localisation": "world.json"}

#: Values an edit puts in: every JSON type, the edges of the numbers a
#: config reads, and names the configs use.
VALUES = [None, True, False, -1, 0, 1, 2, 3, 7, -0.5, 0.0, 0.5, 2.5, 1e-9, 1e308, -1e308,
          math.inf, -math.inf, math.nan, "", "x", " ", "gps", "wifi", "cell", "tech",
          "arstechnica", "wheel", "Top", "MUTATION", "RANDOM", [], {}, [1, 2, 3],
          {"name": "wifi"}]
KEYS = ["feeds", "click_prob", "id", "group", "unread", "selectors", "steps", "kind",
        "pool_best", "operator", "selector", "count", "providers", "name", "radius_m",
        "draw_ma", "first_fix_s", "waypoints", "segments", "start", "end", "indoor",
        "wifi", "ticks", "extra"]


def containers(doc, found=None):
    """Every list and dict in ``doc``, outermost first."""
    if found is None:
        found = []
    if isinstance(doc, (list, dict)):
        found.append(doc)
        for value in (doc.values() if isinstance(doc, dict) else doc):
            containers(value, found)
    return found


def edit(doc, data):
    """Apply one drawn edit to a container somewhere in ``doc``, in place."""
    box = data.draw(st.sampled_from(containers(doc)))
    slots = list(box) if isinstance(box, dict) else list(range(len(box)))
    action = data.draw(st.sampled_from(["replace", "drop", "repeat", "add"] if slots
                                       else ["add"]))
    value = copy.deepcopy(data.draw(st.sampled_from(VALUES)))  # later edits may change it
    if action == "add":
        if isinstance(box, dict):
            box[data.draw(st.sampled_from(KEYS))] = value
        else:
            box.append(value)
        return
    slot = data.draw(st.sampled_from(slots))
    if action == "replace":
        box[slot] = value
    elif action == "drop":
        del box[slot]
    elif isinstance(box, dict):  # repeat a dict's entry under another key
        box[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(box[slot])
    else:
        box.insert(slot, copy.deepcopy(box[slot]))


def mutated_text(name, data):
    """The text of ``tests/data/<name>`` after zero to three edits, and cut
    short at a drawn point now and then."""
    doc = json.loads((DATA / name).read_text())
    for _ in range(data.draw(st.integers(0, 3))):
        edit(doc, data)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    return text


class Failures(logging.Handler):
    """Keeps the records logged at ERROR or above."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(app=st.sampled_from(sorted(APP_CONFIG)), data=st.data())
def test_mutated_config_files_exit_0_or_2_and_a_clean_run_logs_no_failure(app, data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        app_config = folder / "app.json"
        app_config.write_text(mutated_text(APP_CONFIG[app], data))
        strategy = folder / "strategy.json"
        strategy.write_text(mutated_text("strategy.json", data))
        argv = ["--app", app, "--app-config", str(app_config), "--strategy", str(strategy),
                "--islands", "2", "--generations", "2", "--iterations", "1",
                "--interval", "1", "--seed", "fuzz", "--out", str(folder / "out.csv")]
        failures = Failures()
        logger = logging.getLogger("gpislands")
        logger.addHandler(failures)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            logger.removeHandler(failures)
    assert code in (0, 2)
    if code == 0:
        assert not failures.records, [r.getMessage() for r in failures.records]
