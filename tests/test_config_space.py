"""The configuration cells write their pinned bytes.

``config_cells.py`` holds the cells and their digests.  Together with the
goldens they give every option a cell can pin at least two values.  Every
cell also runs under the reference growth, which shares no node.
"""
import pytest
from config_cells import CELLS, argv, reference_growth, run_cell
from test_golden import GOLDEN

from gpislands import feed
from gpislands.cli import build_parser

# where to write, and the UDP transport's, whose sockets are not deterministic
UNPINNED = {"out", "transport", "udp_base_port"}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_config_cell_digests(name, tmp_path):
    _, rows_sha, summary_sha = CELLS[name]
    assert run_cell(name, tmp_path) == (rows_sha, summary_sha)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_config_cell_digests_under_reference_growth(name, tmp_path):
    """Growth that builds a fresh node for every leaf writes the same bytes
    as growth that shares one node per terminal kind."""
    with reference_growth():
        assert run_cell(name, tmp_path) == CELLS[name][1:]


def test_the_deep_kills_cell_kills_fills_of_its_own_catalog(tmp_path, monkeypatch):
    """The one cell whose digests pin the step budget's kill on a catalog
    other than the default: some of its fills are killed."""
    fills = []
    real = feed._fill_screen

    def recorded(tree, catalog):
        fill = real(tree, catalog)
        fills.append((len(catalog.feeds), fill is None))
        return fill

    monkeypatch.setattr(feed, "_fill_screen", recorded)
    name = "feed-app-config-deep-kills"
    assert run_cell(name, tmp_path) == CELLS[name][1:]
    assert {feeds for feeds, _ in fills} == {5}
    assert any(killed for _, killed in fills)


def test_every_pinnable_option_takes_two_values():
    parser = build_parser()
    seen = {}
    for words in [a.split() for a, _, _ in GOLDEN.values()] + [argv(n) for n in CELLS]:
        for option, value in vars(parser.parse_args(words)).items():
            seen.setdefault(option, set()).add(value)
    assert {option for option, values in seen.items() if len(values) < 2} == UNPINNED
