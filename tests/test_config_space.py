"""The configuration cells write their pinned bytes.

``config_cells.py`` holds the cells and their digests.  Together with the
goldens they give every option a cell can pin at least two values.
"""
import pytest
from config_cells import CELLS, argv, run_cell
from test_golden import GOLDEN

from gpislands.cli import build_parser

# where to write, and the UDP transport's, whose sockets are not deterministic
UNPINNED = {"out", "transport", "udp_base_port"}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_config_cell_digests(name, tmp_path):
    _, rows_sha, summary_sha = CELLS[name]
    assert run_cell(name, tmp_path) == (rows_sha, summary_sha)


def test_every_pinnable_option_takes_two_values():
    parser = build_parser()
    seen = {}
    for words in [a.split() for a, _, _ in GOLDEN.values()] + [argv(n) for n in CELLS]:
        for option, value in vars(parser.parse_args(words)).items():
            seen.setdefault(option, set()).add(value)
    assert {option for option, values in seen.items() if len(values) < 2} == UNPINNED
