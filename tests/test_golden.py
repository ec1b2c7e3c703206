"""Golden trajectories: frozen-seed cells must write the same CSV bytes.

Each cell is one ``gpislands`` command line run through ``cli.main``.  The
SHA-256 digests of its rows and summary CSVs are pinned here, so a change
that shifts the order of rng draws, or the arithmetic of any task, shows up
as a digest mismatch even when it is consistent between reruns.  Update a
digest only on purpose, and record why in CHANGES.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from reference import walked_fill

import gpislands
from gpislands import feed
from gpislands.cli import main

# name: (argv, rows sha256, summary sha256)
GOLDEN = {
    "feed-homo": (
        "--app feed --islands 2 --capacity 10 --generations 10 --iterations 2",
        "a0d82a19c0604d40468bce54851b0415339902da69e4f74dcc901942c8ae200f",
        "46fbc367fd49faf50f779ac6730a1171b71e03d8ad963dd1a9124b590be799e7"),
    "feed-hetero": (
        "--app feed --landscape hetero --islands 2 --capacity 10 --generations 10"
        " --iterations 2",
        "1850bb4cab5c1c0e2a2b15fa37a3d0353e0c577f34bd0804ca23e98c174e979d",
        "3515cace0172c647ce2af688e6038d3d406a18ed4f73e6830cc34cc7bfe13c83"),
    "loc-migrate": (
        "--app localisation --mode migrate --islands 2 --capacity 12 --generations 8"
        " --interval 2 --rate 0.2 --iterations 1",
        "10d336ecf2c873e52870a22e25aaeed1f4a0943c8958e0e373bb45ffcf2e426d",
        "ea5af4bad40023e6d641a533c7055b29fe6822a5efcb499d0af2c063ffbd35a6"),
    "loc-random": (
        "--app localisation --mode random --islands 2 --capacity 12 --generations 8"
        " --interval 2 --rate 0.2 --iterations 1",
        "780eb91b45a3c381bd0ba8c4575fabbbd0b08d57e0e9d16eeaaeaee2cec793f4",
        "3fd927268cfab2a40d12a6799d2eb1c57ea7e213be0d04554975b40000479536"),
    "loc-none": (
        "--app localisation --mode none --islands 2 --capacity 12 --generations 8"
        " --iterations 1",
        "aa5bd9311f9155e6f78c1341f4d69564ed27e206192cb2cdc3d0bf5ed52cf2b4",
        "1b9dd19c941ebb3e696a84c2245de0a5e05f566a72164a4c1735740bd1e2dcc0"),
    "feed-lossy-bus": (
        "--app feed --islands 3 --capacity 10 --generations 10 --interval 1 --rate 0.5"
        " --loss 0.5 --iterations 2",
        "ad5a51d45217e77b325bffeb688c957ec6fb485e9967564312eee01a506bc7f1",
        "84a8ea1e7cbe361f490f87381461df84a7b0d2456fd5b5a87127137cf646a8cf"),
    "feed-deep-kills": (
        "--app feed --islands 2 --capacity 10 --generations 8 --interval 1 --rate 0.5"
        " --max-depth 9 --iterations 1 --seed 1",
        "9435849fae8ac171a10dbb9b25407ca732ca287154b0f411ebb96e2a7ba149ba",
        "627907522cf7489e51f177056f36497d12b9f581f5f21a2cd0ff220573cf5f24"),
    # 15 iterations: each summary figure sums past numpy's eight-way
    # unrolled pairwise block, which the cells above, of 1 to 2 iterations,
    # never reach
    "feed-15-iterations": (
        "--app feed --islands 2 --capacity 10 --generations 6 --iterations 15",
        "9d017e2312e47b5260e12d60796e077d32dccdecfa8bdcd173568689d1dee0d5",
        "318b1ee66c9fd65c3f4a4ed7c7c6581d9fd1b194a2635715b1fa1179a67ff770"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(name, tmp_path):
    argv, _, _ = GOLDEN[name]
    out = tmp_path / "rows.csv"
    assert main(argv.split() + ["--out", str(out)]) == 0
    return _sha256(out), _sha256(tmp_path / "rows_summary.csv")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    _, rows_sha, summary_sha = GOLDEN[name]
    assert _run(name, tmp_path) == (rows_sha, summary_sha)


def test_deep_cell_exercises_supervisor_kills(tmp_path, monkeypatch):
    """The deep golden only guards the kill path if kills actually happen:
    some screen fills are killed, and the walker kills each of them too."""
    killed = []
    real_fill = feed._fill_screen

    def watched(tree, catalog):
        fill = real_fill(tree, catalog)
        if fill is None:
            killed.append((tree, catalog))
        return fill

    monkeypatch.setattr(feed, "_fill_screen", watched)
    _run("feed-deep-kills", tmp_path)
    assert killed
    for tree, catalog in killed:
        assert walked_fill(tree, catalog) is None


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_a_golden_cell_holds_under_two_hash_seeds(hash_seed, tmp_path):
    """String hashes and dict layouts must not reach the output: one cell,
    run as ``python -m gpislands`` under two ``PYTHONHASHSEED`` values,
    writes the pinned digests under both."""
    argv, rows_sha, summary_sha = GOLDEN["feed-homo"]
    src = str(Path(gpislands.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    out = tmp_path / "rows.csv"
    subprocess.run([sys.executable, "-m", "gpislands", *argv.split(), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert (_sha256(out), _sha256(tmp_path / "rows_summary.csv")) == (rows_sha, summary_sha)
