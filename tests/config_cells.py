"""Configuration cells: frozen-seed runs over options the goldens miss.

Each cell is one ``gpislands`` command line of 5 generations and 1
iteration, run through ``cli.main``, on 2 islands of capacity 10 unless the
cell's own options say otherwise (a later option wins); ``{data}`` stands
for ``tests/data``.  The cells cover a ``--strategy`` file, an
``--app-config`` catalog and world, ``--no-helper``, the feed task in
``random`` and ``none`` modes, hetero with loss, localisation at
``--max-depth 6``, islands of 5, 7 and 12 members, 3 islands, and the feed
task at ``--max-depth 9`` on the 5-feed catalog, where the step budget
kills fills.  ``tests/test_config_space.py`` holds every cell's rows
and summary CSVs to the SHA-256 digests pinned here; as in
``tests/test_golden.py``, update a digest only on purpose, and record why in
CHANGES.md.  UDP is left out: real sockets are not deterministic.

Under :func:`reference_growth` every tree grows by ``tests/reference.py``'s
textbook recursion, :func:`reference.grow`, which builds fresh, checked
nodes and shares no leaf; every cell must still write its pinned bytes.

Run as a script to print every cell's fresh digests; it never writes them,
and exits 1 if any differs from its pin.  ``--reference`` runs the cells
under :func:`reference_growth`::

    PYTHONPATH=src python tests/config_cells.py [--reference]
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from reference import grow

from gpislands import evolution, trees
from gpislands.cli import main

DATA = Path(__file__).resolve().parent / "data"
BASE = "--islands 2 --capacity 10 --generations 5 --iterations 1"

# name: (argv after BASE, rows sha256, summary sha256)
CELLS = {
    "feed-strategy-file": (
        "--app feed --strategy {data}/strategy.json",
        "b1d53768e6831eac4bf4c84e811c2be6f5466c40dbb80b47736f3b2762f482ae",
        "a7862f37e7a1abef042ae808b3c72e6241dab5b2cc578332c159a665c91d4231"),
    "loc-strategy-file": (
        "--app localisation --strategy {data}/strategy.json",
        "a9aca9fee3d2937abc47bbbe7e6b949c6f3fcfa6a37ea14c2d0b20763f2b5121",
        "2e13934e58bed2b5ff4ad3accd976143c0841bb083598cb1de86c203421a7fca"),
    "feed-app-config": (
        "--app feed --app-config {data}/feed_config.json",
        "35f00236654de1e41723c2743888372057185361890090bd886825966682f33f",
        "c2777910ae5334c5ec024e730d553dcc8316e455811664ceaf28952a56239631"),
    "feed-app-config-random": (
        "--app feed --app-config {data}/feed_config.json --mode random --interval 1"
        " --rate 0.3",
        "8baeee74cdb0c7284677581c7a08d4d6c014ecd3b5073cfc359c3318798e61bf",
        "40e2af18f18095d0b9da013137faacdf57568aae12d40a5f438cdc49213c6511"),
    "loc-app-config": (
        "--app localisation --app-config {data}/world.json",
        "910ed1a9aeed90bb232a2a45eff7a1d5c06f2a481adfcdc5b72aad623e0cfd2e",
        "217de10b9651a9382ac8236f40c70481179446e02385f349dfcc0794e816b3c2"),
    "loc-app-config-none-no-helper": (
        "--app localisation --app-config {data}/world.json --mode none --no-helper",
        "f3e0b4d483e0b6393d54d7a3841ba54ac74fed53a554b971d9014a39b98c47ca",
        "7d491983b3f0ab8a54249b59ea32e474a9578bb4547459099c48661260607313"),
    "loc-no-helper": (
        "--app localisation --no-helper --interval 2 --rate 0.2",
        "07a27e7ab20495b813ca866d9bc3f4270aaa48a4ef3a5aeff757df57291bc62f",
        "15e182a03ebf91893525d9f0fdb49dad061e5fbfa13d645566c68c7f144ddeac"),
    "feed-no-helper": (
        "--app feed --no-helper --interval 2 --rate 0.2",
        "82f7650b47db32eb7d64bbddca14316a930890b61e9aa2b04a6dae08fe695833",
        "92938f7bd762ad0e980894a3d7663381cdc55bd632f4cb94fba9bd354d59b35f"),
    "feed-random": (
        "--app feed --mode random --interval 2 --rate 0.2",
        "5042473cc0ea5290d191383d27453aa5a1170b1c471730bb97ab2041943167a8",
        "e33a825ba53846f225093abf7f30eeddef3c70848f823c94d9194570c5ba84aa"),
    "feed-none": (
        "--app feed --mode none --interval 1 --rate 0.5",
        "43e8c87ccffb3a6471dd2ee35f32a7b6b96174327a17a8889e030ba0a7d26b49",
        "d1da69c21997a216d8ae6aeec668007da27698db1cbad6a2df02a04c7a39986f"),
    "feed-hetero-loss": (
        "--app feed --landscape hetero --loss 0.5 --interval 1 --rate 0.5",
        "f7c493dc967f5234ff37256ec2816c0f7cf38f9b4d8880a6fb9c930b7d17d23c",
        "deb90d91bf969b2e219f9fbb8b150133a6691fef9c96992e177f4a05f36a9edd"),
    "feed-hetero-random": (
        "--app feed --landscape hetero --mode random --interval 1 --rate 0.5",
        "e49e393dba4b5a5e9156c0f3d5343106ebfc796ee749ef19581b1eeecdb54d09",
        "749f56c109a9e495962d2fa6c597ccf05d57819417234f8696ce7542d5af1e6d"),
    "loc-depth-6": (
        "--app localisation --max-depth 6",
        "fe8f62cb41d28dbd4d1c426edf3cdc6eaf985d74f3ac9e3bd3351def274efca0",
        "ae37cec7743cc16e652b9d602d42441d8f131891d03e00457214c610acde3c83"),
    "loc-depth-6-random": (
        "--app localisation --max-depth 6 --mode random --interval 1 --rate 0.3",
        "9bd32a15eac9f3b5d47823aa4855fd259178c911b87c79eb95bde131b94558d3",
        "7ebca62ff2d5ced5913903c2149c5e6a7304028ee22ea5c8644783f0c732c68a"),
    "loc-loss": (
        "--app localisation --loss 0.5 --interval 1 --rate 0.5",
        "041b8c8f46129d773526379731cd850a42eca4d90b6c60628d6f2fad285b33e3",
        "c27ff3870b6788050e62fd4317d515119a932fddc9a248016ef2865739cd4ea2"),
    "feed-depth-6-seed": (
        "--app feed --max-depth 6 --seed corner-desk",
        "9a008e88903763f462a10c489b076adb8caa54c09fee18f744a2183dc394a0b8",
        "113dabb4533f4a5212e9554e01ee04241c4bea22607eb467d041b78fad40d631"),
    "feed-gr-random": (
        "--app feed --capacity 5 --strategy gr --mode random --interval 1 --rate 0.3",
        "6747c9354d26c96d649033e539f33eb3e62f413e699396c07e751df4b3187ecf",
        "6c98259a7833376eb3c7cc2605d24e319028c9c23d21e508d45acdc64b281d16"),
    "loc-preset-migrate": (
        "--app localisation --capacity 12 --interval 2 --rate 0.25",
        "d5c2e9aa7a3953db7ae028fd77a92bc1007ef69c073248a9f7bb22dfbe8952d5",
        "4dd9958a362d3187df564656d81977819b2fe7df10c70fb58dc120cd455bebf2"),
    "feed-catalog-3-islands": (
        "--app feed --islands 3 --app-config {data}/feed_config.json --interval 1"
        " --rate 0.3",
        "dc948cbbbd01133e25df87a48766eab6c47762253b4be71b22b7a054cd511f36",
        "314bf21a0d8dcad694320b69ee72cabdfe3bae6841a499a09398af8f664d55b6"),
    "feed-island-7-random": (
        "--app feed --capacity 7 --mode random --interval 2 --rate 0.5",
        "8ca4c3fe428f5defa30b404fe262d1386eff5e161627725f23a8ca86841eff99",
        "2c1833f96a0e8f2f40e53f564ee9ddd559abdcc886b0f2abb1f3ae2c56ad85db"),
    "feed-app-config-deep-kills": (
        "--app feed --app-config {data}/feed_config.json --max-depth 9 --interval 1"
        " --rate 0.5 --seed 2",
        "e8631543c37b5d8ff52e95cb8aa3382519e3c19cac29d807352fede988ac7c3a",
        "ed5bf77400b7b9f71205fef00c50d90f30c93b287e4f47972f338c1462492f76"),
}


def argv(name):
    """The cell's command line, ``{data}`` filled in after splitting."""
    return [word.format(data=DATA) for word in f"{BASE} {CELLS[name][0]}".split()]


@contextlib.contextmanager
def reference_growth():
    """Grow with :func:`reference.grow` in place of the package's
    ``grow_subtree``, which ``build_random_tree`` and ``mutate`` call."""
    package = trees.grow_subtree, evolution.grow_subtree
    trees.grow_subtree = evolution.grow_subtree = grow
    try:
        yield
    finally:
        trees.grow_subtree, evolution.grow_subtree = package


def run_cell(name, directory):
    """Run the cell into ``directory``; the SHA-256 of its rows and summary."""
    out = Path(directory) / "rows.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv(name) + ["--out", str(out)])
    if status != 0:
        raise RuntimeError(f"cell {name} failed")
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (out, out.with_name("rows_summary.csv")))


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--reference"]):
        sys.exit(f"usage: {sys.argv[0]} [--reference]")
    changed = 0
    with reference_growth() if sys.argv[1:] else contextlib.nullcontext():
        for name, (_, *pinned) in CELLS.items():
            with tempfile.TemporaryDirectory() as directory:
                digests = run_cell(name, directory)
            changed += digests != tuple(pinned)
            print(f"{name}: {' '.join(digests)}"
                  f"{'' if digests == tuple(pinned) else '  CHANGED'}")
    sys.exit(1 if changed else 0)
