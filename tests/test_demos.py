"""The demos print what they printed when their output was pinned.

Each demo runs with its default arguments in a fresh interpreter, under
the tests' own ``-X`` and ``-W`` flags and with the package's ``src``
directory on its path, and the SHA-256 digest of its standard output is
pinned here.  The demos seed every rng they use, so a digest mismatch means
the demo's draws or arithmetic moved.  Update a digest only on purpose, and
record why in CHANGES.md.
"""
import hashlib
import os
import subprocess
from pathlib import Path

import pytest

import gpislands

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "feed_personalisation.py":
        "af9272440ab5092972bcc59d2100040cb26ce3e5b52ef8c076cdffa0f4bc5ab2",
    "island_migration.py":
        "fd423d581b022d585fc9bafae9fe060388e150e09b1dd79c7f248c68dc1c9a9f",
    "localisation_tradeoff.py":
        "66290e06358104b90f37cf8e5e7cf563d2d1c3edce3862b809c99ae43503acc4",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_its_pinned_output(demo, python):
    src = str(Path(gpislands.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([*python, str(DEMOS / demo)],
                          env=dict(os.environ, PYTHONPATH=path),
                          check=True, capture_output=True, timeout=120)
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
