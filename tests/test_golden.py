"""Golden grid: HH^n dims, Lie structure constants and fingerprints.

Every family with a bimodule complex, at small k, over GF(2), GF(3) and
GF(4) where the family allows the field.  A record holds the cohomology
dimensions (degrees 0-4 on the periodic quaternion complexes, 0-1 on the
others), the structure constants of HH^1 in the canonical basis of the class
section, and the fingerprint with a derivation probe at every nonzero rho.
``Subspace`` keeps canonical bases, so any change to these numbers is a
change in what the library computes.

Regenerate ``golden/grid.json`` with ``PYTHONPATH=src python tests/test_golden.py``
only when a change of output is intended and explained.
"""

import dataclasses
import json
from pathlib import Path

from tamecoh.cohomology import hh
from tamecoh.families import make
from tamecoh.field import Field
from tamecoh.lie import fingerprint, from_cohomology

GOLDEN = Path(__file__).parent / "golden" / "grid.json"

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)

GRID = [
    ("D1A2", GF2, dict(k=2, d=0)),
    ("D1A2", GF2, dict(k=3, d=1)),
    ("D1A2", GF4, dict(k=2, d=1)),
    ("SD1A1", GF2, dict(k=2)),
    ("SD1A1", GF4, dict(k=3)),
    ("SD1A2", GF2, dict(k=2, c=1, d=1)),
    ("SD1A2", GF4, dict(k=2, c=2, d=3)),
    ("Q1A1", GF2, dict(k=2)),
    ("Q1A1", GF4, dict(k=3)),
    ("Q1A2", GF2, dict(k=2, c=1, d=0)),
    ("Q1A2", GF4, dict(k=2, c=2, d=3)),
    ("SD2B1", GF2, dict(k=2, s=2, c=1)),
    ("SD2B1", GF3, dict(k=2, s=3, c=1)),
    ("SD2B1", GF4, dict(k=2, s=2, c=2)),
    ("SD2B2", GF2, dict(k=2, s=2, c=1)),
    ("SD2B2", GF3, dict(k=2, s=3, c=0)),
    ("SD2B2", GF4, dict(k=2, s=3, c=3)),
]


def grid_record(family, field, params) -> dict:
    res = make(family, field, **params).resolution
    top = 4 if res.periodic else 1
    space = hh(res, 1)
    lie = from_cohomology(space)
    fp = fingerprint(lie, probes=range(1, field.q))
    return {
        "family": family,
        "field": repr(field),
        "params": params,
        "hh_dims": [hh(res, n).dim if n != 1 else space.dim
                    for n in range(top + 1)],
        "lie_entries": [[int(a) for a in entry] for entry in zip(*lie.entries())],
        "fingerprint": dataclasses.asdict(fp),
    }


def render(records) -> str:
    """One record per line, keys sorted, so a diff names the instance."""
    lines = [json.dumps(r, sort_keys=True) for r in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def compute_grid() -> str:
    return render([grid_record(*case) for case in GRID])


def test_golden_grid_unchanged():
    assert compute_grid().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text(compute_grid())
