"""Large lattice descriptions in the JSON format `luset --lattice` reads:
a chain of n elements and the powerset of k atoms.

    python tests/lattice_files.py DIR

writes `chain800.json` (covers in ascending order) and `powerset1024.json`
into DIR, the lattices of the pinned reports `tests/data/check_ctr_chain800.json`
and `tests/data/check_ctr_powerset1024.json`.
"""

import itertools
import json
import sys
from pathlib import Path


def chain(n: int, descending: bool = False) -> dict:
    """c0 ⊑ c1 ⊑ … ⊑ c<n-1>, its covers listed bottom up or top down."""
    names = [f"c{i}" for i in range(n)]
    covers = [[lo, hi] for lo, hi in zip(names, names[1:])]
    return {"elements": names, "bottom": "c0",
            "covers": covers[::-1] if descending else covers}


def powerset(k: int) -> dict:
    """The subsets of the first k letters, named as `Lattice.powerset`
    names them: `bot`, then the sorted letters of each non-empty subset."""
    atoms = "abcdefghijklmnopqrstuvwxyz"[:k]
    subsets = [c for size in range(k + 1) for c in itertools.combinations(atoms, size)]
    name = {s: "".join(s) or "bot" for s in subsets}
    covers = [[name[s], name[tuple(sorted(s + (a,)))]]
              for s in subsets for a in atoms if a not in s]
    return {"elements": list(name.values()), "bottom": "bot", "covers": covers}


FILES = {"chain800.json": chain(800), "powerset1024.json": powerset(10)}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    for name, data in FILES.items():
        (out / name).write_text(json.dumps(data), encoding="utf-8")
