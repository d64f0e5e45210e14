"""Fixed reference work that the benchmark times to gauge the host's speed.

Run as a child process like a CLI call::

    python3 perfbench/reference.py

It starts an interpreter, imports numpy, counts character n-grams of a
seeded text into a dict and runs a few epochs of a sparse coordinate loop:
the same kinds of work as ``lahja``'s analyzers, vectorizer and solver, in
code that belongs to the benchmark and never changes with the program. A
shared host's speed moves every call of a run together, by up to 1.5x
between runs minutes apart; this program's time moves with it, so
``run.py`` divides it out of the time metrics.
"""

from __future__ import annotations

import random

import numpy as np

EPOCHS = 12


def main() -> int:
    rng = random.Random(7)
    words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 7))) for _ in range(3000)]
    docs = [" ".join(rng.choice(words) for _ in range(40)) for _ in range(300)]
    vocabulary: dict[str, int] = {}
    rows = []
    for doc in docs:
        counts: dict[int, int] = {}
        for n in (1, 2, 3, 4):
            for i in range(len(doc) - n + 1):
                j = vocabulary.setdefault(doc[i:i + n], len(vocabulary))
                counts[j] = counts.get(j, 0) + 1
        rows.append((np.fromiter(counts, dtype=np.int64), np.fromiter(counts.values(), dtype=np.float64)))
    weights = np.zeros(len(vocabulary))
    for _ in range(EPOCHS):
        for index, values in rows:
            if float(values @ weights[index]) < 1.0:
                weights[index] += 0.01 * values
    print(f"{len(vocabulary)} {float(weights.sum()):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
