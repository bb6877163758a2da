"""Reference coefficients for score-5k, computed with scipy in a process of its own.

    python3 perfbench/oracle.py A0.csv B0.csv A1.csv B1.csv ...

Reads each pair of ranking CSVs (item_id,rank,weight) and prints a JSON list
with one [spearmanr, kendalltau tau-b] per pair.
"""

import csv
import json
import sys

from scipy import stats


def ranks(path: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["rank"]) for row in csv.DictReader(fh)]


files = sys.argv[1:]
reference = []
for path_a, path_b in zip(files[::2], files[1::2]):
    a, b = ranks(path_a), ranks(path_b)
    reference.append([stats.spearmanr(a, b).statistic, stats.kendalltau(a, b).statistic])
print(json.dumps(reference))
