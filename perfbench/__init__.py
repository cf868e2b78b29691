"""End-to-end benchmark of the Sharing Architecture reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload through the program's public APIs and prints one JSON
result line; ``python3 perfbench/steady.py`` repeats runs and reports
their spread.  See ``perfbench/README.md``.
"""
