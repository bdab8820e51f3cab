"""The repository's benchmark: five named workloads, one result schema.

Run from the repo root (``src/`` is put on ``sys.path`` by ``__main__``)::

    python -m bench run --all --seed 1
    python -m bench trace --workload fleet_ledger
    python -m bench compare A.json B.json
    python -m bench selftest

See ``bench/README.md`` for the metric glossary and the workload rationale.
"""
