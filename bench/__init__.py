"""The repo's benchmark: five workloads, measured from outside ``src/``.

Run ``python -m bench --seed N`` from the repo root (``--workload``,
``--trace``, ``--quick``, ``--check-repeat A.json B.json``); see
``bench/README.md`` for what each workload and metric is for.  Importing
this package imports nothing from ``repro``: the program under test is
located and put on ``sys.path`` by :func:`bench.common.require_program`.
"""
