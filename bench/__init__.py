"""The repository's benchmark: four workloads, end-to-end and per-layer.

Everything here measures ``src/repro`` from the outside (timing and
wrapping calls into its public modules, reading ``/proc`` of replica
processes, parsing the lines replicas print); nothing in ``src/`` knows
it is being measured.  See ``bench/README.md``.
"""
