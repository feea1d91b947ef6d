"""Test-side oracles: the seed implementations the shipped kernels are
pinned against.

Nothing in ``src/repro`` imports this package.  Each module mirrors the
shipped module it checks:

* :mod:`oracles.logic_network` — ``ReferenceLogicNetwork``, the
  tuple-layout network kernel;
* :mod:`oracles.simulation` — ``simulate_nodewise``, the per-node loop;
* :mod:`oracles.cuts` — ``enumerate_cuts_reference``;
* :mod:`oracles.npn` — ``npn_canon_enum`` / ``match_against_enum``;
* :mod:`oracles.transforms` — ``refactor_reference``;
* :mod:`oracles.t1_detection` — ``find_candidates_reference``;
* :mod:`oracles.phase_assignment` — ``assign_stages_rescan_reference``;
* :mod:`oracles.exact_stages` — the exhaustive phase-assignment optimum;
* :mod:`oracles.cpsat` / :mod:`oracles.dff_insertion` — the CP solver
  and the CP model of eq. 5 that cross-checks ``plan_t1_inputs``;
* :mod:`oracles.timing` — ``check_timing_reference``, the three-walk
  timing-rule checker;
* :mod:`oracles.metrics` — ``measure_reference`` / ``area_jj_reference``
  / ``count_splitters_reference``, the walk-per-metric Table-I layer.

Tests import them as ``oracles.<module>``; ``tests/conftest.py`` and
``benchmarks/_harness.py`` put ``tests/`` on ``sys.path``.
"""
