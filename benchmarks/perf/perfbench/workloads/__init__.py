"""One module per workload.  Each exposes ``WHY`` (the one-line reason in
``BENCHMARK.json``), ``fixtures(seed, smoke, workdir)`` (seed-driven inputs,
built once per run), ``warmup(fx)`` (one tiny call per op kind) and
``script(fx)`` (a fresh :class:`perfbench.harness.Script` for one pass)."""
