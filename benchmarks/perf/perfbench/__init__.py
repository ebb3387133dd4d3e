"""The repo benchmark: four fixed op scripts driven through the public API.

``run.py`` is the entry point, ``compare.py`` judges two result sets, and
``README.md`` explains what is measured and why.
"""
