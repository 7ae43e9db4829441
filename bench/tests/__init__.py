"""Tests of the benchmark harness itself (``python -m pytest bench/tests -q``)."""
